"""The hypograph start against tests/reference_start.py.

initial_set must give the reference's cell grid on seeded g at N <= 6
and K = 0..4, on g = 0 and g = 1 and on band values that end exactly on
a cell boundary, and raise the reference's QuantizationError text on g
off the cell grid, off the value grid or above 1.  The engine's band
start, _Work.hypograph and ReplayState.hypograph, must give every field
of the fill start built on the reference grid, raise what that start
raises (g's values checked before f's), and be the start reconstruct and
audit_trace take, with no cell grid built on the way.
"""

from __future__ import annotations

import random

import pytest

from conftest import rand_grid_marginal, rand_stepfn
from crosscut import gridset
from crosscut.dyadic import Dyadic
from crosscut.gridset import (
    GridParams,
    MalformedTrace,
    QuantizationError,
    ReplayState,
    _Work,
    initial_set,
)
from crosscut.report import audit_trace
from crosscut.stepfn import StepFunction
from reference_search import engine_columns, recounted_columns
from reference_start import reference_initial_set
from test_audit_golden import _ramp


def _corpus():
    """(g, params): per N <= 6 and K = 0..4 a seeded band-constant g, one
    with runs of several bands, g = 0, g = 1 and one whose band values are
    whole cells, so each band ends exactly on a cell boundary."""
    rng = random.Random(19_000)
    out = []
    for n in range(1, 7):
        for k in range(5):
            params = GridParams(n, k)
            side = params.side
            whole = [Dyadic(rng.randrange(side + 1), n) for _ in range(side)]
            out += [
                (rand_grid_marginal(rng, params), params),
                (rand_stepfn(rng, grid_exp=rng.randint(1, n), value_exp=n + k,
                             max_value_units=1 << (n + k)), params),
                (StepFunction.constant(0), params),
                (StepFunction.constant(1), params),
                (StepFunction.from_grid(whole, n), params),
            ]
    return out


def _off_grid():
    """(g, params) that initial_set must refuse: a value below the
    sub-unit, a value above 1, a breakpoint inside a band."""
    out = []
    for n, k in ((1, 0), (2, 1), (3, 2), (6, 4)):
        params = GridParams(n, k)
        out += [
            (StepFunction.constant(Dyadic(1, n + k + 1)), params),
            (StepFunction.constant(Dyadic(3, 1)), params),
            (StepFunction.from_grid([Dyadic(j % 2, n + k) for j in range(2 << n)], n + 1), params),
            (StepFunction.from_grid([Dyadic(1), Dyadic(5, 2)] * (1 << (n - 1)), n), params),
        ]
    return out


CORPUS, OFF_GRID = _corpus(), _off_grid()


def _outcome(call):
    try:
        return call()
    except QuantizationError as exc:
        return "QuantizationError", str(exc)


def test_initial_set_is_the_reference_grid():
    for g, params in CORPUS:
        assert initial_set(g, params) == reference_initial_set(g, params), (g, params)


def test_initial_set_raises_the_reference_errors():
    texts = set()
    for g, params in OFF_GRID:
        got = _outcome(lambda: initial_set(g, params))
        assert got[0] == "QuantizationError", (g, params)
        assert got == _outcome(lambda: reference_initial_set(g, params)), (g, params)
        texts.add(got[1].split()[0] + (" outside" if "outside" in got[1] else ""))
    assert texts == {"breakpoint", "band", "band outside"}


_FIELDS = ("full", "nonempty", "part", "residual", "dominated", "D", "shift", "fcol")


def _state(work) -> dict:
    """The named attributes, every attribute of the packed slack, and
    each column's full count and partial widths."""
    return {name: getattr(work, name) for name in _FIELDS} | {
        "thresholds": vars(work.thresholds),
        "columns": engine_columns(work),
    }


def _targets(rng: random.Random, g: StepFunction, params: GridParams):
    """f = g, a seeded band-constant f, and one on a finer value grid."""
    n, k = params.depth, params.subres
    return (
        g,
        rand_grid_marginal(rng, params),
        rand_stepfn(rng, grid_exp=rng.randint(1, n), value_exp=n + k + 3, max_value_units=9 << (n + k)),
    )


def test_band_start_is_the_fill_start():
    rng = random.Random(19_500)
    dominated = set()
    for g, params in CORPUS:
        fill = reference_initial_set(g, params).fill
        columns = recounted_columns(fill, params.sub_per_cell)
        for f in _targets(rng, g, params):
            want = _state(_Work(params, fill, f))
            assert want["columns"] == columns, (g, f, params)
            assert _state(_Work.hypograph(params, g, f)) == want, (g, f, params)
            records = ()
            replay = ReplayState.hypograph(params, g, f, records)
            assert _state(replay) == want
            assert (replay.records, replay.next) == (records, 0)
            assert [*zip(*replay.checked)] == columns
            dominated.add(want["dominated"])
    assert dominated == {True, False}


def test_band_start_raises_what_the_fill_start_raises():
    # f_bad breaks inside a column at every N <= 6; with g off the grid
    # too, g's error is the one raised, its values being checked first
    f_bad = StepFunction.from_grid([Dyadic(1, 2), Dyadic(0)] * 64, 7)
    errors = []
    for g, params in OFF_GRID + CORPUS[::7]:
        for f in (g, f_bad):
            want = _outcome(lambda: _Work(params, reference_initial_set(g, params).fill, f))
            got = _outcome(lambda: _Work.hypograph(params, g, f))
            if isinstance(want, tuple):
                errors.append(want[1].split()[0])
                assert got == want, (g, f, params)
                assert _outcome(lambda: ReplayState.hypograph(params, g, f, ())) == want
                with pytest.raises(MalformedTrace) as err:
                    audit_trace((), f, g, params)
                assert str(err.value) == f"cannot rebuild initial state: {want[1]}"
            else:
                assert _state(got) == _state(want)
    assert errors.count("band") == len(OFF_GRID) + len(OFF_GRID) // 2
    assert errors.count("breakpoint") == len(OFF_GRID) // 2 + len(CORPUS[::7])


def test_reconstruct_and_audit_build_no_cell_grid(monkeypatch):
    # the fill path's three steps are never taken; to_set may still
    # build the returned set
    calls = {"initial_set": 0, "_full_counts": 0, "_Rows.__init__": 0}

    def counted(name, fn):
        def wrapped(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapped

    monkeypatch.setattr(gridset, "initial_set", counted("initial_set", gridset.initial_set))
    monkeypatch.setattr(gridset, "_full_counts", counted("_full_counts", gridset._full_counts))
    monkeypatch.setattr(gridset._Rows, "__init__", counted("_Rows.__init__", gridset._Rows.__init__))
    f, params = _ramp(7)
    e, summary = gridset.reconstruct(f, f, params)
    assert audit_trace(summary, f, f, params).ok
    assert calls == {"initial_set": 0, "_full_counts": 0, "_Rows.__init__": 0}
    assert len(summary.swaps) > 100
    # the hooks count: the fill path takes all three
    _Work(params, gridset.initial_set(f, params).fill, f)
    assert calls == {"initial_set": 1, "_full_counts": 1, "_Rows.__init__": 1}
