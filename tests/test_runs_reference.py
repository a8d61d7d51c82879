"""The integer readers of step functions against tests/reference_runs.py.

feasibility.run_excess must find the witness of the cut-and-prefix
reference, with the same types, on run lists of ints and of Dyadics.
gridset._cell_units, and through it initial_set, _Work and
discrete_exact_set, must read a function's cell values, and raise the
QuantizationError text, that the per-cell Dyadic walk gave.
stepfn.l1_distance and gridset.vertical_section must give what the
Dyadic piece walk and the per-sub-column Dyadic builder gave, and
vertical_section what the integer recount per sub-column gives on fills
with several partial cells per row, K up to 16.
"""

from __future__ import annotations

import random

import pytest

from conftest import rand_dyadic_set, rand_stepfn
from crosscut.dyadic import Dyadic
from crosscut.feasibility import run_excess
from crosscut.gridset import (
    DyadicSet,
    GridParams,
    QuantizationError,
    _cell_units,
    _Work,
    discrete_exact_set,
    initial_set,
    vertical_section,
)
from crosscut.matrices import realize_exact_margins
from crosscut.stepfn import StepFunction, l1_distance
from reference_runs import (
    reference_cell_units,
    reference_l1_distance,
    reference_plateau_values,
    reference_run_excess,
    reference_vertical_section,
    sub_counts,
)


def _random_runs(rng: random.Random) -> list[tuple[int, int]]:
    """Up to six runs, the first one of zero width now and then."""
    runs = [(rng.randrange(10), rng.randint(1, 5)) for _ in range(rng.randrange(7))]
    if rng.random() < 0.25:
        runs.insert(0, (rng.randrange(10), 0))
    return runs


def _as_dyadic(rng: random.Random, runs):
    return [(Dyadic(v, rng.randrange(4)), Dyadic(w, rng.randrange(4))) for v, w in runs]


@pytest.mark.parametrize("kind", ["int", "dyadic"])
def test_run_excess_matches_reference_on_random_runs(kind):
    rng = random.Random(11_000 if kind == "int" else 12_000)
    seen = {"witness": 0, "none": 0, "empty side": 0, "zero width": 0, "unequal": 0}
    for _ in range(3000):
        lhs, rhs = _random_runs(rng), _random_runs(rng)
        if kind == "dyadic":
            lhs, rhs = _as_dyadic(rng, lhs), _as_dyadic(rng, rhs)
        got = run_excess(lhs, rhs)
        assert repr(got) == repr(reference_run_excess(lhs, rhs)), (lhs, rhs)
        seen["witness" if got else "none"] += 1
        seen["empty side"] += not lhs or not rhs
        seen["zero width"] += any(not w for _, w in lhs + rhs)
        seen["unequal"] += sum(w for _, w in lhs) != sum(w for _, w in rhs)
    assert all(seen.values()), seen


def test_run_excess_reads_zero_width_runs_anywhere_as_nothing():
    # the reference reads a zero-width run after a side's first run as
    # holding its value over the next piece; the walk adds nothing for it
    rng = random.Random(16_000)
    for _ in range(2000):
        lhs, rhs = _random_runs(rng), _random_runs(rng)
        padded = [list(runs) for runs in (lhs, rhs)]
        for runs in padded:
            for _ in range(rng.randrange(3)):
                runs.insert(rng.randrange(len(runs) + 1), (rng.randrange(10), 0))
        assert run_excess(*padded) == run_excess(lhs, rhs) == reference_run_excess(
            [r for r in lhs if r[1]], [r for r in rhs if r[1]]
        )
    assert reference_run_excess([(5, 1), (9, 0)], [(5, 1), (0, 1)]) == (2, 14, 5)
    assert run_excess([(5, 1), (9, 0)], [(5, 1), (0, 1)]) is None


def test_run_excess_on_fixed_cases():
    assert run_excess([], []) is None
    assert run_excess([], [(1, 2)]) is None
    assert run_excess([(1, 2)], []) == (2, 2, 0)
    assert run_excess([(3, 1), (1, 1)], [(2, 2)]) == (1, 3, 2)
    assert run_excess([(2, 2)], [(3, 1), (1, 1)]) is None
    assert run_excess([(0, 0), (1, 3)], [(1, 2)]) == (3, 3, 2)


def _random_marginal(rng: random.Random):
    """A step function that is sometimes off the cell grid, off the value
    grid or above 1, with grid parameters to read it at."""
    params = GridParams(rng.randint(1, 5), rng.randint(0, 3))
    value_exp = rng.randint(0, 7)
    f = rand_stepfn(
        rng,
        max_pieces=rng.randint(1, 8),
        grid_exp=rng.randint(1, 6),
        value_exp=value_exp,
        max_value_units=(5 << value_exp) // 4,
    )
    return f, params


def _outcome(call):
    try:
        return call()
    except QuantizationError as exc:
        return "QuantizationError", str(exc)


def _hypograph_rows(units, params):
    cap, rows = params.sub_per_cell, []
    for u in units:
        full, rem = divmod(u, cap)
        row = [cap] * full + ([rem] if rem else [])
        rows.append(tuple(row + [0] * (params.side - len(row))))
    return tuple(rows)


def _error_kind(outcome):
    if outcome[0] != "QuantizationError":
        return None
    text = outcome[1]
    if text.startswith("breakpoint"):
        return "breakpoint"
    return "range" if "outside" in text else "value grid"


def test_initial_set_reads_the_reference_cells():
    rng = random.Random(13_000)
    kinds = set()
    for _ in range(1500):
        g, params = _random_marginal(rng)
        nk = params.depth + params.subres
        got = _outcome(lambda: initial_set(g, params).fill)
        want = _outcome(
            lambda: _hypograph_rows(reference_cell_units(g, params.depth, nk), params)
        )
        assert got == want, (g, params)
        kinds.add(_error_kind(got))
    assert kinds == {None, "breakpoint", "range", "value grid"}


def test_cell_units_match_the_reference_walk():
    rng = random.Random(17_000)
    for _ in range(1500):
        f, params = _random_marginal(rng)
        exp = params.depth + params.subres
        for bounded in (True, False):
            got = _outcome(lambda: _cell_units(f, params.depth, exp, bounded))
            want = _outcome(lambda: reference_cell_units(f, params.depth, exp, bounded))
            assert got == want, (f, params, bounded)


def test_work_scales_f_like_the_reference():
    rng = random.Random(14_000)
    errors = 0
    for _ in range(1500):
        f, params = _random_marginal(rng)
        fill = [[0] * params.side for _ in range(params.side)]

        def want():
            vals = reference_plateau_values(f, params.depth)
            d = max([params.depth + params.subres] + [v.exp for v in vals])
            return d, reference_cell_units(f, params.depth, d, bounded=False)

        def got():
            work = _Work(params, fill, f)
            return work.D, work.fcol

        result = _outcome(got)
        assert result == _outcome(want), (f, params)
        errors += result[0] == "QuantizationError"
    assert 0 < errors < 1500


def test_discrete_exact_set_reads_the_reference_cells():
    rng = random.Random(15_000)
    found = 0
    for _ in range(600):
        params = GridParams(rng.randint(1, 4), rng.randint(0, 2))
        n, side = params.depth, params.side
        if rng.random() < 0.6:
            # margins of a random 0/1 matrix, so realizable
            a = [[int(rng.random() < 0.5) for _ in range(side)] for _ in range(side)]
            f = _grid_fn([sum(col) for col in zip(*a)], n)
            g = _grid_fn([sum(row) for row in a], n)
        else:
            (f, _), (g, _) = _random_marginal(rng), _random_marginal(rng)

        def want():
            cols = reference_cell_units(f, n, n)
            rows = reference_cell_units(g, n, n)
            return rows, cols

        margins = _outcome(want)
        expected = None
        if margins[0] != "QuantizationError":
            a = realize_exact_margins(*margins)
            if a is not None:
                cap = params.sub_per_cell
                expected = tuple(tuple(cap * x for x in row) for row in a.entries)
        got = discrete_exact_set(f, g, params)
        assert (got and got.fill) == expected, (f, g, params)
        found += expected is not None
    assert 100 < found < 600


def _grid_fn(counts, depth):
    return StepFunction.from_grid([Dyadic(c, depth) for c in counts], depth)


def test_l1_distance_matches_reference_on_random_pairs():
    rng = random.Random(17_000)
    seen = {"zero": 0, "equal scales": 0, "unequal scales": 0, "one plateau": 0}
    for _ in range(5000):
        f, g = (
            rand_stepfn(rng, rng.randint(1, 12), rng.randint(1, 7), rng.randint(0, 6), rng.randint(1, 80))
            for _ in range(2)
        )
        if rng.random() < 0.05:
            g = f
        got = l1_distance(f, g)
        assert got == reference_l1_distance(f, g) == l1_distance(g, f), (f, g)
        seen["zero"] += not got
        exps = {max(b.exp for b in h.breakpoints) for h in (f, g)}
        seen["equal scales" if len(exps) == 1 else "unequal scales"] += 1
        seen["one plateau"] += len(f.values) == 1 or len(g.values) == 1
    assert all(seen.values()), seen


def test_vertical_section_matches_reference_on_random_sets():
    rng = random.Random(18_000)
    shapes = [(n, k) for n in (1, 2, 3) for k in (0, 1, 3, 9)] + [(4, 4), (5, 0), (5, 2)]
    for n, k in shapes:
        params = GridParams(n, k)
        cap = params.sub_per_cell
        sets = [rand_dyadic_set(rng, params) for _ in range(4)]
        # the hypograph of a random g: long runs of equal counts
        g = [Dyadic(rng.randrange(params.sub_total + 1), n + k) for _ in range(params.side)]
        sets.append(initial_set(StepFunction.from_grid(g, n), params))
        for fill in (0, cap):  # the empty and the full grid
            sets.append(initial_set(StepFunction.constant(Dyadic(fill, k)), params))
        for e in sets:
            assert vertical_section(e) == reference_vertical_section(e), (n, k, e.fill)


def _partial_rows_set(rng: random.Random, params: GridParams) -> DyadicSet:
    """A fill whose rows hold several partial cells: each cell empty,
    full, one of three widths the set reuses (so columns repeat widths
    and neighbouring columns share heights) or any width."""
    cap = params.sub_per_cell
    pool = [rng.randint(1, max(1, cap - 1)) for _ in range(3)]
    weights = [rng.random() for _ in range(4)]

    def cell() -> int:
        kind = rng.choices(range(4), weights)[0]
        if kind == 0:
            return 0
        if kind == 1 or cap == 1:
            return cap
        return rng.choice(pool) if kind == 2 else rng.randint(1, cap - 1)

    return DyadicSet(params, tuple(tuple(cell() for _ in range(params.side)) for _ in range(params.side)))


@pytest.mark.parametrize("subres", [0, 1, 4, 9, 16])
def test_vertical_section_matches_the_sub_column_recount(subres):
    rng = random.Random(25_100 + subres)
    depths = {0: 6, 1: 6, 4: 5, 9: 4, 16: 3}[subres]
    seen = {"several partial cells in a row": 0, "repeated width in a column": 0, "full and empty": 0}
    for depth in range(1, depths + 1):
        params = GridParams(depth, subres)
        cap = params.sub_per_cell
        for _ in range(6 if subres < 16 else 2):
            e = _partial_rows_set(rng, params)
            want = StepFunction.from_grid(sub_counts(e.fill, cap), depth + subres, depth)
            assert vertical_section(e) == want, (depth, subres, e.fill)
            seen["several partial cells in a row"] += any(sum(0 < w < cap for w in row) > 1 for row in e.fill)
            seen["repeated width in a column"] += any(
                len(ws) > len(set(ws)) for ws in ([w for w in col if 0 < w < cap] for col in zip(*e.fill))
            )
            seen["full and empty"] += any(cap in row and 0 in row for row in e.fill)
    if subres:
        assert all(seen.values()), seen
