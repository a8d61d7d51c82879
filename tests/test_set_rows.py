"""The set held as rows from the engine to the image file and back, and
the step functions built without the checked constructor.

The fill grid is a view built on first access: reconstruct, the image
writer and reader, both sections, l1_distance and the CLI's realize-set
and verify must never build it, nor build a set through the per-cell
check.  quantize and both sections build canonical step functions by
construction, so they must make no call of StepFunction.__post_init__,
and their results must equal what the checked constructor makes of the
same breakpoints and values.
"""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from crosscut import cli
from crosscut.dyadic import Dyadic
from crosscut.gridset import DyadicSet, GridParams, horizontal_section, reconstruct, vertical_section
from crosscut.ingest import RawMarginal, parse_marginal_text, quantize
from crosscut.netpbm import set_from_image, set_to_image
from crosscut.stepfn import StepFunction, l1_distance


def _ramp_rows(steps: int) -> list[tuple[Fraction, Fraction]]:
    return [(Fraction(j, steps), (1 - Fraction(2 * j + 1, 2 * steps)) / 2) for j in range(steps)]


def _ramp(steps: int, params: GridParams) -> StepFunction:
    rows = _ramp_rows(steps)
    return quantize(RawMarginal(tuple(b for b, _ in rows), tuple(v for _, v in rows)), params)[0]


@pytest.fixture
def counted(monkeypatch):
    """Counts of fill views built and of sets made through the per-cell
    check."""
    calls = {"fill": 0, "check": 0}
    cells, init = DyadicSet._cells, DyadicSet.__init__

    def counted_cells(self):
        calls["fill"] += 1
        return cells(self)

    def counted_init(self, params, fill):
        calls["check"] += 1
        init(self, params, fill)

    monkeypatch.setattr(DyadicSet, "_cells", counted_cells)
    monkeypatch.setattr(DyadicSet, "__init__", counted_init)
    return calls


def test_the_row_path_builds_no_grid(counted):
    params = GridParams(8, 4)
    f = _ramp(256, params)
    e, summary = reconstruct(f, f, params)
    text = set_to_image(e)
    back = set_from_image(text)
    v, h = vertical_section(back), horizontal_section(back)
    assert h == f and back == e and str(l1_distance(f, v)) == str(summary.final_residual)
    assert counted == {"fill": 0, "check": 0}
    # the view is built once on first access and kept
    assert back.fill is back.fill and len(back.fill) == 256
    assert counted == {"fill": 1, "check": 0}


def test_realize_set_and_verify_build_no_grid(counted, tmp_path, capsys):
    ramp = tmp_path / "ramp.csv"
    ramp.write_text("breakpoint,value\n" + "".join(f"{b},{v}\n" for b, v in _ramp_rows(256)))
    out = tmp_path / "set.pgm"
    assert cli.main(["realize-set", str(ramp), str(ramp), "-N", "8", "-K", "4", "-o", str(out), "--svg", str(tmp_path / "s.svg")]) == 0
    assert cli.main(["verify", str(out), str(ramp), str(ramp)]) == 0
    assert "horizontal section equals quantized g: True" in capsys.readouterr().out
    assert counted == {"fill": 0, "check": 0}


@pytest.fixture
def checks(monkeypatch):
    """The number of StepFunction.__post_init__ calls."""
    calls = [0]
    post_init = StepFunction.__post_init__

    def counted(self):
        calls[0] += 1
        post_init(self)

    monkeypatch.setattr(StepFunction, "__post_init__", counted)
    return calls


def _checked(fn: StepFunction) -> StepFunction:
    """The same breakpoints and values through the checked constructor."""
    return StepFunction(fn.breakpoints, fn.values)


def _split_cells_text(rng: random.Random, depth: int, per_cell: int) -> str:
    cells = 1 << depth
    rows = []
    for j in range(cells):
        for i in range(per_cell):
            b = Fraction(j, cells) + Fraction(i, cells * per_cell)
            rows.append(f"{b},{Fraction(rng.randrange(0, 9), rng.randint(1, 7))}\n")
    return "breakpoint,value\n" + "".join(rows)


def test_quantize_and_sections_make_no_checked_step_function(checks):
    rng = random.Random(26)
    params = GridParams(6, 4)
    for _ in range(20):
        raw = parse_marginal_text(_split_cells_text(rng, 6, 5), "csv")
        assert len(raw.breakpoints) == 320
        start = checks[0]
        fq, _ = quantize(raw, params)
        assert checks[0] == start
        assert fq == _checked(fq) and (fq.breakpoints, fq.values) == (_checked(fq).breakpoints, _checked(fq).values)
    for _ in range(20):
        side, cap = params.side, params.sub_per_cell
        fill = tuple(tuple(rng.choice((0, cap, rng.randint(0, cap))) for _ in range(side)) for _ in range(side))
        e = set_from_image(set_to_image(DyadicSet(params, fill)))
        start = checks[0]
        v, h = vertical_section(e), horizontal_section(e)
        assert checks[0] == start
        for fn in (v, h):
            checked = _checked(fn)
            assert fn == checked and (fn.breakpoints, fn.values) == (checked.breakpoints, checked.values)


def test_from_grid_still_refuses_a_negative_value():
    with pytest.raises(ValueError, match="values must be nonnegative"):
        StepFunction.from_grid([3, -1], 1, 2)
    with pytest.raises(ValueError, match="values must be nonnegative"):
        StepFunction.from_grid([Dyadic(1), Dyadic(-1, 3)], 1)
    with pytest.raises(ValueError, match="breakpoints must be strictly increasing"):
        StepFunction((Dyadic(0), Dyadic(1, 1), Dyadic(1, 1), Dyadic(1)), (Dyadic(1), Dyadic(0), Dyadic(1)))
    assert StepFunction.from_grid([2, 2, 0, 1], 2, 3) == StepFunction(
        (Dyadic(0), Dyadic(1, 1), Dyadic(3, 2), Dyadic(1)), (Dyadic(1, 2), Dyadic(0), Dyadic(1, 3))
    )
