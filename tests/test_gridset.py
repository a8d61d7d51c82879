"""Grid sets: hypograph start, sections, swaps, and the optimizer."""

import os
import pathlib
import random
import subprocess
import sys
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from conftest import (
    fn_as_fracs,
    oracle_primitive_rearr,
    rand_dyadic_set,
    rand_feasible_pair,
    rand_grid_marginal,
)
from crosscut import (
    GridParams,
    InfeasibleInput,
    QuantizationError,
    StepFunction,
    Verdict,
    audit_trace,
    check_hlp,
    discrete_exact_set,
    reconstruct,
    vertical_section,
)
import crosscut
from crosscut.dyadic import Dyadic
from crosscut.gridset import (
    DyadicSet,
    InvariantViolation,
    MoveOutOfRange,
    ReplayState,
    SwapMove,
    _Work,
    horizontal_section,
    initial_set,
    is_swappable,
    optimize_generation,
    swap,
)
from crosscut.stepfn import distribution, l1_distance
from reference_search import exchange_cells

D = Dyadic


def test_grid_params_validation():
    with pytest.raises(ValueError):
        GridParams(0, 0)
    with pytest.raises(ValueError):
        GridParams(20, 20)
    p = GridParams(3, 2)
    assert (p.side, p.sub_per_cell, p.sub_total) == (8, 4, 32)


def test_swap_move_validation():
    with pytest.raises(ValueError):
        SwapMove(1, 1, 1, 1)  # donor == receiver
    with pytest.raises(ValueError):
        SwapMove(1, 3, 1, 2)  # band out of range for generation 1
    SwapMove(2, 4, 1, 4)


# ---------------------------------------------------------------------------
# initial set and sections


def test_initial_set_of_constant_five_sixteenths():
    e = initial_set(StepFunction.constant(D(5, 4)), GridParams(2, 2))
    assert all(row == (4, 1, 0, 0) for row in e.fill)


def test_initial_set_of_zero_and_one():
    p = GridParams(2, 2)
    empty = initial_set(StepFunction.constant(0), p)
    assert all(w == 0 for row in empty.fill for w in row)
    full = initial_set(StepFunction.constant(1), p)
    assert all(w == 4 for row in full.fill for w in row)


def test_initial_set_rejects_off_grid_inputs():
    p = GridParams(2, 1)
    with pytest.raises(QuantizationError):
        initial_set(StepFunction.constant(D(1, 4)), p)  # 1/16 below sub-unit
    with pytest.raises(QuantizationError):
        initial_set(StepFunction.constant(D(3, 1)), p)  # above 1
    with pytest.raises(QuantizationError):
        # alternating values break constancy on the width-1/4 bands
        initial_set(StepFunction.from_grid([D(j % 2, 3) for j in range(8)], 3), p)


def test_sections_of_initial_set_are_g_and_its_distribution():
    params = GridParams(3, 2)
    vals = [D(j, 3) for j in (8, 6, 5, 3, 2, 2, 1, 0)]
    g = StepFunction.from_grid(vals, 3)
    e = initial_set(g, params)
    assert horizontal_section(e) == g
    v = vertical_section(e)
    # v equals the distribution function of g at every sub-unit point
    for m in range(params.sub_total):
        x = D(m, 5)
        assert v.value_at(x) == distribution(g, x)
    assert v.integral() == g.integral() == e.measure()


def test_vertical_section_counts_each_sub_column():
    rng = random.Random(31)
    for _ in range(60):
        params = GridParams(rng.randint(1, 4), rng.randint(0, 4))
        e = rand_dyadic_set(rng, params)
        vals = [
            D(sum(1 for row in e.fill if row[j] > m), params.depth)
            for j in range(params.side)
            for m in range(params.sub_per_cell)
        ]
        assert vertical_section(e) == StepFunction.from_grid(vals, params.depth + params.subres)


def test_sections_of_empty_and_full():
    p = GridParams(2, 1)
    empty = initial_set(StepFunction.constant(0), p)
    assert vertical_section(empty) == StepFunction.constant(0)
    assert horizontal_section(empty) == StepFunction.constant(0)
    full = initial_set(StepFunction.constant(1), p)
    assert vertical_section(full) == StepFunction.constant(1)
    assert horizontal_section(full) == StepFunction.constant(1)


# ---------------------------------------------------------------------------
# swap


def test_swap_exchanges_cell_fills_at_finest_generation():
    e = initial_set(StepFunction.constant(D(5, 4)), GridParams(2, 2))
    e2 = swap(e, SwapMove(2, 1, 1, 4))
    assert e2.fill[0] == (0, 1, 0, 4)
    assert e2.fill[1] == (4, 1, 0, 0)


def test_swap_of_identical_blocks_is_identity():
    e = initial_set(StepFunction.constant(D(1, 1)), GridParams(2, 1))
    assert swap(e, SwapMove(1, 1, 1, 2)) == swap(e, SwapMove(1, 1, 2, 1))


def test_swap_block_move_preserves_layout():
    params = GridParams(2, 0)
    g = StepFunction.from_grid([D(1), D(3, 2), D(1, 2), D(0)], 2)
    e = initial_set(g, params)
    assert e.fill[0] == (1, 1, 1, 1) and e.fill[1] == (1, 1, 1, 0)
    e2 = swap(e, SwapMove(1, 1, 1, 2))
    # bottom two bands exchange their left and right 2x2 blocks
    assert e2.fill[0] == (1, 1, 1, 1)
    assert e2.fill[1] == (1, 0, 1, 1)
    assert e2.fill[2] == e.fill[2]
    assert horizontal_section(e2) == horizontal_section(e)


def test_swap_out_of_range_generation_raises():
    e = initial_set(StepFunction.constant(0), GridParams(1, 0))
    with pytest.raises(MoveOutOfRange):
        swap(e, SwapMove(2, 1, 1, 2))


# ---------------------------------------------------------------------------
# swappability: every condition re-derived from definitions


def oracle_swappable(e, f, move) -> bool:
    """Direct evaluation of the four conditions via sections and Fractions."""
    n = move.gen
    if n > e.params.depth:
        return False
    margin = Fraction(1, 1 << n)
    v = vertical_section(e)
    sub = e.params.sub_total
    lo_j, hi_j = Fraction(move.donor - 1, 1 << n), Fraction(move.donor, 1 << n)
    lo_k, hi_k = (
        Fraction(move.receiver - 1, 1 << n),
        Fraction(move.receiver, 1 << n),
    )
    for m in range(sub):
        x = Fraction(m, sub)
        vd = v.value_at(D(m, e.params.depth + e.params.subres)).to_fraction()
        fd = f.value_at(D(m, e.params.depth + e.params.subres)).to_fraction()
        if lo_j <= x < hi_j and not vd >= fd + margin:
            return False
        if lo_k <= x < hi_k and not vd <= fd - margin:
            return False
    # proper containment of the shifted receiver content in the donor's
    span = e.params.side >> n
    r0 = (move.band - 1) * span
    j0, k0 = (move.donor - 1) * span, (move.receiver - 1) * span
    strict = False
    for r in range(r0, r0 + span):
        for c in range(span):
            if e.fill[r][k0 + c] > e.fill[r][j0 + c]:
                return False
            if e.fill[r][k0 + c] < e.fill[r][j0 + c]:
                strict = True
    if not strict:
        return False
    # prefix dominance after the exchange
    after = swap(e, move)
    ft = fn_as_fracs(f)
    vt = fn_as_fracs(vertical_section(after))
    pts = sorted(
        {Fraction(m, sub) for m in range(1, sub + 1)}
    )
    for t in pts:
        if oracle_primitive_rearr(ft, t) > oracle_primitive_rearr(vt, t):
            return False
    return True


def deficit_fixture():
    params = GridParams(2, 2)
    g = StepFunction.constant(D(5, 4))
    e = initial_set(g, params)
    f = StepFunction.from_grid([D(1, 1), D(0), D(0), D(1, 1)], 2)
    return e, f, params


def test_swappable_fixture_confirmed_condition_by_condition():
    e, f, _ = deficit_fixture()
    move = SwapMove(2, 1, 1, 4)
    assert oracle_swappable(e, f, move)
    assert is_swappable(e, f, move)


def test_swappable_false_when_donor_margin_fails():
    e, f, _ = deficit_fixture()
    # donor column 2 only carries v = 1/4 there, below f + 1/4
    assert not is_swappable(e, f, SwapMove(2, 1, 2, 4))
    assert not oracle_swappable(e, f, SwapMove(2, 1, 2, 4))


def test_swappable_false_for_empty_blocks():
    e, f, _ = deficit_fixture()
    # columns 3 and 4 are both empty: proper containment fails
    assert not is_swappable(e, f, SwapMove(2, 1, 3, 4))


def test_swappable_false_beyond_grid_depth():
    e, f, _ = deficit_fixture()
    assert not is_swappable(e, f, SwapMove(3, 1, 1, 8))


@given(st.integers(0, 10_000))
@settings(max_examples=60, deadline=None)
def test_swappable_matches_oracle_on_random_sets(seed):
    rng = random.Random(seed)
    params = GridParams(2, rng.randrange(2))
    f, g = rand_feasible_pair(rng, params)
    e = initial_set(g, params)
    gen = rng.randint(1, 2)
    top = 1 << gen
    band = rng.randint(1, top)
    donor = rng.randint(1, top)
    receiver = rng.randint(1, top)
    if donor == receiver:
        return
    move = SwapMove(gen, band, donor, receiver)
    assert is_swappable(e, f, move) == oracle_swappable(e, f, move)


def test_dominance_hypothesis_raises_under_python_O():
    # a full left column against f = 1 fails prefix dominance; the check
    # must survive -O, which strips assert statements
    code = (
        "from crosscut.gridset import *\n"
        "e = DyadicSet(GridParams(1, 0), ((1, 0), (1, 0)))\n"
        "try:\n"
        "    is_swappable(e, StepFunction.constant(1), SwapMove(1, 1, 1, 2))\n"
        "except InvariantViolation:\n"
        "    raise SystemExit(0)\n"
        "raise SystemExit(1)\n"
    )
    src = str(pathlib.Path(crosscut.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run(
        [sys.executable, "-O", "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert done.returncode == 0, done.stderr


# the engine's domain: rows of full cells, at most one partial cell and
# empty cells.  Rows 1 and 2 of this N=2, K=2 fill hold two partial cells.
_TWO_PARTIAL = ((4, 1, 0, 0), (1, 4, 0, 3), (2, 0, 1, 0), (0, 0, 0, 0))
_ENGINE_CALLS = {
    "_Work": lambda e, f, move: _Work(e.params, e.fill, f),
    "ReplayState": lambda e, f, move: ReplayState(e.params, e.fill, f, ()),
    "is_swappable": lambda e, f, move: is_swappable(e, f, move),
    "optimize_generation": lambda e, f, move: optimize_generation(e, f, move.gen),
    "swap": lambda e, f, move: swap(e, move),
}


@pytest.mark.parametrize("name", sorted(_ENGINE_CALLS))
def test_engine_rejects_a_row_of_two_partial_cells(name):
    e = DyadicSet(GridParams(2, 2), _TWO_PARTIAL)
    f = StepFunction.constant(e.measure())
    with pytest.raises(ValueError, match="fill row 1 holds two partial cells"):
        _ENGINE_CALLS[name](e, f, SwapMove(1, 1, 1, 2))
    # the set and its sections stay valid
    assert vertical_section(e).integral() == horizontal_section(e).integral() == e.measure()


def test_engine_rejects_a_row_of_two_partial_cells_under_python_O():
    code = (
        "from crosscut.gridset import *\n"
        "from crosscut.gridset import _Work\n"
        f"e = DyadicSet(GridParams(2, 2), {_TWO_PARTIAL!r})\n"
        "f, move = StepFunction.constant(e.measure()), SwapMove(1, 1, 1, 2)\n"
        "calls = [lambda: _Work(e.params, e.fill, f), lambda: ReplayState(e.params, e.fill, f, ()),\n"
        "         lambda: is_swappable(e, f, move), lambda: optimize_generation(e, f, 1),\n"
        "         lambda: swap(e, move)]\n"
        "for call in calls:\n"
        "    try:\n"
        "        call()\n"
        "    except ValueError as exc:\n"
        "        if 'fill row 1 holds two partial cells' not in str(exc):\n"
        "            raise\n"
        "    else:\n"
        "        raise SystemExit(1)\n"
    )
    src = str(pathlib.Path(crosscut.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run(
        [sys.executable, "-O", "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert done.returncode == 0, done.stderr


# ---------------------------------------------------------------------------
# optimizer


def test_optimize_generation_no_swap_when_target_met():
    params = GridParams(2, 1)
    g = StepFunction.from_grid([D(1), D(1, 1), D(1, 2), D(0)], 2)
    e = initial_set(g, params)
    f = vertical_section(e)
    assert optimize_generation(e, f, 1) == e
    assert optimize_generation(e, f, 2) == e


def test_optimize_generation_single_swap_fixture():
    # two bands, g = (1, 1/2): the imbalance flips the half-filled band once
    params = GridParams(1, 0)
    g = StepFunction.from_grid([D(1), D(1, 1)], 1)
    f = StepFunction.from_grid([D(1, 1), D(1)], 1)
    e = initial_set(g, params)
    done = optimize_generation(e, f, 1)
    assert done.fill == ((1, 1), (0, 1))
    assert vertical_section(done) == f
    # a second pass finds nothing
    assert optimize_generation(done, f, 1) == done


def test_generation_loop_stops_on_a_swap_that_lowers_nothing():
    # a search that keeps handing out a no-op move must raise, not loop
    class Stuck(_Work):
        def find_first(self, gen):
            return SwapMove(1, 1, 1, 2)

    e = initial_set(StepFunction.constant(0), GridParams(1, 0))
    with pytest.raises(InvariantViolation):
        Stuck(e.params, e.fill, StepFunction.constant(0)).run_generation(1)


def _ramp_16() -> StepFunction:
    return StepFunction.from_grid([D(31 - 2 * j, 6) for j in range(16)], 4)


def test_sweep_counts_the_residual_twice(monkeypatch):
    # once when the state is built and once at the end of the sweep;
    # the generations and the summary read the carried value
    calls = []
    count = _Work.residual_units

    def counted(self):
        calls.append(self)
        return count(self)

    monkeypatch.setattr(_Work, "residual_units", counted)
    _, summary = reconstruct(_ramp_16(), _ramp_16(), GridParams(4, 4))
    assert summary.final_residual < summary.initial_residual
    assert len(calls) == 2


def test_sweep_raises_when_the_carried_residual_drifts():
    class Misreporting(_Work):
        def _write_section(self, changes, heights):
            return super()._write_section(changes, heights) + 1

    f, params = _ramp_16(), GridParams(4, 4)
    work = Misreporting(params, initial_set(f, params).fill, f)
    with pytest.raises(InvariantViolation, match="carried residual"):
        work.sweep(None)


def test_optimize_generation_validates_generation():
    e = initial_set(StepFunction.constant(0), GridParams(1, 0))
    with pytest.raises(ValueError):
        optimize_generation(e, StepFunction.constant(0), 2)


# ---------------------------------------------------------------------------
# reconstruct


def test_reconstruct_full_square():
    one = StepFunction.constant(1)
    e, summary = reconstruct(one, one, GridParams(2, 1))
    assert summary.final_residual == D(0)
    assert e.measure() == D(1)
    assert summary.initial_residual == D(0)
    assert all(g.swap_count == 0 for g in summary.generations)


def test_reconstruct_rejects_scaled_pair_before_touching_the_grid():
    two = StepFunction.constant(2)
    with pytest.raises(InfeasibleInput) as exc:
        reconstruct(two, two, GridParams(2, 1))
    rep = exc.value.report
    assert rep.verdict is Verdict.INFEASIBLE_MAJORIZATION
    assert rep.witness.point == D(1)
    assert (rep.witness.lhs, rep.witness.rhs) == (D(2), D(1))


def test_reconstruct_ramp_monotone_residuals_and_h_preserved():
    cells = 16
    vals = [D(31 - 2 * j, 6) for j in range(cells)]
    f = StepFunction.from_grid(vals, 4)
    params = GridParams(4, 4)
    e, summary = reconstruct(f, f, params)
    assert horizontal_section(e) == f
    res = [summary.initial_residual] + [g.residual_l1 for g in summary.generations]
    assert all(a >= b for a, b in zip(res, res[1:]))
    assert summary.final_residual < summary.initial_residual
    assert summary.final_residual == l1_distance(vertical_section(e), f)
    total_boundary_change = sum(
        (g.sym_diff for g in summary.generations), D(0)
    )
    assert total_boundary_change <= summary.initial_residual


def test_reconstruct_constant_quarter_against_discrete_exact_path():
    params = GridParams(2, 0)
    quarter = StepFunction.constant(D(1, 2))
    exact = discrete_exact_set(quarter, quarter, params)
    assert exact is not None
    assert l1_distance(vertical_section(exact), quarter) == D(0)
    assert horizontal_section(exact) == quarter
    e, summary = reconstruct(quarter, quarter, params)
    assert summary.final_residual <= summary.initial_residual


def test_discrete_exact_set_requires_cell_aligned_values():
    params = GridParams(2, 2)
    off = StepFunction.constant(D(5, 4))  # 5/16 is not a whole cell count
    assert discrete_exact_set(off, off, params) is None


def test_reconstruct_validates_grid_alignment():
    params = GridParams(2, 0)
    fine = StepFunction.from_grid([D(j, 3) for j in range(8)], 3)
    coarse = StepFunction.constant(fine.integral())
    with pytest.raises(QuantizationError):
        reconstruct(coarse, fine, params)


def _publicly_valid(e: DyadicSet) -> bool:
    """The set passes the public constructor's per-cell check unchanged:
    a tuple of tuples of ints, each in 0..cap."""
    return (
        DyadicSet(e.params, e.fill) == e
        and type(e.fill) is tuple
        and all(type(row) is tuple and all(type(w) is int for w in row) for row in e.fill)
    )


@pytest.mark.parametrize("subres", [0, 4, 8, 9, 16])
def test_returned_sets_pass_the_public_check(subres):
    # the engine writes its sets without DyadicSet's per-cell check; every
    # set that reconstruct, initial_set, swap, optimize_generation and
    # discrete_exact_set return must pass it, at K=8 and above as well,
    # where a cell of 2**K no longer fits in a byte, and hold the cells
    # a direct build gives
    rng = random.Random(127_000 + subres)
    seen = Counter()
    for _ in range(8):
        params = GridParams(rng.randint(1, 4 if subres < 16 else 2), subres)
        side, cap = params.side, params.sub_per_cell
        # g on the sub-unit grid, so rows hold partial cells, against the
        # constant of its integral, which is always feasible
        g = rand_grid_marginal(rng, params)
        f = StepFunction.constant(g.integral())
        e, summary = reconstruct(f, g, params)
        assert horizontal_section(e) == g
        assert l1_distance(vertical_section(e), f) == summary.final_residual
        start = initial_set(g, params)
        hypograph = [divmod(u, cap) for u, cells in g.runs(params.depth, params.depth + subres) for _ in range(cells)]
        assert start.fill == tuple((cap,) * k + (rem,) * (rem > 0) + (0,) * (side - k - (rem > 0)) for k, rem in hypograph)
        gen = rng.randint(1, params.depth)
        top = 1 << gen
        j, k = rng.sample(range(1, top + 1), 2)
        move = SwapMove(gen, rng.randint(1, top), j, k)
        moved = swap(start, move)
        cells = [list(row) for row in start.fill]
        exchange_cells(cells, move)
        assert moved.fill == tuple(map(tuple, cells))
        optimized = optimize_generation(start, f, gen)
        assert horizontal_section(optimized) == g
        # whole cells: the column counts of a hypograph with its rows shuffled
        counts = [rng.randint(0, side) for _ in range(side)]
        rows = [[1] * c + [0] * (side - c) for c in counts]
        for row in rows:
            rng.shuffle(row)
        cols = StepFunction.from_grid([D(sum(col), params.depth) for col in zip(*rows)], params.depth)
        exact = discrete_exact_set(cols, StepFunction.from_grid([D(c, params.depth) for c in counts], params.depth), params)
        assert vertical_section(exact) == cols and all(w in (0, cap) for row in exact.fill for w in row)
        for got in (e, start, moved, optimized, exact):
            assert _publicly_valid(got), params
            seen["sets"] += 1
            seen["partial cells"] += sum(0 < w < params.sub_per_cell for row in got.fill for w in row)
    # K=0 has whole cells only
    assert seen["sets"] == 40 and (seen["partial cells"] > 20 or subres == 0), seen


def test_the_public_constructor_still_checks_every_cell():
    for subres in (3, 8):
        params = GridParams(2, subres)
        cap = params.sub_per_cell
        good = ((cap, 1, 0, 0),) * 4
        assert DyadicSet(params, good).fill == good
        for row, what in (
            ((cap + 1, 0, 0, 0), f"cell fill {cap + 1} outside 0..{cap}"),
            ((cap, 1.0, 0, 0), f"cell fill 1.0 outside 0..{cap}"),
            ((cap, -1, 0, 0), f"cell fill -1 outside 0..{cap}"),
            ((cap, 1, 0), "fill grid has wrong number of columns"),
        ):
            with pytest.raises(ValueError, match=what):
                DyadicSet(params, (row,) + good[1:])
        with pytest.raises(ValueError, match="fill grid has wrong number of bands"):
            DyadicSet(params, good[1:])


# ---------------------------------------------------------------------------
# invariants on random runs


def test_reconstruct_invariants_on_random_feasible_pairs():
    rng = random.Random(20260810)
    for trial in range(25):
        params = GridParams(rng.randint(1, 3), rng.randint(0, 2))
        f, g = rand_feasible_pair(rng, params)
        e, summary = reconstruct(f, g, params)
        assert horizontal_section(e) == g
        res = [summary.initial_residual] + [
            gen.residual_l1 for gen in summary.generations
        ]
        assert all(a >= b for a, b in zip(res, res[1:]))
        assert sum((gen.sym_diff for gen in summary.generations), D(0)) <= res[0]
        if any(gen.swap_count for gen in summary.generations):
            assert summary.final_residual < summary.initial_residual
        audit = audit_trace(summary, f, g, params)
        assert audit.ok, audit.violation


def test_cross_sections_of_any_set_are_always_feasible():
    rng = random.Random(5)
    for _ in range(120):
        params = GridParams(rng.randint(1, 3), rng.randint(0, 3))
        e = rand_dyadic_set(rng, params)
        v, h = vertical_section(e), horizontal_section(e)
        assert v.integral() == h.integral() == e.measure()
        assert check_hlp(v, h).feasible
