"""Prefix dominance as threshold slack, the fact and its packed fields.

With Phi_x(c) = sum_i (x_i - c)^+, the sorted prefix sums of an integer
vector v bound those of f exactly when Phi_f(c) <= Phi_v(c) at every
integer c from 0 to the largest value v may take.  gridset._Work holds
Phi_v(c) * 2**shift - Phi_f(c) for each height c, biased, one field per
height in one int (matrices._ThresholdSlack).  The first test checks the fact without the engine;
the others run the fields where they sit at an edge: f above 1, so that
the top field is negative, f on a value grid much finer than the cells,
so that shift is large, the smallest grid, and states that do not
dominate f.  Every decode must equal the recount, every probe the
whole-section recount, and no field may reach its guard bit.  Then the
grid's slack and matrices.swap_construct's must be one slack where the
two problems meet, the one-pass slack change must equal the former
per-height build at its edges, and the staircase must fit its fields
when the totals are far below the top height.
"""

from __future__ import annotations

import copy
import random
from collections import Counter
from fractions import Fraction

import pytest

from conftest import rand_shaped_set
from crosscut import GridParams, Partition, StepFunction, swap_construct
from crosscut.dyadic import Dyadic
from crosscut.feasibility import counts_above, run_excess
from crosscut.gridset import SwapMove, _Work
from crosscut.matrices import _ColumnSums, _ThresholdSlack, _phi
from reference_search import (
    cell_grid,
    dominance_after_by_recount,
    recounted_section,
    recounted_slack,
    section_dominates,
    section_runs,
    slack_change_by_heights,
)


def _runs(values) -> list:
    return sorted(Counter(values).items(), reverse=True)


def test_thresholds_at_integer_heights_decide_dominance():
    # v integer in 0..top, f rational on one common length; run_excess
    # compares the two sorted prefix integrals at every run end
    rng = random.Random(83_000)
    seen = Counter()
    for _ in range(3_000):
        n, top, den = rng.randint(1, 7), rng.randint(0, 5), rng.randint(1, 9)
        v = [rng.randint(0, top) for _ in range(n)]
        if rng.random() < 0.5:
            f = [Fraction(rng.randint(0, (top + 1) * den), den) for _ in range(n)]
        else:
            # a smoothing of v less a little: often dominated, often just not
            mean = Fraction(sum(v), n)
            f = [max(mean + Fraction(rng.randint(-2 * den, den), den) * (x - mean), Fraction(0)) for x in v]

        def phi(xs, c):
            return sum(x - c for x in xs if x > c)

        threshold = all(phi(f, c) <= phi(v, c) for c in range(top + 1))
        assert threshold == (run_excess(_runs(f), _runs(v)) is None), (v, f)
        seen[threshold] += 1
    assert seen[True] > 500 and seen[False] > 500, seen


def _check_state(work: _Work) -> bool:
    """The decoded slack is the recount, no guard bit is set, and the flag
    says whether the section dominates f; returns that."""
    slack = work.thresholds.slack
    cells = cell_grid(work)
    runs = section_runs(cells, work.subs)
    assert Counter(recounted_section(cells, work.subs)) == runs
    assert slack == recounted_slack(work, runs)
    assert work.thresholds.fields & (work.thresholds.signs << 1) == 0
    dominated = min(slack) >= 0
    assert work.dominated == dominated == section_dominates(work, runs)
    return dominated


def _check_probes(work: _Work) -> Counter:
    """Every move of every generation: the probe is the recount's answer
    and leaves the fields as they were."""
    fields, seen = work.thresholds.fields, Counter()
    for gen in range(1, work.N + 1):
        top = 1 << gen
        for band in range(1, top + 1):
            for j in range(1, top + 1):
                for k in range(1, top + 1):
                    if j != k:
                        move = SwapMove(gen, band, j, k)
                        keeps = work._dominance_after(move) is not None
                        assert keeps == dominance_after_by_recount(work, move), move
                        assert work.thresholds.fields == fields
                        seen[keeps] += 1
    return seen


def _fine(rng: random.Random, params: GridParams, extra: int, scale: int) -> StepFunction:
    """f per column on the value grid 2**-(N + K + extra), up to scale."""
    exp = params.depth + params.subres + extra
    values = [Dyadic(rng.randrange(scale << exp), exp) for _ in range(params.side)]
    return StepFunction.from_grid(values, params.depth)


def _cases():
    """(name, params, fill, f): targets above 1, on a fine value grid,
    the mean of the set (always dominated) on a fine grid, the smallest
    grid, and random targets of the cell grid."""
    rng = random.Random(89_000)
    for i in range(6):
        params = GridParams(rng.randint(1, 3), rng.randint(0, 2))
        e = rand_shaped_set(rng, params)
        exp = 2 * params.depth + params.subres + 9
        mean = e.measure() - Dyadic(rng.randint(1, 3), exp)
        yield f"above_one_{i}", params, e.fill, _fine(rng, params, 0, 2)
        yield f"fine_values_{i}", params, e.fill, _fine(rng, params, 11, 1)
        yield f"fine_mean_{i}", params, e.fill, StepFunction.constant(mean)
        yield f"random_{i}", params, e.fill, _fine(rng, params, 0, 1)
    fills = (((0, 0), (1, 0)), ((1, 0), (1, 0)), ((1, 1), (1, 0)), ((0, 1), (1, 0)))
    targets = ((Dyadic(1), Dyadic(0)), (Dyadic(1, 1), Dyadic(1, 1)), (Dyadic(3, 1), Dyadic(0)))
    for i, (fill, f) in enumerate((fill, f) for fill in fills for f in targets):
        yield f"n1_k0_{i}", GridParams(1, 0), fill, StepFunction.from_grid(list(f), 1)


CASES = list(_cases())


@pytest.mark.parametrize("name, params, fill, f", CASES, ids=[case[0] for case in CASES])
def test_packed_slack_at_its_extremes(name, params, fill, f):
    rng = random.Random(name)
    work = _Work(params, fill, f)
    if name.startswith("above_one") and max(f.values) > Dyadic(1):
        # no section reaches above the square, so the top field is negative
        assert work.thresholds.slack[-1] < 0 and not work.dominated
    if name.startswith("fine"):
        assert work.shift > params.subres + 8
    if name.startswith("fine_mean"):
        assert work.dominated
    probes = Counter()
    for _ in range(8):
        _check_state(work)
        probes += _check_probes(work)
        # an arbitrary move, kept or not by dominance, then the same checks
        gen = rng.randint(1, params.depth)
        top = 1 << gen
        j, k = rng.sample(range(1, top + 1), 2)
        work.apply(SwapMove(gen, rng.randint(1, top), j, k))
    _check_state(work)
    assert probes[True] + probes[False] > 0


def test_the_cases_reach_every_edge():
    seen = Counter()
    for name, params, fill, f in CASES:
        work = _Work(params, fill, f)
        seen["negative_top"] += work.thresholds.slack[-1] < 0
        seen["undominated"] += not work.dominated
        seen["dominated"] += work.dominated
        seen["large_shift"] += work.shift > 10
        seen["n1_k0"] += params == GridParams(1, 0)
    assert min(seen.values()) > 2, seen


def _unit_move(a: int, b: int) -> dict[int, int]:
    """The change of the number of entries per height when an entry at
    height a falls by one and one at height b rises by one."""
    heights: dict[int, int] = {}
    for h, n in ((a, -1), (a - 1, 1), (b, -1), (b + 1, 1)):
        heights[h] = heights.get(h, 0) + n
    return heights


def _window(slack, lo: int, hi: int) -> int:
    """The packed change of the slack by +1 at each height lo .. hi - 1,
    field by field: the window _ColumnSums.try_move cuts from ones."""
    return sum(1 << slack.width * c for c in range(lo, hi))


def test_one_slack_for_both_engines(monkeypatch):
    # at K=0 with f on whole cells, shift is 0 and the hypograph's column
    # heights are the conjugate of p, g's band values in cells.  The slack
    # _Work.hypograph builds for f is then the one swap_construct builds
    # for p and q = f's cells, field for field, and a move of one cell
    # from a column of height a to one of height b, as the grid's heights
    # or as the matrix's window, asks holds() the same question
    built = []
    init = _ColumnSums.__init__

    def recorded(self, cols, q, nrows):
        init(self, cols, q, nrows)
        built.append(copy.copy(self.thresholds))

    monkeypatch.setattr(_ColumnSums, "__init__", recorded)
    rng = random.Random(97_000)
    seen = Counter()
    for _ in range(120):
        n = rng.randint(1, 4)
        side = 1 << n
        bands = [rng.randint(0, side) for _ in range(side)]
        q = sorted(counts_above(bands, side), reverse=True)
        for _ in range(rng.randint(0, 3 * side)):
            # a transfer from a part to one at least two smaller keeps q
            # dominated by the column heights
            i, j = sorted(rng.sample(range(side), 2))
            if q[i] >= q[j] + 2:
                q[i] -= 1
                q[j] += 1
                q.sort(reverse=True)
        f_cells = rng.sample(q, side)
        g = StepFunction.from_grid([Dyadic(u, n) for u in bands], n)
        f = StepFunction.from_grid([Dyadic(u, n) for u in f_cells], n)
        work = _Work.hypograph(GridParams(n, 0), g, f)
        built.clear()
        swap_construct(Partition(tuple(bands)), Partition(tuple(q)))
        grid, matrix = work.thresholds, built[0]
        assert (grid.shift, grid.top) == (0, side)
        assert vars(grid) == vars(matrix), (bands, q)
        assert grid.slack == matrix.slack and grid.holds() == matrix.holds() == work.dominated
        for a in range(1, side + 1):
            for b in range(side):
                delta = _window(matrix, a, b + 1) - _window(matrix, b + 1, a)
                assert grid.change(_unit_move(a, b)) == delta, (bands, q, a, b)
                assert grid.holds(delta) == matrix.holds(delta)
                seen[matrix.holds(delta)] += 1
    assert seen[True] > 1_000 and seen[False] > 1_000, seen


def _moved(rng: random.Random, top: int, moves: int) -> dict[int, int]:
    """A change of the number of entries per height that keeps their
    number and total: n entries rise from a to a + e and n others fall
    from b to b - e, moves times, with zero counts among the keys and the
    keys in a random order."""
    heights: Counter = Counter()
    for _ in range(moves):
        e = rng.randint(1, top)
        a, b = rng.randint(0, top - e), rng.randint(e, top)
        n = rng.randint(1, 4)
        for h, m in ((a, -n), (a + e, n), (b, -n), (b - e, n)):
            heights[h] += m
    for h in rng.sample(range(top + 1), min(3, top + 1)):
        heights[h] += 0
    items = list(heights.items())
    rng.shuffle(items)
    return dict(items)


def test_one_pass_slack_change_at_its_edges():
    # the slack change is one piece per gap between changed heights; it
    # must equal the former build, one staircase copy per changed height,
    # and decode to sum_h n_h (h - c)^+ << shift added to each slack: with
    # no heights, zero counts only, a change at height 0 and at top, keys
    # in any order, and shift 0 or not
    rng = random.Random(113_000)
    seen = Counter()
    for _ in range(400):
        top, shift = rng.randint(1, 40), rng.choice((0, 0, 1, 5, 13))
        values = [rng.randint(0, top) for _ in range(rng.randint(1, 30))]
        phi = _phi(values, top)
        slack = _ThresholdSlack(phi, [0] * (top + 1), shift)
        cases = [
            {},
            {h: 0 for h in rng.sample(range(top + 1), min(4, top + 1))},
            # one entry from 1 to 0 and one from top - 1 to top
            {0: 1, 1: -1, top - 1: -1, top: 1} if top > 2 else {},
            _moved(rng, top, rng.randint(1, 4)),
        ]
        for heights in cases:
            delta = slack.change(heights)
            assert delta == slack_change_by_heights(slack, heights), (top, shift, heights)
            # the fields decode to the changed slack wherever it stays a
            # biased digit
            want = [(p + sum(n * (h - c) for h, n in heights.items() if h > c)) << shift for c, p in enumerate(phi)]
            if 0 <= min(want) and max(want) < 1 << (slack.width - 2):
                fields = slack.fields
                slack.fields += delta
                assert slack.slack == want, (top, shift, heights)
                slack.fields = fields
                seen["decoded"] += 1
            seen["empty" if not any(heights.values()) else "moved"] += 1
            seen["ends"] += bool(heights.get(0)) and bool(heights.get(top))
    assert min(seen.values()) > 100, seen


def test_the_staircase_fits_its_fields_when_the_totals_are_small():
    # four full cells in column 1 of a 32 x 32 grid and f two cells in
    # each of columns 1 and 2: the totals are 4, below the top height 32.
    # With fields two bits wider than the totals alone need, the staircase
    # of heights 32 .. 0 overran its fields, so the probe of the move of
    # one cell, whose change spans the heights 4, 3, 1 and 0, rejected it,
    # and apply left a wrong slack
    params = GridParams(5, 0)
    fill = [[0] * 32 for _ in range(32)]
    for band in range(4):
        fill[band][0] = 1
    f = StepFunction.from_grid([Dyadic(2, 5)] * 2 + [Dyadic(0)] * 30, 5)
    work = _Work(params, tuple(map(tuple, fill)), f)
    move = SwapMove(5, 1, 1, 2)
    assert work.thresholds.top == 32 and work.dominated
    assert dominance_after_by_recount(work, move)
    assert work._dominance_after(move) is not None and work.swappable(move)
    # every move out of column 1 in the bands that hold its cells: bands
    # 1-4 at generation 5, bands 1-2 (two rows each) at generation 4
    for gen, bands in ((5, range(1, 5)), (4, range(1, 3))):
        for band in bands:
            for k in range(2, (1 << gen) + 1):
                other = SwapMove(gen, band, 1, k)
                keeps = work._dominance_after(other) is not None
                assert keeps == dominance_after_by_recount(work, other), other
    work.apply(move)
    _check_state(work)
