"""Swap bookkeeping that follows the moved cells, probe by probe.

gridset._Work reads a swap's section change off the exchanged cells and
tests prefix dominance on its threshold slack, one packed field per
height, to which a move adds its change at once.  matrices.swap_construct
holds the same packed slack over the heights of its column sums, and a
move adds the window of unit changes that the two sums it moves between
index.  Every probe here is compared with a whole-section test: the
recount of tests/reference_search.py, or prefix_excess on the sorted
candidate sums; every decode with a recount of Phi(c) = sum (x - c)^+.
"""

from __future__ import annotations

import random
from collections import Counter

import pytest

from conftest import rand_feasible_pair, rand_shaped_set
from crosscut import GridParams, Partition, StepFunction, audit_trace, reconstruct
from crosscut.dyadic import Dyadic
from crosscut.feasibility import counts_above, prefix_excess
from crosscut.gridset import SwapMove, _Work, optimize_generation
from crosscut.matrices import _ColumnSums, col_sums, row_sums, swap_construct
from reference_search import (
    dominance_after_by_recount,
    recounted_columns,
    recounted_slack,
    section_dominates,
)
from test_matrix_reference import _random_margins
from test_search_state import _ramp
from test_search_reference import _targets


def _check_engine(monkeypatch) -> Counter:
    """Wraps the engine's probe and apply: every probe must agree with the
    whole-section recount, and every apply must leave the section, every
    field of the packed slack and the dominance flag that a recount
    gives."""
    log: Counter = Counter()
    probe, apply = _Work._dominance_after, _Work.apply

    def checked_probe(self, move):
        change = probe(self, move)
        ok = change is not None
        assert ok == dominance_after_by_recount(self, move), move
        log["probes"] += 1
        log["rejected"] += not ok
        log["undominated"] += not self.dominated
        return change

    def checked_apply(self, move):
        rec = apply(self, move)
        assert self.vu == recounted_columns(self, self.vu, range(self.side)), move
        assert self.thresholds.slack == recounted_slack(self), move
        assert self.thresholds.fields & (self.thresholds.signs << 1) == 0, move
        assert self.dominated == section_dominates(self, self.vu), move
        log["applies"] += 1
        return rec

    monkeypatch.setattr(_Work, "_dominance_after", checked_probe)
    monkeypatch.setattr(_Work, "apply", checked_apply)
    return log


def test_window_matches_recount_on_random_pairs(monkeypatch):
    log = _check_engine(monkeypatch)
    for seed in range(210):
        rng = random.Random(61_000 + seed)
        params = GridParams(rng.randint(1, 5), rng.randint(0, 3))
        f, g = rand_feasible_pair(rng, params)
        _, summary = reconstruct(f, g, params)
        assert audit_trace(summary, f, g, params).ok, seed
    assert log["rejected"] > 0 and log["applies"] > 0
    assert log["probes"] > log["rejected"]


def test_window_matches_recount_on_ramp_n7(monkeypatch):
    log = _check_engine(monkeypatch)
    f, g, params = _ramp(7)
    _, summary = reconstruct(f, g, params)
    assert audit_trace(summary, f, g, params).ok
    assert len(summary.swaps) == 138
    # each swap is applied once by the search and once by the replay;
    # no probe of the ramp is rejected, the random pairs have some
    assert log["applies"] == 2 * 138
    assert log["probes"] == 138 and log["rejected"] == 0


def test_whole_order_matches_recount_on_arbitrary_sets(monkeypatch):
    # random targets that the set's section need not dominate: the engine
    # reads every field of the slack, dominated or not
    log = _check_engine(monkeypatch)
    for seed in range(20):
        rng = random.Random(67_000 + seed)
        params = GridParams(rng.randint(1, 3), rng.randint(1, 2))
        e = rand_shaped_set(rng, params)
        for f in _targets(rng, e):
            for gen in range(1, params.depth + 1):
                optimize_generation(e, f, gen)
    assert log["undominated"] > 0


def test_a_state_that_does_not_dominate_tests_the_whole_order():
    # N=2, K=0, column heights (3, 2, 1, 0) against f = (4, 1, 0, 1)
    # cells: f's prefix sum leads only at position 1.  Moving band 1's
    # cell from column 3 to column 4 meets both margins and lowers the
    # residual, but only swaps the heights 1 and 0, whose window holds no
    # height strictly between them, so a window test alone would accept
    # it.  The probe reads every field of the slack, so forcing the flag
    # changes nothing.
    params = GridParams(2, 0)
    f = StepFunction.from_grid([Dyadic(1), Dyadic(1, 2), Dyadic(0), Dyadic(1, 2)], 2)
    fill = ((1, 1, 1, 0), (1, 1, 0, 0), (1, 0, 0, 0), (0, 0, 0, 0))
    work = _Work(params, fill, f)
    move = SwapMove(2, 1, 3, 4)
    assert not work.dominated
    assert work._donor_ok(2, 3) and work._receiver_ok(2, 4) and work._proper_subset(2, 1, 3, 4)
    assert not dominance_after_by_recount(work, move)
    assert not work._dominance_after(move)
    assert min(work.thresholds.slack) < 0
    work.dominated = True
    assert not work._dominance_after(move)


def test_dominance_fails_inside_a_run_of_equal_heights():
    # N=1, K=0: column 1 is two cells tall, column 2 empty, f = (1, 0),
    # so the section equals f.  Moving band 1's cell to column 2 leaves
    # heights (1/2, 1/2).  At the two ends of that single height run the
    # prefix sums agree (0 and 1 on both sides); at 1/2, the end of f's
    # first run, f's is 1/2 and the section's 1/4.
    params = GridParams(1, 0)
    f = StepFunction.from_grid([Dyadic(1), Dyadic(0)], 1)
    work = _Work(params, ((1, 0), (1, 0)), f)
    move = SwapMove(1, 1, 1, 2)
    assert work.dominated
    assert not dominance_after_by_recount(work, move)
    assert not work._dominance_after(move)
    # the probe changed nothing
    assert work.to_set().fill == ((1, 0), (1, 0)) and work.dominated


def _recounted(cols, q, nrows: int) -> list[int]:
    """Phi_cols(c) - Phi_q(c) for c = 0..nrows, with Phi_x(c) =
    sum (x - c)^+ recounted term by term."""

    def phi(xs, c: int) -> int:
        return sum(x - c for x in xs if x > c)

    return [phi(cols, c) - phi(q, c) for c in range(nrows + 1)]


def _same_sums(sums: _ColumnSums, fresh: _ColumnSums, q) -> bool:
    """The sums, every attribute of their packed slack and its decode are
    a fresh build's, and the decode is the recount."""
    want = _recounted(sums.cols, q, sums.thresholds.top)
    return (sums.cols, vars(sums.thresholds), sums.thresholds.slack, fresh.thresholds.slack) == (
        fresh.cols, vars(fresh.thresholds), want, want
    )


def _check_sums(monkeypatch) -> tuple[Counter, list[int]]:
    """Wraps _ColumnSums.try_move: every answer must be prefix_excess on
    the sorted candidate sums against q, the returned list the caller
    fills, and every call must leave the packed slack that a fresh build
    gives, of the moved sums or of the unchanged ones, decoding to the
    recount of Phi."""
    log: Counter = Counter()
    try_move = _ColumnSums.try_move
    q: list[int] = []

    def checked_try_move(self, cj, ck):
        cand = list(self.cols)
        cand[cj] -= 1
        cand[ck] += 1
        ok = try_move(self, cj, ck)
        assert ok == (prefix_excess(q, sorted(cand, reverse=True)) is None), (cj, ck)
        assert (self.cols == cand) if ok else (self.cols != cand), (cj, ck)
        assert _same_sums(self, _ColumnSums(list(self.cols), q, self.thresholds.top), q), (cj, ck)
        assert min(self.thresholds.slack) >= 0 and self.thresholds.holds()
        log["probes"] += 1
        log["rejected"] += not ok
        return ok

    monkeypatch.setattr(_ColumnSums, "try_move", checked_try_move)
    return log, q


def test_slack_matches_prefix_excess_on_random_margins(monkeypatch):
    log, target = _check_sums(monkeypatch)
    for seed in range(400):
        p, q = _random_margins(random.Random(53_000 + seed))
        target[:] = q.parts
        swap_construct(p, q)
    assert log["probes"] > log["rejected"] > 0


def test_slack_matches_prefix_excess_on_random_states():
    # swap_construct's own moves run from a sum at least two above the
    # receiver's; these states also move between sums at most one apart,
    # and toward a larger sum
    rng = random.Random(71)
    near = 0
    for _ in range(300):
        n = rng.randint(2, 8)
        cols = [rng.randint(0, 6) for _ in range(n)]
        q = sorted(cols, reverse=True)
        for _ in range(rng.randint(0, 6)):
            # a transfer from a larger part to one at least two smaller
            # keeps q dominated by the sorted sums
            i, j = sorted(rng.sample(range(n), 2))
            if q[i] >= q[j] + 2:
                q[i] -= 1
                q[j] += 1
                q.sort(reverse=True)
        for cj in range(n):
            for ck in range(n):
                if cj == ck or cols[cj] == 0 or cols[ck] == 6:
                    continue
                cand = list(cols)
                cand[cj] -= 1
                cand[ck] += 1
                sums = _ColumnSums(list(cols), q, 6)
                want = prefix_excess(q, sorted(cand, reverse=True)) is None
                assert sums.try_move(cj, ck) == want, (cols, q, cj, ck)
                near += cols[cj] <= cols[ck] + 1
                # a refused move changes nothing
                fresh = _ColumnSums(cand if want else list(cols), q, 6)
                assert _same_sums(sums, fresh, q), (cols, q, cj, ck)
    assert near > 0


def test_slack_rejects_a_move_between_sums_two_apart():
    # sums (2, 0) against q = (2, 0): Phi is (2, 1, 0) on both sides.
    # Moving a 1 from the first column to the second gives (1, 1), whose
    # Phi (2, 0, 0) falls below q's at height 1, as its first prefix sum
    # 1 falls below 2
    sums = _ColumnSums([2, 0], (2, 0), 2)
    assert sums.thresholds.slack == [0, 0, 0]
    assert sums.thresholds.window(1, 2) == 1 << sums.thresholds.width
    assert not sums.try_move(0, 1)
    assert sums.cols == [2, 0] and _same_sums(sums, _ColumnSums([2, 0], (2, 0), 2), (2, 0))


# margins whose packed slack sits at an edge: no rows, so no field beyond
# height 0; one row or one column; every cell 1 or 0; and one 1 per row
# that starts all in column 0, where slack[1] = total - 1, the largest a
# feasible pair reaches.  A field is two bits wider than the larger of the
# total and the row count needs (the row count is the top height, which
# the staircase of the slack holds in field 0), so totals 15 = 2**4 - 1
# and 16 = 2**4, each on as many rows, stand on either side of a width
# step: at 15 the digit of slack[1], 14 plus the bias 16, is 0b011110,
# clear only in its guard and its lowest bit of 6; at 16 the field grows
# to 7 bits and the digit is 15 plus the bias 32
EXTREME_MARGINS = {
    "0x0": ((), ()),
    "0x5": ((), (0,) * 5),
    "5x0": ((0,) * 5, ()),
    "1x5": ((3,), (1, 1, 1, 0, 0)),
    "5x1": ((1, 1, 1, 0, 0), (3,)),
    "all_ones": ((4,) * 3, (3,) * 4),
    "all_zero": ((0,) * 3, (0,) * 4),
    "largest_slack_15": ((1,) * 15, (1,) * 15),
    "largest_slack_16": ((1,) * 16, (1,) * 16),
}


@pytest.mark.parametrize("shape", EXTREME_MARGINS)
def test_packed_slack_at_its_extremes(shape, monkeypatch):
    p, q = (Partition(parts) for parts in EXTREME_MARGINS[shape])
    nrows, ncols = len(p), len(q)
    try_move = _ColumnSums.try_move

    def check(sums):
        # the fields hold the slack of the definition, biased, equal a
        # fresh build's, and leave every guard bit clear; each try of a
        # move, made on a fresh build of these sums, is prefix_excess on
        # the sorted candidate sums
        cols, slack = list(sums.cols), sums.thresholds
        w = max(q.total, nrows).bit_length() + 2
        want = _recounted(cols, q.parts, nrows)
        assert slack.width == w and slack.top == nrows and slack.slack == want
        assert slack.fields == sum(s + (1 << w - 2) << w * c for c, s in enumerate(want))
        assert _same_sums(sums, _ColumnSums(cols, q.parts, nrows), q.parts)
        assert slack.fields & (slack.ones << (w - 1)) == 0 and slack.holds()
        for cj in range(ncols):
            for ck in range(ncols):
                if cj != ck and cols[cj] and cols[ck] < nrows:
                    cand = list(cols)
                    cand[cj] -= 1
                    cand[ck] += 1
                    keeps = prefix_excess(q.parts, sorted(cand, reverse=True)) is None
                    trial = _ColumnSums(list(cols), q.parts, nrows)
                    assert try_move(trial, cj, ck) == keeps, (cols, cj, ck)
        return want

    first = _ColumnSums(counts_above(p.parts, ncols), q.parts, nrows)
    start = check(first)
    moves = []

    def checked_try_move(self, cj, ck):
        ok = try_move(self, cj, ck)
        if ok:
            moves.append(check(self))
        return ok

    monkeypatch.setattr(_ColumnSums, "try_move", checked_try_move)
    a = swap_construct(p, q)
    assert (row_sums(a), col_sums(a)) == (p.parts, q.parts)
    if shape.startswith("largest_slack"):
        # slack[1] falls by one per move, from total - 1 to 0, and the
        # width steps between the two totals
        assert max(start) == start[1] == q.total - 1
        assert [m[1] for m in moves] == list(range(q.total - 2, -1, -1))
        digit = start[1] + (1 << first.thresholds.width - 2)
        assert (first.thresholds.width, digit) == ((6, 0b011110) if q.total == 15 else (7, 0b0101111))
    else:
        assert not moves and not any(start)


def test_packed_slack_reads_negative_fields():
    # a build on sums that do not dominate q, which swap_construct never
    # makes, holds negative slacks; slack must still read the recount of
    # Phi, there and after each move that try_move makes from there, and
    # each try is prefix_excess on the candidate sums, dominated or not
    rng = random.Random(73)
    negative = 0
    for _ in range(300):
        n, nrows = rng.randint(1, 8), rng.randint(1, 6)
        cols = [rng.randint(0, nrows) for _ in range(n)]
        q = sorted((rng.randint(0, nrows) for _ in range(n)), reverse=True)
        sums = _ColumnSums(list(cols), q, nrows)
        for _ in range(rng.randint(0, 6)):
            want = _recounted(sums.cols, q, nrows)
            assert sums.thresholds.slack == want, (sums.cols, q)
            assert sums.thresholds.holds() == (min(want) >= 0), (sums.cols, q)
            negative += min(want) < 0
            cj, ck = rng.randrange(n), rng.randrange(n)
            if cj != ck and sums.cols[cj] and sums.cols[ck] < nrows:
                cand = list(sums.cols)
                cand[cj] -= 1
                cand[ck] += 1
                keeps = prefix_excess(q, sorted(cand, reverse=True)) is None
                assert sums.try_move(cj, ck) == keeps, (sums.cols, q, cj, ck)
    assert negative > 100
