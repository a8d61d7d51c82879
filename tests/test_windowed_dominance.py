"""Swap bookkeeping that follows the moved cells, probe by probe.

gridset._Work reads a swap's section change off the exchanged cells and
tests prefix dominance only on the window of heights the move changes;
matrices.swap_construct tests it only on the prefix lengths a move
lowers.  Both windows rest on the state before the move being dominated.
Every probe here is compared with a whole-section test: the recount of
tests/reference_search.py, or prefix_excess on the sorted candidate sums.
"""

from __future__ import annotations

import random
from collections import Counter

from conftest import rand_feasible_pair, rand_shaped_set
from crosscut import GridParams, StepFunction, audit_trace, reconstruct
from crosscut.dyadic import Dyadic
from crosscut.feasibility import prefix_excess
from crosscut.gridset import SwapMove, _Work, optimize_generation
from crosscut.matrices import _ColumnSums, swap_construct
from reference_search import dominance_after_by_recount, recounted_columns, section_dominates
from test_matrix_reference import _random_margins
from test_search_state import _ramp
from test_search_reference import _targets


def _check_engine(monkeypatch) -> Counter:
    """Wraps the engine's probe and apply: every probe must agree with the
    whole-section recount, and every apply must leave the section, the
    height counts and the dominance flag that a recount gives."""
    log: Counter = Counter()
    probe, apply = _Work._dominance_after, _Work.apply

    def checked_probe(self, move):
        ok = probe(self, move)
        assert ok == dominance_after_by_recount(self, move), move
        log["probes"] += 1
        log["rejected"] += not ok
        log["undominated"] += not self.dominated
        return ok

    def checked_apply(self, move):
        rec = apply(self, move)
        assert self.vu == recounted_columns(self, self.vu, range(self.side)), move
        heights = Counter(v >> self.shift for v in self.vu)
        for c in range(self.side + 2):
            assert self.above[c] == sum(n for h, n in heights.items() if h >= c), (move, c)
            assert self.mass[c] == sum(h * n for h, n in heights.items() if h >= c), (move, c)
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
    # tests the whole sorted order until a swap makes it dominate
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
    # it.
    params = GridParams(2, 0)
    f = StepFunction.from_grid([Dyadic(1), Dyadic(1, 2), Dyadic(0), Dyadic(1, 2)], 2)
    fill = ((1, 1, 1, 0), (1, 1, 0, 0), (1, 0, 0, 0), (0, 0, 0, 0))
    work = _Work(params, fill, f)
    move = SwapMove(2, 1, 3, 4)
    assert not work.dominated
    assert work._donor_ok(2, 3) and work._receiver_ok(2, 4) and work._proper_subset(2, 1, 3, 4)
    assert not dominance_after_by_recount(work, move)
    assert not work._dominance_after(move)
    work.dominated = True
    assert work._dominance_after(move)


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


def _check_sums(monkeypatch) -> tuple[Counter, list[int]]:
    """Wraps _ColumnSums: every dominance answer must be prefix_excess on
    the sorted candidate sums against q, the returned list the caller
    fills, and every move must leave the slack and the counts that a
    recount gives."""
    log: Counter = Counter()
    keeps, move = _ColumnSums.keeps_dominance, _ColumnSums.move
    q: list[int] = []

    def checked_keeps(self, cj, ck):
        ok = keeps(self, cj, ck)
        cand = list(self.cols)
        cand[cj] -= 1
        cand[ck] += 1
        assert ok == (prefix_excess(q, sorted(cand, reverse=True)) is None), (cj, ck)
        log["probes"] += 1
        log["rejected"] += not ok
        return ok

    def checked_move(self, cj, ck):
        move(self, cj, ck)
        fresh = _ColumnSums(list(self.cols), q, len(self.ge) - 1)
        assert (self.ge, self.slack) == (fresh.ge, fresh.slack), (cj, ck)
        assert min(self.slack) >= 0

    monkeypatch.setattr(_ColumnSums, "keeps_dominance", checked_keeps)
    monkeypatch.setattr(_ColumnSums, "move", checked_move)
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
                assert sums.keeps_dominance(cj, ck) == want, (cols, q, cj, ck)
                near += cols[cj] <= cols[ck] + 1
                sums.move(cj, ck)
                fresh = _ColumnSums(cand, q, 6)
                assert (sums.ge, sums.slack) == (fresh.ge, fresh.slack), (cols, q, cj, ck)
    assert near > 0


def test_slack_rejects_a_move_between_sums_two_apart():
    # sums (2, 0) against q = (2, 0): moving a 1 from the first column to
    # the second gives (1, 1), whose first prefix sum 1 falls below 2
    sums = _ColumnSums([2, 0], (2, 0), 2)
    assert sums.slack == [0, 0, 0]
    assert not sums.keeps_dominance(0, 1)


