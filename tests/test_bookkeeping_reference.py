"""A swap's section change and slack change against their references.

_Work._section_change reads a column's change off vertical popcounts of
the blocks' full masks and the band's partial widths, and
_ThresholdSlack.change builds the packed slack change one piece per gap
between changed heights.  tests/reference_search.py keeps the former
section change, a dict of cut points built cell by cell, and the former
slack change, one staircase copy per changed height.  On every move the
engine probes, found or rejected by dominance, and on moves off the trace
from states in mid-sweep, the two must write the same section, change
the same heights (as a multiset, zero counts dropped) and give the same
packed change of the slack.
"""

from __future__ import annotations

import random
from collections import Counter

import pytest

from conftest import rand_feasible_pair
from crosscut import GridParams, audit_trace
from crosscut.gridset import SwapMove, _squares, _Work
from crosscut.ingest import quantize
from reference_search import section_change_by_cuts, slack_change_by_heights
from test_golden import CASES


def _written(work: _Work, changes) -> list[int]:
    """The section once the runs are written, each run's old value being
    the section's on every sub-column of the run."""
    vu = work.vu[:]
    for i, stop, v, d in changes:
        assert vu[i:stop] == [v] * (stop - i), (i, stop, v)
        vu[i:stop] = [v + (d << work.shift)] * (stop - i)
    return vu


def _nonzero(heights: dict[int, int]) -> dict[int, int]:
    return {h: n for h, n in heights.items() if n}


def _compared(monkeypatch) -> Counter:
    """Makes every section change the engine computes, in the search, in
    apply or in the replay, compare itself with the references; returns
    the counts of the probes, the rejected ones and the comparisons."""
    seen = Counter()
    section_change, dominance_after = _Work._section_change, _Work._dominance_after

    def checked(self, *squares):
        got = section_change(self, *squares)
        want = section_change_by_cuts(self, *squares)
        assert _written(self, got[0]) == _written(self, want[0]), squares
        assert _nonzero(got[1]) == _nonzero(want[1]), squares
        assert self.thresholds.change(got[1]) == slack_change_by_heights(self.thresholds, want[1]), squares
        seen["compared"] += 1
        return got

    def probed(self, move):
        change = dominance_after(self, move)
        seen["probed"] += 1
        seen["rejected"] += change is None
        return change

    monkeypatch.setattr(_Work, "_section_change", checked)
    monkeypatch.setattr(_Work, "_dominance_after", probed)
    return seen


def _off_trace(rng: random.Random, work: _Work, tries: int) -> None:
    """swappable on random moves of every generation, and each move's
    section change directly, from the work's present state."""
    for _ in range(tries):
        gen = rng.randint(1, work.N)
        top = 1 << gen
        donor, receiver = rng.sample(range(1, top + 1), 2)
        move = SwapMove(gen, rng.randint(1, top), donor, receiver)
        work.swappable(move)
        work._section_change(*_squares(work.side, move))


def _sweep(rng: random.Random, f, g, params, every: int) -> tuple:
    """The engine's sweep from the hypograph of g, probing moves off the
    trace after every every-th swap; returns the summary."""
    work = _Work.hypograph(params, g, f)
    count = Counter()

    def on_swap(rec) -> None:
        count["swaps"] += 1
        if count["swaps"] % every == 0:
            _off_trace(rng, work, 4)

    summary = work.sweep(None, on_swap)
    _off_trace(rng, work, 8)
    return summary


def test_section_change_matches_the_cut_points_on_ramp_n7(monkeypatch):
    raw_f, raw_g, params = CASES["sweep7_ramp"]
    f, g = quantize(raw_f, params)[0], quantize(raw_g, params)[0]
    seen = _compared(monkeypatch)
    summary = _sweep(random.Random(7), f, g, params, 10)
    assert len(summary.swaps) == 138
    assert audit_trace(summary, f, g, params).ok
    # 138 probes found a move, each computed once more in the replay,
    # plus the moves off the trace
    assert seen["probed"] >= 138 and seen["compared"] >= 2 * 138 + 8, seen


@pytest.mark.parametrize("subres", [0, 4, 9])
def test_section_change_matches_the_cut_points_on_random_pairs(subres, monkeypatch):
    seen = _compared(monkeypatch)
    rng = random.Random(61_000 + subres)
    for _ in range(50):
        # rand_feasible_pair draws its values one sub-unit at a time, so N
        # stops at 3 at K=9
        params = GridParams(rng.randint(1, 5 if subres < 9 else 3), subres)
        f, g = rand_feasible_pair(rng, params)
        summary = _sweep(rng, f, g, params, 3)
        assert audit_trace(summary, f, g, params).ok
    assert seen["rejected"] > 0 and seen["probed"] > seen["rejected"], seen
    assert seen["compared"] > 500, seen
