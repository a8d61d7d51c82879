"""The swap search's per-generation state: its cost, its resume rule and
a depth the golden outputs do not reach.

_Work.find_first keeps the donor and receiver lists and a band cursor
for the length of a generation.  A search must make the move a full
rescan would make (tests/reference_search.py), and its cost must follow
the swaps, not the grid.
"""

from __future__ import annotations

from crosscut import GridParams, StepFunction, audit_trace, gridset, reconstruct
from crosscut.dyadic import Dyadic
from crosscut.gridset import SwapMove, _Work, initial_set
from crosscut.ingest import quantize
from test_golden import CASES
from test_search_reference import assert_same_sweep


def _ramp(depth: int):
    raw_f, raw_g, params = CASES["sweep7_ramp"]
    params = GridParams(depth, params.subres)
    return quantize(raw_f, params)[0], quantize(raw_g, params)[0], params


def test_band_scans_follow_the_swaps_on_ramp_n7(monkeypatch):
    # later searches of a generation skip every band an earlier one
    # passed without a pair, so the scans stay within one per band and
    # generation, one per swap and one per final search: sum_gen 2**gen +
    # swaps + N.  Rescanning from band 1 on every search makes 2,919.
    calls = []
    original = _Work._contained_pairs

    def counted(self, gen, band, donors, receivers):
        calls.append((gen, band))
        return original(self, gen, band, donors, receivers)

    monkeypatch.setattr(_Work, "_contained_pairs", counted)
    f, g, params = _ramp(7)
    _, summary = reconstruct(f, g, params)
    n = params.depth
    assert len(summary.swaps) == 138
    bound = sum(1 << gen for gen in range(1, n + 1)) + len(summary.swaps) + n
    assert bound == 399
    assert len(calls) <= bound


class _Walks(list):
    """A fill grid that counts the walks over all its rows."""

    def __init__(self, rows):
        super().__init__(rows)
        self.walks = 0

    def __iter__(self):
        self.walks += 1
        return super().__iter__()


def test_sweeps_follow_the_moved_cells_on_ramp_n7(monkeypatch):
    # a swap's section comes from its exchanged cells and a generation's
    # totals from the rows it touched: no column recount after the state
    # is built and no copy, diff or shape check over the whole grid.
    # Recounting the columns and walking the grid each generation made
    # 1,243 walks in the search's sweep and 631 in the replay's.
    recounts, walks, in_sweep = [], [], [False]
    counts_above, sweep = gridset.counts_above, _Work.sweep

    def counted(*args):
        if in_sweep[0]:
            recounts.append(args)
        return counts_above(*args)

    def watched(self, *args, **kwargs):
        self.fill = _Walks(self.fill)
        in_sweep[0] = True
        try:
            return sweep(self, *args, **kwargs)
        finally:
            in_sweep[0] = False
            walks.append(self.fill.walks)

    monkeypatch.setattr(gridset, "counts_above", counted)
    monkeypatch.setattr(_Work, "sweep", watched)
    f, g, params = _ramp(7)
    _, summary = reconstruct(f, g, params)
    assert audit_trace(summary, f, g, params).ok
    assert len(summary.swaps) == 138
    # the search's first call builds the two row masks, one walk each;
    # the replay never searches
    assert walks == [2, 0]
    assert recounts == []


class _Probe(_Work):
    """Logs, per search, the bands where dominance rejected a contained
    pair and the band of the move found."""

    def find_first(self, gen):
        self.rejected = []
        move = super().find_first(gen)
        self.log.append((gen, self.rejected, move and move.band))
        return move

    def _dominance_after(self, move: SwapMove) -> bool:
        ok = super()._dominance_after(move)
        if not ok:
            self.rejected.append(move.band)
        return ok


def test_search_resumes_at_a_band_with_a_rejected_pair():
    # N=3, K=0, built by hand: in generation 3 a search sees dominance
    # reject a pair in band 2 and fires in band 5; the next search fires
    # in band 2, so resuming at the hit band would miss it
    params = GridParams(3, 0)
    f = StepFunction.from_grid([Dyadic(u, 3) for u in (3, 3, 3, 1, 5, 4, 3, 3)], 3)
    g = StepFunction.from_grid([Dyadic(u, 3) for u in (2, 3, 6, 8, 3, 0, 3, 0)], 3)
    probe = _Probe(params, initial_set(g, params).fill, f)
    probe.log = []
    for gen in range(1, 4):
        probe.run_generation(gen)
    witnesses = [
        (gen, min(rejected), hit, later)
        for (gen, rejected, hit), (later_gen, _, later) in zip(probe.log, probe.log[1:])
        if rejected and hit and later and later_gen == gen and min(rejected) <= later < hit
    ]
    assert witnesses == [(3, 2, 5, 2)]
    assert assert_same_sweep(f, g, params) == 6


def test_ramp_n8_reconstructs_and_audits():
    f, g, params = _ramp(8)
    e, summary = reconstruct(f, g, params)
    assert len(summary.swaps) == 297
    assert summary.final_residual == Dyadic(2115, 19)
    assert audit_trace(summary, f, g, params).ok
