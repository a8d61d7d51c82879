"""The swap search's per-generation state: its cost, its resume rule and
a depth the golden outputs do not reach.

_Work.find_first keeps the donor and receiver classes as masks and a
band cursor for the length of a generation; classes only ever leave
those masks, so they must equal a recount after every swap.  A search
must make the move a full rescan would make (tests/reference_search.py),
and its cost must follow the swaps, not the grid.  A swap's section
change is the list of the columns it changes, computed once per swap;
it must not grow with the 2**K sub-columns of a cell.
"""

from __future__ import annotations

import random
from collections import Counter

from conftest import rand_feasible_pair, rand_grid_marginal, rand_shaped_set
from crosscut import GridParams, StepFunction, audit_trace, gridset, reconstruct
from crosscut.dyadic import Dyadic
from crosscut.gridset import SwapMove, _Work, initial_set
from crosscut.ingest import quantize
from test_golden import CASES
from reference_search import engine_columns, recounted_columns, recounted_section
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


def _check_scan_masks(monkeypatch) -> Counter:
    """Wraps apply: after each apply of the move the search found, the
    scan's donor and receiver masks must be the masks of _donor_ok and
    _receiver_ok recounted over every class of the generation."""
    log: Counter = Counter()
    apply = _Work.apply

    def checked(self, move):
        scan = self.scan
        found = scan is not None and scan.found is not None and scan.found[0] == move
        before = scan.donors | scan.receivers if found else 0
        rec = apply(self, move)
        if found:
            gen, classes = scan.gen, range(1, (1 << scan.gen) + 1)
            assert self.scan is scan, move
            assert scan.donors == sum(1 << (c - 1) for c in classes if self._donor_ok(gen, c)), move
            assert scan.receivers == sum(1 << (c - 1) for c in classes if self._receiver_ok(gen, c)), move
            log["applies"] += 1
            log["left"] += before.bit_count() - (scan.donors | scan.receivers).bit_count()
        return rec

    monkeypatch.setattr(_Work, "apply", checked)
    return log


def test_scan_masks_match_a_recount_on_ramp_n7(monkeypatch):
    log = _check_scan_masks(monkeypatch)
    f, g, params = _ramp(7)
    _, summary = reconstruct(f, g, params)
    assert len(summary.swaps) == log["applies"] == 138
    assert log["left"] > 0


def test_scan_masks_match_a_recount_on_random_pairs(monkeypatch):
    log = _check_scan_masks(monkeypatch)
    swaps = 0
    for seed in range(50):
        rng = random.Random(43_000 + seed)
        params = GridParams(rng.randint(1, 5), rng.randint(0, 3))
        _, summary = reconstruct(*rand_feasible_pair(rng, params), params)
        swaps += len(summary.swaps)
    assert swaps == log["applies"] > 0
    assert log["left"] > 0


class _Walks(list):
    """A list of row masks that counts the walks over all its rows."""

    def __init__(self, rows):
        super().__init__(rows)
        self.walks = 0

    def __iter__(self):
        self.walks += 1
        return super().__iter__()


def test_sweeps_follow_the_moved_cells_on_ramp_n7(monkeypatch):
    # a swap's section comes from its exchanged cells and a generation's
    # totals from the rows it touched: no column recount after the state
    # is built and no copy, diff or shape check over the rows of the
    # whole grid, in the search's sweep or in the replay's.  Building the
    # masks lazily in the first search would walk each list once.
    recounts, walks, in_sweep = [], [], [False]
    counts_above, sweep = gridset.counts_above, _Work.sweep

    def counted(*args):
        if in_sweep[0]:
            recounts.append(args)
        return counts_above(*args)

    def watched(self, *args, **kwargs):
        self.full, self.nonempty = _Walks(self.full), _Walks(self.nonempty)
        in_sweep[0] = True
        try:
            return sweep(self, *args, **kwargs)
        finally:
            in_sweep[0] = False
            walks.append(self.full.walks + self.nonempty.walks)

    monkeypatch.setattr(gridset, "counts_above", counted)
    monkeypatch.setattr(_Work, "sweep", watched)
    f, g, params = _ramp(7)
    _, summary = reconstruct(f, g, params)
    assert audit_trace(summary, f, g, params).ok
    assert len(summary.swaps) == 138
    assert walks == [0, 0]
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


def _ramp32():
    """The 32-step ramp (63 - 2j)/128 on [j/32, (j+1)/32) as f and g."""
    return StepFunction.from_grid([Dyadic(63 - 2 * j, 7) for j in range(32)], 5)


def test_section_change_runs_do_not_grow_with_k():
    # the N=5 ramp at K=9 with every fill x32 is the K=4 state with each
    # sub-column cut into 32: every move of the K=4 trace must change the
    # same columns to the same full counts, with their widths x32, the
    # same drops of the residual on the finer scale and the same height
    # changes x32.  The 27 swaps change 78 column states at both K.
    f = _ramp32()
    p4, p9 = GridParams(5, 4), GridParams(5, 9)
    _, summary = reconstruct(f, f, p4)
    assert len(summary.swaps) == 27
    fill = initial_set(f, p4).fill
    fill9 = [[32 * w for w in row] for row in fill]
    w4, w9 = _Work(p4, fill, f), _Work(p9, fill9, f)
    scale = w9.shift - w4.shift
    total = 0
    for rec in summary.swaps:
        move = SwapMove(rec.gen, rec.band, rec.donor, rec.receiver)
        squares = gridset._squares(w4.side, move)
        columns4, heights4 = w4._section_change(*squares)
        columns9, heights9 = w9._section_change(*squares)
        want = [(j, full, tuple(32 * w for w in ws), drop << 2 * scale) for j, full, ws, drop in columns4]
        assert columns9 == want, move
        assert heights9 == {h: 32 * n for h, n in heights4.items()}, move
        assert w9.apply(move) == w4.apply(move) == rec
        total += len(columns4)
    assert engine_columns(w9) == [(full, tuple(32 * w for w in ws)) for full, ws in engine_columns(w4)]
    assert engine_columns(w4) == recounted_columns(w4.to_set().fill, 16)
    assert engine_columns(w9) == recounted_columns(w9.to_set().fill, 512)
    assert total == 78


def test_section_change_once_per_swap_on_ramp_n7(monkeypatch):
    # the search's probe hands its section change to apply; the replay
    # makes one per swap.  Computing it again in apply made 276 and 138.
    calls = []
    original = _Work._section_change

    def counted(self, *squares):
        calls.append(type(self).__name__)
        return original(self, *squares)

    monkeypatch.setattr(_Work, "_section_change", counted)
    f, g, params = _ramp(7)
    _, summary = reconstruct(f, g, params)
    # no probe of the ramp is rejected by dominance
    assert len(summary.swaps) == 138
    assert calls == ["_Work"] * 138
    calls.clear()
    assert audit_trace(summary, f, g, params).ok
    assert calls == ["ReplayState"] * 138


def _state(work: _Work):
    return work.to_set(), engine_columns(work), work.residual, work.thresholds.fields, work.dominated


def test_apply_reuses_only_the_probe_of_its_own_move():
    # generation 3 of the N=5 ramp: four swappable moves with different
    # section changes; whatever was probed last, by swappable or by a
    # search, apply must give what a fresh state gives
    f, params = _ramp32(), GridParams(5, 4)
    fill = initial_set(f, params).fill
    moves = [SwapMove(3, band, 1, k) for band in (1, 2) for k in (5, 6)]
    for m1 in moves:
        for m2 in moves:
            fresh = _Work(params, fill, f)
            expected = fresh.apply(m2)
            work = _Work(params, fill, f)
            assert work.swappable(m1)
            assert work.apply(m2) == expected, (m1, m2)
            assert _state(work) == _state(fresh), (m1, m2)
            searched = _Work(params, fill, f)
            assert searched.find_first(3) == moves[0]
            assert searched.swappable(m1)
            assert searched.apply(m2) == expected, (m1, m2)
            assert _state(searched) == _state(fresh), (m1, m2)
    searched = _Work(params, fill, f)
    assert searched.find_first(3) == moves[0]
    assert searched.apply(moves[3]) == _Work(params, fill, f).apply(moves[3])


def test_margins_read_one_sub_column_per_column():
    # each column's section is a staircase and f constant on it, so the
    # least v - f of a class is at a column's last sub-column and the
    # greatest at its first; the per-sub-column min and max must agree
    rng = random.Random(41_000)
    seen = [0, 0]
    for _ in range(150):
        params = GridParams(rng.randint(1, 4), rng.randint(0, 4))
        e = rand_shaped_set(rng, params)
        f = rand_grid_marginal(rng, params)
        work = _Work(params, e.fill, f)
        # v - f per sub-column, from the section recounted from the cells
        subs = params.sub_per_cell
        section = recounted_section(e.fill, subs)
        excess_all = [(v << work.shift) - work.fcol[m // subs] for m, v in enumerate(section)]
        for gen in range(1, params.depth + 1):
            width = (params.side >> gen) * subs
            margin = 1 << (work.D - gen)
            for idx in range(1, (1 << gen) + 1):
                excess = excess_all[(idx - 1) * width : idx * width]
                assert work._donor_ok(gen, idx) == (min(excess) >= margin)
                assert work._receiver_ok(gen, idx) == (max(excess) <= -margin)
                seen[0] += work._donor_ok(gen, idx)
                seen[1] += work._receiver_ok(gen, idx)
    assert all(seen), seen
