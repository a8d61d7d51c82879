"""The scalar swap search, kept as the reference for gridset._Work.

ReferenceWork is the engine with its search and bookkeeping done the
direct way, on a cell grid of its own that apply exchanges cell by cell:
every candidate (band, donor, receiver) is tested cell by cell, the L1
drop of a swap is the difference of two whole-section residual sums, the
symmetric differences of a swap and of a generation are summed cell by
cell, and prefix dominance exchanges the squares, recounts the two
classes' whole columns and tests the histogram of the whole vertical
section.  Everything else (margins, the section update of a swap, the
generation loop) is the engine's own, so a trace of ReferenceWork
differs from the engine's exactly when the fast search, its bookkeeping
or its row masks do.

PairwiseWork is the engine with only its band scan replaced: every
(donor, receiver) pair of a band is tested on its block masks, which is
fast enough to follow the engine to N=9.

section_change_by_cuts and slack_change_by_heights are the engine's
former section change and packed slack change, kept as references: the
first builds a dict of cut points cell by cell, the second adds one
shifted staircase per changed height.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import Counter
from dataclasses import replace
from operator import neg
from typing import Optional

from crosscut.dyadic import Dyadic
from crosscut.feasibility import counts_above, run_excess
from crosscut.gridset import DyadicSet, GenerationRecord, SwapMove, SwapRecord, _squares, _Work
from crosscut.matrices import _ThresholdSlack, _bits


def section_dominates(work: _Work, vu) -> bool:
    """The whole section vu against the work's f, as two histograms of runs."""
    f_runs = sorted(Counter(work.fu).items(), reverse=True)
    return run_excess(f_runs, sorted(Counter(vu).items(), reverse=True)) is None


def recounted_slack(work: _Work) -> list[int]:
    """Phi_v(c) * 2**shift - Phi_f(c) at each height c = 0..2**N, with
    Phi_x(c) = sum_i (x_i - c)^+, recounted from the work's vu and fu
    (both in units of 2**-D, a height c being c << shift of them)."""
    vs, fs = Counter(work.vu), Counter(work.fu)

    def phi(counts: Counter, at: int) -> int:
        return sum(n * (x - at) for x, n in counts.items() if x > at)

    return [phi(vs, c << work.shift) - phi(fs, c << work.shift) for c in range(work.side + 1)]


def cell_grid(work: _Work) -> list[list[int]]:
    """A ReferenceWork's own cells, or the engine's set written out from
    its rows."""
    if isinstance(work, ReferenceWork):
        return work.cells
    return [list(row) for row in work.to_set().fill]


def exchange_cells(cells: list[list[int]], move: SwapMove) -> int:
    """Exchange the move's squares in the grid cell by cell; returns the
    sub-units that change hands, sum |donor - receiver|."""
    span = len(cells) >> move.gen
    r0, j0, k0 = (move.band - 1) * span, (move.donor - 1) * span, (move.receiver - 1) * span
    moved = 0
    for row in cells[r0 : r0 + span]:
        for c in range(span):
            moved += abs(row[j0 + c] - row[k0 + c])
            row[j0 + c], row[k0 + c] = row[k0 + c], row[j0 + c]
    return moved


def recounted_columns(work: _Work, vu, columns, cells=None) -> list[int]:
    """vu with the given cell columns recounted from all their cells, those
    of the work's grid unless cells are given."""
    cells = cell_grid(work) if cells is None else cells
    vu = list(vu)
    for j in columns:
        counts = counts_above([row[j] for row in cells], work.subs)
        vu[j * work.subs : (j + 1) * work.subs] = [c << work.shift for c in counts]
    return vu


def dominance_after_by_recount(work: _Work, move: SwapMove) -> bool:
    """Exchange the squares cell by cell in a copy of the work's grid,
    recount every column of both classes from all its cells and test the
    whole section."""
    cells = [row[:] for row in cell_grid(work)]
    exchange_cells(cells, move)
    span = work.side >> move.gen
    j0, k0 = (move.donor - 1) * span, (move.receiver - 1) * span
    vu = recounted_columns(work, work.vu, (*range(j0, j0 + span), *range(k0, k0 + span)), cells)
    return section_dominates(work, vu)


def section_change_by_cuts(self: _Work, rows: slice, donor: slice, receiver: slice):
    """The section change of exchanging the two squares, read off their
    rows' masks: runs (start, stop, old value, change in cells) of
    sub-columns, and the net change of the number of sub-columns at
    each height.

    A donor cell a replaced by the receiver's b adds one cell to the
    donor column on [a, b) and takes one off on [b, a): a difference
    list with +1 at a and -1 at b, kept only at those cut points, at
    the bits where the blocks' masks differ.
    Between two cuts the change d is constant, and the receiver column
    changes by -d.  On such a stretch each column's old section is a
    nonincreasing staircase, so it splits into runs of equal height
    found by bisection; a stretch whose two ends are equal is one run.
    """
    subs, w, vu, shift = self.subs, self.subs + 1, self.vu, self.shift
    j0, k0 = donor.start, receiver.start
    low = (1 << (donor.stop - j0)) - 1
    diff: dict[int, int] = {}
    for r in range(rows.start, rows.stop):
        f, ne, width = self.full[r], self.nonempty[r], self.part[r]
        fj, nej, fk, nek = (f >> j0) & low, (ne >> j0) & low, (f >> k0) & low, (ne >> k0) & low
        for c in _bits((fj ^ fk) | (nej ^ nek)):
            bit, at = 1 << c, c * w
            a = at + (subs if fj & bit else width if nej & bit else 0)
            b = at + (subs if fk & bit else width if nek & bit else 0)
            diff[a] = diff.get(a, 0) + 1
            diff[b] = diff.get(b, 0) - 1
    cuts = sorted((p, n) for p, n in diff.items() if n)
    changes: list[tuple[int, int, int, int]] = []
    heights: dict[int, int] = {}
    d = 0
    # d returns to 0 at each column's last cut, so a stretch never
    # crosses columns
    for (p, n), (q, _) in zip(cuts, cuts[1:]):
        d += n
        if not d:
            continue
        c, s = divmod(p, w)
        for base, e in (((donor.start + c) * subs, d), ((receiver.start + c) * subs, -d)):
            i, end = base + s, base + q - c * w
            while i < end:
                v = vu[i]
                stop = end if vu[end - 1] == v else bisect_right(vu, -v, i, end, key=neg)
                h = v >> shift
                heights[h] = heights.get(h, 0) - (stop - i)
                heights[h + e] = heights.get(h + e, 0) + (stop - i)
                changes.append((i, stop, v, e))
                i = stop
    return changes, heights


def slack_change_by_heights(self: _ThresholdSlack, heights: dict[int, int]) -> int:
    """The packed change of the slack when the number of v's entries at
    each height h changes by heights[h]: sum_h n_h (h - c)^+ << shift
    in field c.  stair shifted down by top - h fields holds h - c in
    field c <= h.  A change that keeps the number of entries and their
    total is 0 at and below its least height lo, so it is built from
    field lo up only."""
    lo = min(heights, default=0)
    w, top, stair = self.width, self.top + lo, self.stair
    delta = 0
    for h, n in heights.items():
        if n:
            delta += n * (stair >> (w * (top - h)))
    return delta << (w * lo + self.shift)


class ReferenceWork(_Work):
    def __init__(self, params, fill, f):
        self.cells = [list(row) for row in fill]
        super().__init__(params, fill, f)

    def residual_units(self) -> int:
        return sum(abs(a - b) for a, b in zip(self.fu, self.vu))

    def _dominance_after(self, move: SwapMove) -> Optional[tuple]:
        """The engine's section change, when the recount keeps dominance."""
        if dominance_after_by_recount(self, move):
            return self._section_change(*_squares(self.side, move))
        return None

    def _proper_subset(self, gen: int, band: int, j: int, k: int) -> bool:
        """Receiver block <= donor block in every cell, and not equal."""
        span = self.side >> gen
        r0, j0, k0 = (band - 1) * span, (j - 1) * span, (k - 1) * span
        strict = False
        for r in range(r0, r0 + span):
            row = self.cells[r]
            for c in range(span):
                wj, wk = row[j0 + c], row[k0 + c]
                if wk > wj:
                    return False
                if wk < wj:
                    strict = True
        return strict

    def find_first(self, gen: int) -> Optional[SwapMove]:
        """First swappable move in (band, donor, receiver) ascending order."""
        top = 1 << gen
        donors = [j for j in range(1, top + 1) if self._donor_ok(gen, j)]
        if not donors:
            return None
        receivers = {k for k in range(1, top + 1) if self._receiver_ok(gen, k)}
        if not receivers:
            return None
        for band in range(1, top + 1):
            for j in donors:
                for k in range(1, top + 1):
                    if k == j or k not in receivers:
                        continue
                    if self._proper_subset(gen, band, j, k):
                        move = SwapMove(gen, band, j, k)
                        if self._dominance_after(move):
                            return move
        return None

    def apply(self, move: SwapMove) -> SwapRecord:
        before = self.residual_units()
        rec = super().apply(move)
        moved = exchange_cells(self.cells, move)
        drop = Dyadic(before - self.residual_units(), self.D + self.N + self.K)
        return replace(rec, l1_drop=drop, sym_diff=Dyadic(2 * moved, 2 * self.N + self.K))

    def run_generation(self, gen: int, on_swap=None) -> GenerationRecord:
        start = [row[:] for row in self.cells]
        rec = super().run_generation(gen, on_swap)
        sym = sum(abs(a - b) for old, new in zip(start, self.cells) for a, b in zip(old, new))
        return replace(rec, sym_diff=Dyadic(sym, 2 * self.N + self.K))

    def grid_set(self) -> DyadicSet:
        """The own cell grid as a set."""
        return DyadicSet(self.params, tuple(map(tuple, self.cells)))



class PairwiseWork(_Work):
    """The engine with the band scan that tests every (donor, receiver)
    pair of a band on its block masks, one pair at a time.  Everything else
    is the engine's, so a trace of PairwiseWork differs from the engine's
    exactly when grouping the pairs by block changes which pairs a band
    yields or their order."""

    def _contained_pairs(self, gen: int, band: int, donors: int, receivers: int):
        span = self.side >> gen
        r0 = (band - 1) * span
        full, nonempty = self.full, self.nonempty
        bf = bne = stride = 0
        for i in range(span):
            at = i * self.side
            bf |= full[r0 + i] << at
            bne |= nonempty[r0 + i] << at
            stride |= ((1 << span) - 1) << at

        def block(c: int) -> tuple[int, int]:
            at = c * span
            return (bf >> at) & stride, (bne >> at) & stride

        # the class masks hold class c at bit c - 1
        recv = [(k + 1, *block(k)) for k in _bits(receivers)]
        for j in _bits(donors):
            fj, nej = block(j)
            not_fj = ~fj
            for k, fk, nek in recv:
                if not nek & not_fj and nej != fk:
                    yield j + 1, k
