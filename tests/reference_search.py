"""The scalar swap search, kept as the reference for gridset._Work.

ReferenceWork is the engine with its search and bookkeeping done the
direct way, on a cell grid of its own that apply exchanges cell by cell:
every candidate (band, donor, receiver) is tested cell by cell, the L1
drop of a swap is the difference of two whole-section residual sums
recounted from that grid, the symmetric differences of a swap and of a
generation are summed cell by cell, and prefix dominance exchanges the
squares, recounts the section from all the cells and tests it whole.
Everything else (margins, the section update of a swap, the generation
loop) is the engine's own, so a trace of ReferenceWork differs from the
engine's exactly when the fast search, its bookkeeping or its row masks
do.

PairwiseWork is the engine with only its band scan replaced: every
(donor, receiver) pair of a band is tested on its block masks, which is
fast enough to follow the engine to N=9.

section_change_by_cuts and slack_change_by_heights are the engine's
former section change and packed slack change, kept as references: the
first builds a dict of cut points cell by cell and walks the runs of the
section recounted from the grid, the second adds one shifted staircase
per changed height.

The engine holds its section per cell column, as a full count and the
partial widths (engine_columns).  The recounts here read the cells:
recounted_columns counts them per column, recounted_section per
sub-column (gridset._sub_counts), and section_runs gives the number of
sub-columns at each height without a walk over the sub-columns, so that
it serves at any K.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import Counter
from dataclasses import replace
from functools import lru_cache
from operator import neg
from typing import Optional

from crosscut.dyadic import Dyadic
from crosscut.feasibility import counts_above, run_excess
from crosscut.gridset import DyadicSet, GenerationRecord, SwapMove, SwapRecord, _squares, _sub_counts, _Work
from crosscut.matrices import _ThresholdSlack, _bits


def engine_columns(work: _Work) -> list[tuple[int, tuple[int, ...]]]:
    """The engine's section state per cell column: its number of full
    cells and its partial widths, ascending."""
    return [*zip(work.F, work.widths)]


def recounted_columns(cells, subs: int) -> list[tuple[int, tuple[int, ...]]]:
    """The same read off a cell grid: per column, the cells that are full
    and the widths of those that are partial, ascending."""
    return [(col.count(subs), tuple(sorted(w for w in col if 0 < w < subs))) for col in zip(*cells)]


def recounted_section(cells, subs: int) -> list[int]:
    """The section in cells per sub-column, each sub-column counting the
    cells of its column whose fill reaches past it."""
    return [*_sub_counts(cells, subs)]


def engine_section(work: _Work) -> list[int]:
    """The engine's section in cells per sub-column m of each column:
    its full count plus the number of its partial widths greater than m."""
    return [full + above for full, ws in engine_columns(work) for above in counts_above(ws, work.subs)]


def section_runs(cells, subs: int) -> Counter:
    """The number of sub-columns at each height in cells, recounted from
    the grid: in a column whose fills are c_1 >= ... >= c_n, a sub-column
    has height at least h exactly when it lies below c_h, so with S_h the
    sum of c_h over the columns, S_0 counting every sub-column and
    S_(n+1) = 0, S_h - S_(h+1) sub-columns have height h.  The cost is the
    cells', not the sub-columns'."""
    cols = [sorted(col, reverse=True) for col in zip(*cells)]
    s = [subs * len(cols), *map(sum, zip(*cols)), 0]
    return Counter({h: a - b for h, (a, b) in enumerate(zip(s, s[1:])) if a > b})


@lru_cache(maxsize=64)
def _target_runs(fcol: tuple[int, ...], subs: int) -> tuple[tuple[int, int], ...]:
    runs: Counter = Counter()
    for f in fcol:
        runs[f] += subs
    return tuple(sorted(runs.items(), reverse=True))


def target_runs(work: _Work) -> tuple[tuple[int, int], ...]:
    """The number of sub-columns at each of f's values, in units 2**-D,
    as (value, count) from the largest value."""
    return _target_runs(tuple(work.fcol), work.subs)


def section_dominates(work: _Work, runs: Counter) -> bool:
    """The whole section, given as its number of sub-columns per height in
    cells, against the work's f, as two histograms of runs."""
    v_runs = sorted(((h << work.shift, n) for h, n in runs.items()), reverse=True)
    return run_excess(target_runs(work), v_runs) is None


def recounted_slack(work: _Work, runs: Counter) -> list[int]:
    """Phi_v(c) * 2**shift - Phi_f(c) at each height c = 0..2**N, with
    Phi_x(c) = sum_i (x_i - c)^+ over the sub-columns, recounted from the
    section's runs in cells and f's in units of 2**-D, a height c being
    c << shift of them.  Phi_v(c) - Phi_v(c + 1) counts the sub-columns
    above c, so Phi_v is summed from the top down."""
    side, shift = work.side, work.shift
    phi_v, above = [0] * (side + 1), 0
    for c in range(side - 1, -1, -1):
        above += runs.get(c + 1, 0)
        phi_v[c] = phi_v[c + 1] + above
    fs = target_runs(work)
    return [(phi_v[c] << shift) - sum(n * (x - (c << shift)) for x, n in fs if x > c << shift) for c in range(side + 1)]


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


def dominance_after_by_recount(work: _Work, move: SwapMove) -> bool:
    """Exchange the squares cell by cell in a copy of the work's grid,
    recount the section from all its cells and test it whole."""
    cells = [row[:] for row in cell_grid(work)]
    exchange_cells(cells, move)
    return section_dominates(work, section_runs(cells, work.subs))


def section_change_by_cuts(self: _Work, rows: slice, donor: slice, receiver: slice, cells=None, sections=None):
    """The section change of exchanging the two squares, read off their
    rows' masks and the section recounted from the work's grid, or from
    the given cells, each column's recount kept in sections: runs
    (start, stop, old value, change), in cells, of sub-columns numbered
    across the grid, and the net change of the number of sub-columns at
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
    subs, w = self.subs, self.subs + 1
    cells = cell_grid(self) if cells is None else cells
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
    sections = {} if sections is None else sections
    d = 0
    # d returns to 0 at each column's last cut, so a stretch never
    # crosses columns
    for (p, n), (q, _) in zip(cuts, cuts[1:]):
        d += n
        if not d:
            continue
        c, s = divmod(p, w)
        for col, e in ((j0 + c, d), (k0 + c, -d)):
            # the column's section, recounted from its cells
            vu = sections.get(col)
            if vu is None:
                vu = sections[col] = counts_above([row[col] for row in cells], subs)
            i, end = s, q - c * w
            while i < end:
                v = vu[i]
                stop = end if vu[end - 1] == v else bisect_right(vu, -v, i, end, key=neg)
                heights[v] = heights.get(v, 0) - (stop - i)
                heights[v + e] = heights.get(v + e, 0) + (stop - i)
                changes.append((col * subs + i, col * subs + stop, v, e))
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
        """|f - v|_1 summed over every sub-column of the section recounted
        from the own cells."""
        subs, shift = self.subs, self.shift
        section = recounted_section(self.cells, subs)
        return sum(abs(self.fcol[m // subs] - (v << shift)) for m, v in enumerate(section))

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
