"""Plane sets on a dyadic grid and the swappable-squares construction.

A set is stored as a 2**N x 2**N grid of cells of side 2**-N; the content
of cell (band i, column j) is a full-height, left-aligned rectangle whose
width is an integer number of sub-units 2**-(N+K).  The starting set is
the hypograph {(x, y) : x < g(y)} of the horizontal target g, whose
vertical cross section is exactly the distribution function of g.  A swap
exchanges the contents of two same-band squares of generation n <= N,
which translates cell contents by a multiple of the cell width and so
preserves the representation.

A pair of squares may be swapped when, with margin exactly 2**-n,

  * the vertical section exceeds the target f by the margin throughout
    the donor column class,
  * it falls below f by the margin throughout the receiver column class,
  * the receiver content is a proper subset of the donor content after
    shifting (so the move is not a no-op),
  * after the exchange, the prefix integral of f's rearrangement still
    never exceeds the prefix integral of the rearranged vertical section.

Each executed swap preserves all horizontal sections and decreases
|f - v|_1 by exactly the symmetric difference of the two sets, so running
generations n = 1, 2, ..., N to exhaustion terminates with a nonincreasing
error sequence.

Everything here reduces to integer arithmetic: with D the common scale of
f's values and the sub-unit grid, sections, margins and prefix sums are
integers, so all comparisons are exact.

An exchange permutes the cells inside each row, so every row of a set
reachable from a hypograph keeps the hypograph's shape: full cells, at
most one partial cell, empty cells.  The engine holds only that: per row
a bitmask of its full cells, one of its nonempty cells and the width of
its partial cell, which no exchange changes.  An exchange swaps mask
bits; the sub-units it moves, its section change, a generation's
symmetric difference and the set are read off the masks and the width.
The engine (is_swappable, optimize_generation, swap, the replay) thus
takes only such sets and raises ValueError on a row of two partial
cells; DyadicSet, the sections, the images and verify take any set.

The search packs a band's block into one int per mask.  No cell being
partial in both, a receiver block is a proper subset of a donor block
when no receiver cell is nonempty where the donor's is not full and the
masks differ.  Blocks with equal masks answer alike, so a band scan
groups its receivers by block and tests each distinct donor block once
against each group; the fitting groups merged in ascending order are
the pairs, in the order, that testing every pair keeps, so the first
swappable move does not change.  At generation N a block is one cell: a
full donor takes every receiver that is not full, a partial donor only
the empty ones, an empty donor none, so the band row's masks and the
class masks decide a band in a few big-int operations.

A swap's bookkeeping follows the cells it moves, run by run.  A cell of
width a that takes the place of one of width b raises its column by one
cell on the sub-columns [b, a) and lowers it on [a, b).  The sorted
widths of the exchanged cells therefore cut a column pair into stretches
on which the change d is constant: +d on the donor column, -d on the
receiver's.  A column's section is a staircase, nonincreasing across its
sub-columns, since sub-column m counts the rows whose fill exceeds m.
So a stretch splits into runs of equal old height that come in position
order, largest height first, and a stretch whose two ends have equal
height is a single run.  The section, its L1 gap to f (f is constant on
a column) and the count of sub-columns per height are updated one run
at a time, and a donor's least and a receiver's greatest v - f on a
column are read at its last and its first sub-column.  A swap's cost
follows its runs, not the 2**K sub-columns of a cell: only the slice
that writes a run and the K steps of a bisection see them.  The change
is computed once per swap, by the probe that tests its dominance, and
written by apply.  Dominance is tested on a window of the
sorted section.  Let lo and hi be the least and the greatest height a
changed sub-column has before or after the move.  The mass above hi, the
mass below lo and the total stay the same, so the sorted prefix sums can
change only between positions #{v > hi} and #{v >= lo}.  Along the run
of height hi they grow by hi a position from that unchanged start, where
they grew by at most hi before; back along the run of height lo they
fall by lo a position from that unchanged end, where they fell by at
least lo before.  Neither run can lose dominance, so only the heights
strictly between lo and hi need a test.  That is exact when the section
dominated f before the move.  The induction
starts at the checked start of reconstruct and audit_trace, and every
probed or replayed swap keeps it; a state that does not dominate f,
built on an arbitrary set, tests the whole sorted order.  Along a run of
equal heights the gap between the two prefix sums is convex, so each run
is tested once, where f's values fall to its height.

A search keeps its state for the length of a generation: the donor and
receiver lists and the band it resumes at.  Three facts keep the first
swappable move in (band, donor, receiver) order the one it finds:

  * a swap changes the section only on its donor and receiver classes,
    and by at most the margin, so the donor stays at or above f and the
    receiver at or below it: no class joins a list, and only the two
    touched classes are tested again;
  * a swap writes only the rows of its own band, so a band that held no
    contained pair holds none after it, the lists having only shrunk;
  * dominance can change anywhere, so a band that held a pair rejected
    by dominance may fire later, and the next search resumes at the
    first band that held any pair, never past it.

One engine, _Work, runs the generation sweep, the search and the swaps
and builds the trace.  Replay is the same sweep running recorded moves:
ReplayState's find_first hands out the next record of a trace instead of
searching, and its apply re-derives every invariant of that swap, so
report.audit_trace only compares the recorded summary with the replayed
one.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from itertools import accumulate, chain, repeat
from operator import eq, mul, neg, sub
from typing import Callable, Optional, Sequence

from .dyadic import ONE, ZERO, Dyadic
from .feasibility import FeasibilityReport, check_hlp, counts_above
from .matrices import realize_exact_margins
from .stepfn import StepFunction


class QuantizationError(ValueError):
    """Input function does not live on the required dyadic grid."""


class MoveOutOfRange(IndexError):
    """Swap indices do not address a square of this grid."""


class InfeasibleInput(ValueError):
    """Marginal pair fails the realizability test; no construction exists."""

    def __init__(self, report: FeasibilityReport):
        super().__init__(f"marginals not realizable: {report.verdict.value}")
        self.report = report


class InvariantViolation(RuntimeError):
    """A standing hypothesis of the swap construction does not hold."""


class MalformedTrace(ValueError):
    """Trace cannot be replayed: bad syntax, indices, or ordering."""


class ReplayViolation(Exception):
    """A replayed swap breaks an invariant or disagrees with its record."""

    def __init__(self, record_index: int, violation: str):
        super().__init__(f"record {record_index}: {violation}")
        self.record_index = record_index
        self.violation = violation


@dataclass(frozen=True)
class SwapRecord:
    """One executed swap: generation, band row, donor and receiver column
    classes (1-indexed), the exact L1 improvement and symmetric difference."""

    gen: int
    band: int
    donor: int
    receiver: int
    l1_drop: Dyadic
    sym_diff: Dyadic


@dataclass(frozen=True)
class GenerationRecord:
    gen: int
    swap_count: int
    residual_l1: Dyadic
    sym_diff: Dyadic  # measure of (set before generation) XOR (set after)


@dataclass(frozen=True)
class TraceSummary:
    generations: tuple[GenerationRecord, ...]
    swaps: tuple[SwapRecord, ...]
    initial_residual: Dyadic
    final_residual: Dyadic
    feasibility: FeasibilityReport

    def __post_init__(self):
        last = self.initial_residual
        churn = ZERO
        for g in self.generations:
            if g.residual_l1 > last:
                raise ValueError(f"residual increased at generation {g.gen}")
            last = g.residual_l1
            churn = churn + g.sym_diff
        if churn > self.initial_residual:
            raise ValueError("total set change exceeds the initial residual")


@dataclass(frozen=True)
class GridParams:
    """depth N: finest squares have side 2**-N.
    subres K: cell fill widths are multiples of 2**-(N+K)."""

    depth: int
    subres: int = 0

    def __post_init__(self):
        if self.depth < 1 or self.subres < 0 or self.depth + self.subres > 30:
            raise ValueError("need depth >= 1, subres >= 0, depth + subres <= 30")

    @property
    def side(self) -> int:
        return 1 << self.depth

    @property
    def sub_per_cell(self) -> int:
        return 1 << self.subres

    @property
    def sub_total(self) -> int:
        return 1 << (self.depth + self.subres)


@dataclass(frozen=True)
class SwapMove:
    """Exchange the squares (band, donor) and (band, receiver) of the
    given generation; indices are 1-based within {1, ..., 2**gen}."""

    gen: int
    band: int
    donor: int
    receiver: int

    def __post_init__(self):
        if self.gen < 1:
            raise ValueError("generation must be >= 1")
        top = 1 << self.gen
        for name in ("band", "donor", "receiver"):
            v = getattr(self, name)
            if not 1 <= v <= top:
                raise ValueError(f"{name} index {v} outside 1..{top}")
        if self.donor == self.receiver:
            raise ValueError("donor and receiver must differ")


@dataclass(frozen=True)
class DyadicSet:
    """Subset of the unit square: fill[i][j] sub-units of content in the
    cell at band i (bottom-up), column j (left to right)."""

    params: GridParams
    fill: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        side, cap = self.params.side, self.params.sub_per_cell
        if len(self.fill) != side:
            raise ValueError("fill grid has wrong number of bands")
        for row in self.fill:
            if len(row) != side:
                raise ValueError("fill grid has wrong number of columns")
            for w in row:
                if not isinstance(w, int) or not 0 <= w <= cap:
                    raise ValueError(f"cell fill {w} outside 0..{cap}")

    def measure(self) -> Dyadic:
        total = sum(w for row in self.fill for w in row)
        return Dyadic(total, 2 * self.params.depth + self.params.subres)


def _cell_units(f: StepFunction, depth: int, exp: int, bounded: bool = True) -> list[int]:
    """f's value on each of the 2**depth cells, as an integer over 2**-exp.

    QuantizationError for a breakpoint off the cell grid, then, value by
    value from the left, for one above 1 (when bounded) or off 2**-exp."""
    for b in f.breakpoints[1:-1]:
        if b.exp > depth:
            raise QuantizationError(f"breakpoint {b} is not a multiple of 2**-{depth}")
    for v in f.values:
        if bounded and v > ONE:
            raise QuantizationError(f"band value {v} outside [0, 1]")
        if v.exp > exp:
            raise QuantizationError(f"band value {v} not a multiple of 2**-{exp}")
    return [u for u, cells in f.runs(depth, exp) for _ in range(cells)]


def initial_set(g: StepFunction, params: GridParams) -> DyadicSet:
    """Hypograph of g: band i holds [0, g_i) x (the band).

    g must be constant on each band with values in [0, 1] that are
    multiples of the sub-unit 2**-(N+K).  The resulting vertical cross
    section equals the distribution function of g exactly.
    """
    cap = params.sub_per_cell
    rows = []
    for units in _cell_units(g, params.depth, params.depth + params.subres):
        full, rem = divmod(units, cap)
        row = [cap] * full
        if rem:
            row.append(rem)
        row.extend([0] * (params.side - len(row)))
        rows.append(tuple(row))
    return DyadicSet(params, tuple(rows))


def _sub_counts(fill, subs: int) -> list[int]:
    """Per finest sub-column, the cells of its column whose fill reaches past it."""
    return [c for col in zip(*fill) for c in counts_above(col, subs)]


def vertical_section(e: DyadicSet) -> StepFunction:
    """v_E(x): total height of the set above x, exact on the sub-unit grid.
    The counts stay integers; Dyadics are built only where they change."""
    p = e.params
    return StepFunction.from_grid(_sub_counts(e.fill, p.sub_per_cell), p.depth + p.subres, p.depth)


def horizontal_section(e: DyadicSet) -> StepFunction:
    """h_E(y): width of the set at height y; constant on each band."""
    p = e.params
    return StepFunction.from_grid(map(sum, e.fill), p.depth, p.depth + p.subres)


def _squares(side: int, move: SwapMove) -> tuple[slice, slice, slice]:
    """The band rows and the donor and receiver columns of the move's two
    squares in a side x side grid of cells."""
    span = side >> move.gen
    r0, j0, k0 = (move.band - 1) * span, (move.donor - 1) * span, (move.receiver - 1) * span
    return slice(r0, r0 + span), slice(j0, j0 + span), slice(k0, k0 + span)


_DIGITS = bytes.maketrans(b"\0\1", b"01")
_FLAGS = bytes.maketrans(b"01", b"\0\1")


def _mask(flags) -> int:
    """The flags as a bitmask, bit c set when flag c is true."""
    return int(bytes(flags).translate(_DIGITS)[::-1], 2)


def _units(cap: int, width: int, full: int, nonempty: int) -> int:
    """Sub-units in the cells a row's masks mark, cap per full cell and
    width, the row's partial width, per partial one; given the bits where
    two states of the row differ, the sub-units by which they differ."""
    return (cap - width) * full.bit_count() + width * nonempty.bit_count()


class _Rows:
    """A grid of cells held as its rows: bitmasks of each row's full and
    nonempty cells and the width of its partial cell, 0 when it has none.
    A fill with a row of two partial cells raises ValueError naming it."""

    def __init__(self, params: GridParams, fill):
        self.params = params
        self.side, self.subs = params.side, params.sub_per_cell
        self.full, self.nonempty, self.part = [], [], []
        for r, row in enumerate(fill):
            full, nonempty = _mask(map(eq, row, repeat(self.subs))), _mask(map(bool, row))
            partial = nonempty & ~full
            if partial & (partial - 1):
                raise ValueError(f"fill row {r} holds two partial cells; the engine takes one at most")
            self.full.append(full)
            self.nonempty.append(nonempty)
            self.part.append(row[partial.bit_length() - 1] if partial else 0)

    def _exchange(self, rows: slice, donor: slice, receiver: slice) -> int:
        """Exchange the two squares in place, columnwise; returns the number
        of cell sub-units that change hands, sum |donor - receiver|."""
        j0, k0 = donor.start, receiver.start
        low = (1 << (donor.stop - j0)) - 1
        full, nonempty, moved = self.full, self.nonempty, 0
        for r in range(rows.start, rows.stop):
            f, ne = full[r], nonempty[r]
            df, dne = ((f >> j0) ^ (f >> k0)) & low, ((ne >> j0) ^ (ne >> k0)) & low
            full[r] = f ^ (df << j0) ^ (df << k0)
            nonempty[r] = ne ^ (dne << j0) ^ (dne << k0)
            moved += _units(self.subs, self.part[r], df, dne)
        return moved

    def to_set(self) -> DyadicSet:
        side, cap, rows = self.side, self.subs, []
        for f, ne, width in zip(self.full, self.nonempty, self.part):
            row = [*map(mul, f"{f:0{side}b}"[::-1].encode().translate(_FLAGS), repeat(cap))]
            if width:
                row[(ne & ~f).bit_length() - 1] = width
            rows.append(tuple(row))
        return DyadicSet(self.params, tuple(rows))


def swap(e: DyadicSet, move: SwapMove) -> DyadicSet:
    """Exchange the fills of the two generation-n squares, columnwise."""
    p = e.params
    if move.gen > p.depth:
        raise MoveOutOfRange(
            f"generation {move.gen} exceeds grid depth {p.depth}"
        )
    rows = _Rows(p, e.fill)
    rows._exchange(*_squares(p.side, move))
    return rows.to_set()


def _class_mask(classes) -> int:
    """The classes as a bitmask, bit c - 1 for class c."""
    return sum(1 << (c - 1) for c in classes)


def _classes(mask: int):
    """The classes of a bitmask, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length()
        mask ^= low


def _block_fits(fj: int, nej: int, fk: int, nek: int) -> bool:
    """Whether the receiver block with full and nonempty masks fk, nek is
    a proper subset of the donor block fj, nej, when no cell is partial
    in both: no receiver cell is nonempty where the donor's is not full,
    and the masks differ."""
    return not nek & ~fj and nej != fk


@dataclass
class _Scan:
    """Search state of one generation: the classes still passing the
    donor and the receiver margin, ascending and as class masks, the
    first band that a search scans and the move the last search found."""

    gen: int
    donors: list[int]
    receivers: list[int]
    donor_mask: int
    receiver_mask: int
    band: int = 1
    found: Optional[SwapMove] = None


class _Work(_Rows):
    """Mutable integer-scaled state for the swap search.

    The grid is held as rows (_Rows), built here from the fill as vu is;
    touched holds the masks of each band row the generation has touched,
    as they were before it.

    fu/vu hold the target and the vertical section per finest sub-column,
    both in units of 2**-D where D >= N + K also covers the denominators
    of f's values; margins 2**-n become the integers 2**(D - n).  A
    sub-column's section is a whole number c of cells, vu = c << (D - N).
    For each height c in 0..2**N + 1, above[c] counts the sub-columns at
    height c or more and mass[c] sums their heights in cells; f_top[t]
    sums the t largest target values and f_over[c] counts the
    sub-columns whose target exceeds height c.  dominated says whether
    the sorted section's prefix sums bound f's.

    Within a cell column fu is constant and vu a nonincreasing staircase.
    probe holds the last section change a dominance test computed, runs
    of sub-columns, with its move, for apply to write.
    """

    def __init__(self, params: GridParams, fill, f: StepFunction):
        super().__init__(params, fill)
        self.N, self.K = params.depth, params.subres
        self.V = params.sub_total
        self.D = max(self.N + self.K, *(v.exp for v in f.values))
        self.shift = self.D - self.N
        fcells = _cell_units(f, self.N, self.D, bounded=False)
        self.fu = [u for u in fcells for _ in range(self.subs)]
        ranked = sorted(self.fu)
        self.f_top = [0, *accumulate(reversed(ranked))]
        self.f_over = [self.V - bisect_right(ranked, c << self.shift) for c in range(self.side + 1)]
        self.vu = [c << self.shift for c in _sub_counts(fill, self.subs)]
        heights = [0] * (self.side + 1)
        for v in self.vu:
            heights[v >> self.shift] += 1
        self.above = [*accumulate(reversed(heights))][::-1] + [0]
        self.mass = [*accumulate(c * heights[c] for c in range(self.side, -1, -1))][::-1] + [0]
        self.residual = self.residual_units()  # carried: apply lowers it by each drop
        self.scan: Optional[_Scan] = None
        self.probe: Optional[tuple[SwapMove, tuple]] = None
        self.touched: dict[int, tuple[int, int]] = {}
        self.dominated = self.majorized()

    # -- state maintenance -------------------------------------------------

    def _section_change(self, rows: slice, donor: slice, receiver: slice):
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
            differ = (fj ^ fk) | (nej ^ nek)
            while differ:
                bit = differ & -differ
                differ ^= bit
                at = (bit.bit_length() - 1) * w
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

    def _write_section(self, changes: list[tuple[int, int, int, int]], heights: dict[int, int]) -> int:
        """Apply a section change; returns the drop of |f - v|_1 in
        residual units, f being constant on each run's column.  above and
        mass change only above the least height touched, as the moved
        sub-columns keep their number and total."""
        fu, shift = self.fu, self.shift
        drop = 0
        for i, stop, v, d in changes:
            f, w = fu[i], v + (d << shift)
            self.vu[i:stop] = repeat(w, stop - i)
            drop += (stop - i) * (abs(f - v) - abs(f - w))
        count = total = 0
        for c in range(max(heights, default=0), min(heights, default=0), -1):
            dc = heights.get(c, 0)
            count += dc
            total += c * dc
            self.above[c] += count
            self.mass[c] += total
        return drop

    # -- exact quantities ----------------------------------------------------

    def residual_units(self) -> int:
        """|f - v|_1 in residual units, counted over every sub-column."""
        return sum(map(abs, map(sub, self.fu, self.vu)))

    def residual_dyadic(self) -> Dyadic:
        """The carried |f - v|_1."""
        return Dyadic(self.residual, self.D + self.N + self.K)

    def _dominates(self, heights: dict[int, int], whole: bool = False) -> bool:
        """Whether the sorted section, with the number of sub-columns at
        each height changed by heights, still has prefix sums bounding
        f's.  A dominating state tests the heights strictly between the
        least and the greatest changed one (see the module docstring);
        otherwise, or when whole is set, every height is tested.

        The section is linear along a run of equal heights c and f's
        prefix sum concave, so their gap is smallest at the run position
        nearest to f_over[c], where f's values fall to c or below.
        """
        if whole or not self.dominated:
            lo, hi = -1, self.side + 1
        else:
            lo, hi = min(heights, default=0), max(heights, default=0)
        above, f_top, f_over, shift = self.above, self.f_top, self.f_over, self.shift
        rise = heights.get(hi, 0)
        pos, total = above[hi] + rise, self.mass[hi] + hi * rise
        for c in range(hi - 1, lo, -1):
            n = above[c] - above[c + 1] + heights.get(c, 0)
            if n:
                end = pos + n
                t = min(max(f_over[c], pos), end)
                if f_top[t] > (total + c * (t - pos)) << shift:
                    return False
                pos, total = end, total + c * n
        return True

    def majorized(self) -> bool:
        """Prefix integral of sorted f never exceeds that of sorted v."""
        return self._dominates({}, whole=True)

    # -- swap conditions -------------------------------------------------------

    def _excess_at(self, gen: int, idx: int, at: int):
        """v - f on sub-column at of each cell column of the class.  f is
        constant and v nonincreasing on a column, so v - f is least on its
        last sub-column and greatest on its first."""
        width = (self.side >> gen) * self.subs
        cols = slice((idx - 1) * width + at, idx * width, self.subs)
        return map(sub, self.vu[cols], self.fu[cols])

    def _donor_ok(self, gen: int, j: int) -> bool:
        return min(self._excess_at(gen, j, self.subs - 1)) >= 1 << (self.D - gen)

    def _receiver_ok(self, gen: int, k: int) -> bool:
        return max(self._excess_at(gen, k, 0)) <= -(1 << (self.D - gen))

    def _contained_pairs(self, gen: int, band: int, donors, receivers):
        """(donor, receiver) pairs from the ascending lists donors and
        receivers, donor-major with receivers ascending, whose receiver
        block in the band is contained in the donor block cell by cell
        and differs from it.

        A block packs its span rows' masks side by side.  No cell is
        partial in both blocks, a row holding at most one partial cell,
        so the receiver block is contained in the donor block when no
        receiver cell is nonempty where the donor's is not full, and it
        is a proper subset when the masks differ as well (_block_fits).

        Two blocks with the same masks answer every test alike, so the
        receivers are grouped by block and each distinct donor block is
        tested once against each group.  Its fitting groups, merged in
        ascending order, are the receivers a pairwise loop would keep,
        in the order it would keep them, so the pairs and their order are
        the pairwise loop's.  At generation N a block is one cell, and
        the test needs no loop over the classes at all (_cell_pairs).
        """
        span = self.side >> gen
        if span == 1:
            yield from self._cell_pairs(band, donors, receivers)
            return
        full, nonempty = self.full, self.nonempty
        r0 = (band - 1) * span
        bf = bne = stride = 0
        for i in range(span):
            at = i * self.side
            bf |= full[r0 + i] << at
            bne |= nonempty[r0 + i] << at
            stride |= ((1 << span) - 1) << at

        def block(c: int) -> tuple[int, int]:
            at = (c - 1) * span
            return (bf >> at) & stride, (bne >> at) & stride

        groups: dict[tuple[int, int], list[int]] = {}
        for k in receivers:
            groups.setdefault(block(k), []).append(k)
        fitting: dict[tuple[int, int], list[int]] = {}
        for j in donors:
            key = block(j)
            ks = fitting.get(key)
            if ks is None:
                fits = [g for (fk, nek), g in groups.items() if _block_fits(*key, fk, nek)]
                # each group is ascending, so sorting their concatenation merges them
                ks = fitting[key] = fits[0] if len(fits) == 1 else sorted(chain.from_iterable(fits))
            for k in ks:
                yield j, k

    def _cell_pairs(self, band: int, donors, receivers):
        """_contained_pairs at generation N, where a block is one cell,
        full, partial or empty.  A full donor takes every receiver that is
        not full, a partial donor only the empty ones, an empty donor
        none; so the band row's two masks and the class masks give the
        pairs, and a band without one costs a few big-int operations.  The
        search's lists come with their masks; other lists are masked
        here."""
        full, nonempty = self.full[band - 1], self.nonempty[band - 1]
        scan = self.scan
        if scan is not None and donors is scan.donors and receivers is scan.receivers:
            dm, rm = scan.donor_mask, scan.receiver_mask
        else:
            dm, rm = _class_mask(donors), _class_mask(receivers)
        not_full, empty = rm & ~full, rm & ~nonempty
        dm &= (full if not_full else 0) | (nonempty & ~full if empty else 0)
        for j in _classes(dm):
            for k in _classes(not_full if full >> (j - 1) & 1 else empty):
                yield j, k

    def _proper_subset(self, gen: int, band: int, j: int, k: int) -> bool:
        return any(self._contained_pairs(gen, band, (j,), (k,)))

    def _dominance_after(self, move: SwapMove) -> bool:
        """Prefix dominance of the section the move would leave, read off
        the move's cells.  Only the probe is kept, for apply."""
        change = self._section_change(*_squares(self.side, move))
        self.probe = move, change
        return self._dominates(change[1])

    def swappable(self, move: SwapMove) -> bool:
        if move.gen > self.N:
            return False
        return (
            self._donor_ok(move.gen, move.donor)
            and self._receiver_ok(move.gen, move.receiver)
            and self._proper_subset(move.gen, move.band, move.donor, move.receiver)
            and self._dominance_after(move)
        )

    def find_first(self, gen: int) -> Optional[SwapMove]:
        """First swappable move in (band, donor, receiver) ascending order.

        The donor and receiver lists and the band to resume at are built
        by the generation's first search (self.scan) and kept current by
        apply.  This finds the move a rescan of every band would, because
        a swap of the generation
          * moves the section only on its donor and receiver classes and
            leaves them at or above and at or below f, so no class joins
            a list and only those two are tested again;
          * writes only its own band's rows, so a band that yielded no
            contained pair yields none after it;
          * can change dominance anywhere, so a band where dominance
            rejected a pair is not skipped.
        The next search resumes at the first band that yielded any pair,
        the hit or a rejection; only bands that yielded none are skipped.
        """
        top = 1 << gen
        scan = self.scan
        if scan is None or scan.gen != gen:
            donors = [j for j in range(1, top + 1) if self._donor_ok(gen, j)]
            # a receiver is never a donor: the margins have opposite signs
            receivers = [k for k in range(1, top + 1) if self._receiver_ok(gen, k)]
            masks = _class_mask(donors), _class_mask(receivers)
            scan = self.scan = _Scan(gen, donors, receivers, *masks)
        if not (scan.donors and scan.receivers):
            return None
        resume = top + 1
        for band in range(scan.band, top + 1):
            for j, k in self._contained_pairs(gen, band, scan.donors, scan.receivers):
                resume = min(resume, band)
                move = SwapMove(gen, band, j, k)
                if self._dominance_after(move):
                    scan.band, scan.found = resume, move
                    return move
        scan.band = resume
        return None

    def apply(self, move: SwapMove) -> SwapRecord:
        """Exchange the move's squares and update the section, the L1 drop
        and the height counts from the exchanged cells.  The section change
        is the last probe's when that probe was of this move, nothing
        having changed since; any other move computes it.  The move the
        last search found keeps dominance, as its probe showed, and keeps
        the generation's search state, less a donor or receiver that lost
        its margin; any other move is tested and drops the search state."""
        rows, donor, receiver = _squares(self.side, move)
        probe, self.probe = self.probe, None
        if probe is not None and probe[0] == move:
            changes, heights = probe[1]
        else:
            changes, heights = self._section_change(rows, donor, receiver)
        scan = self.scan
        found = scan is not None and move == scan.found
        self.dominated = found or self._dominates(heights)
        for r in range(rows.start, rows.stop):
            if r not in self.touched:
                self.touched[r] = self.full[r], self.nonempty[r]
        moved = self._exchange(rows, donor, receiver)
        drop = self._write_section(changes, heights)
        self.residual -= drop
        if found:
            scan.found = None
            if not self._donor_ok(move.gen, move.donor):
                scan.donors.remove(move.donor)
                scan.donor_mask ^= 1 << (move.donor - 1)
            if not self._receiver_ok(move.gen, move.receiver):
                scan.receivers.remove(move.receiver)
                scan.receiver_mask ^= 1 << (move.receiver - 1)
        else:
            # the facts behind the kept state hold only for the move found
            self.scan = None
        return SwapRecord(
            move.gen,
            move.band,
            move.donor,
            move.receiver,
            Dyadic(drop, self.D + self.N + self.K),
            Dyadic(2 * moved, 2 * self.N + self.K),
        )

    def run_generation(
        self, gen: int, on_swap: Optional[Callable[[SwapRecord], None]] = None
    ) -> GenerationRecord:
        """Apply first-found swaps of one generation until none remains,
        passing each executed swap to on_swap.  The symmetric difference
        is read off the masks of the band rows the generation touched,
        before and after it."""
        self.scan = None
        self.touched = {}
        count = 0
        while (move := self.find_first(gen)) is not None:
            rec = self.apply(move)
            # a strict drop each swap is what makes the loop finite
            if rec.l1_drop <= ZERO:
                raise InvariantViolation(f"generation {gen}: a swap did not lower the residual")
            if on_swap is not None:
                on_swap(rec)
            count += 1
        sym = sum(_units(self.subs, self.part[r], f ^ self.full[r], ne ^ self.nonempty[r])
                  for r, (f, ne) in self.touched.items())
        return GenerationRecord(gen, count, self.residual_dyadic(), Dyadic(sym, 2 * self.N + self.K))

    def sweep(
        self,
        feasibility: Optional[FeasibilityReport],
        on_swap: Optional[Callable[[SwapRecord], None]] = None,
    ) -> TraceSummary:
        """Run generations 1..N to exhaustion and return the trace that
        carries the given feasibility report; each executed swap is also
        passed to on_swap.  The residual is carried from swap to swap and
        recounted once, at the end."""
        initial = self.residual_dyadic()
        swaps: list[SwapRecord] = []

        def record(rec: SwapRecord) -> None:
            swaps.append(rec)
            if on_swap is not None:
                on_swap(rec)

        gens = [self.run_generation(gen, record) for gen in range(1, self.N + 1)]
        if self.residual_units() != self.residual:
            raise InvariantViolation("the carried residual differs from its recount")
        return TraceSummary(
            tuple(gens), tuple(swaps), initial, self.residual_dyadic(), feasibility
        )


def is_swappable(e: DyadicSet, f: StepFunction, move: SwapMove) -> bool:
    """Exact test of the four swap conditions for one candidate move.

    Returns False for generations beyond the grid depth, and raises
    ValueError for a set with a row of two partial cells.  The caller is
    responsible for the standing hypothesis that f's rearrangement
    primitive is dominated by the section's; InvariantViolation is raised
    when it fails.
    """
    work = _Work(e.params, e.fill, f)
    if not work.dominated:
        raise InvariantViolation("prefix dominance hypothesis violated for this set")
    return work.swappable(move)


def optimize_generation(e: DyadicSet, f: StepFunction, gen: int) -> DyadicSet:
    """Apply first-found swaps of one generation until none remains.

    Deterministic: candidates are scanned in ascending (band, donor,
    receiver) order and the first admissible one fires; each swap strictly
    decreases |f - v|_1 on a finite grid, so the loop terminates.  A row
    of two partial cells raises ValueError.
    """
    if not 1 <= gen <= e.params.depth:
        raise ValueError(f"generation must lie in 1..{e.params.depth}")
    work = _Work(e.params, e.fill, f)
    work.run_generation(gen)
    return work.to_set()


def reconstruct(
    f: StepFunction,
    g: StepFunction,
    params: GridParams,
    on_swap: Optional[Callable[[SwapRecord], None]] = None,
) -> tuple[DyadicSet, TraceSummary]:
    """Drive the hypograph of g toward vertical section f, one generation
    at a time.

    Requires the pair to pass check_hlp and both functions to live on the
    grid (f constant per column band, g constant per row band with
    sub-unit values).  Horizontal sections equal g at every stage; the
    residual |f - v|_1 is nonincreasing in the generation.  Returns the
    terminal set and the full trace.
    """
    rep = check_hlp(f, g)
    if not rep.feasible:
        raise InfeasibleInput(rep)
    work = _Work(params, initial_set(g, params).fill, f)
    if not work.dominated:
        raise InvariantViolation("feasible start must dominate the target")
    summary = work.sweep(rep, on_swap)
    return work.to_set(), summary


class ReplayState(_Work):
    """The swap engine running the moves of a recorded trace: find_first
    hands out the next record instead of searching, and apply re-derives
    every per-swap invariant of it."""

    def __init__(self, params: GridParams, fill, f: StepFunction, records: Sequence[SwapRecord]):
        super().__init__(params, fill, f)
        self.records = tuple(records)
        self.next = 0  # index of the next record to replay

    def find_first(self, gen: int) -> Optional[SwapMove]:
        """The next recorded move when it belongs to generation gen, None
        when it belongs to a later one or the trace is used up; raises
        MalformedTrace for a record that cannot come next."""
        if self.next == len(self.records):
            return None
        idx, rec = self.next, self.records[self.next]
        # the sweep only passes a record's generation when the next one is
        # later, so an earlier generation here means the order decreased
        if idx and rec.gen < gen:
            raise MalformedTrace(f"record {idx}: generation order decreases")
        if rec.gen > self.N:
            raise MalformedTrace(f"record {idx}: generation beyond grid depth")
        try:
            move = SwapMove(rec.gen, rec.band, rec.donor, rec.receiver)
        except ValueError as exc:
            raise MalformedTrace(f"record {idx}: {exc}") from exc
        return move if move.gen == gen else None

    def apply(self, move: SwapMove) -> SwapRecord:
        # a wrapper, as perfbench/tracing.py hooks the replay by the name
        # verify_and_apply (tests/test_perfbench_hooks.py guards that)
        return self.verify_and_apply(move)

    def verify_and_apply(self, move: SwapMove) -> SwapRecord:
        """Apply the next recorded swap, re-derive its invariants and
        compare them with the record; raises ReplayViolation with the
        record index at the first that fails."""
        idx = self.next
        recorded = self.records[idx]
        self.next += 1
        rows, donor, receiver = _squares(self.side, move)
        band = range(rows.start, rows.stop)
        before = [(self.full[r], self.nonempty[r]) for r in band]
        vu_before = self.vu[:]

        rec = super().apply(move)

        # a horizontal exchange keeps each band row's sum, and the one-sided
        # differences of the two blocks match the column integrals of the
        # section change (on one exact scale); both read off the row masks
        s = self.subs
        blocks = sum(((1 << (c.stop - c.start)) - 1) << c.start for c in (donor, receiver))
        lost = gained = 0
        for r, (f0, ne0) in zip(band, before):
            f1, ne1, width = self.full[r], self.nonempty[r], self.part[r]
            if _units(s, width, f1, ne1) != _units(s, width, f0, ne0):
                raise ReplayViolation(idx, "horizontal section changed")
            lost += _units(s, width, f0 & ~f1 & blocks, ne0 & ~ne1 & blocks)
            gained += _units(s, width, f1 & ~f0 & blocks, ne1 & ~ne0 & blocks)
        donor_cols = slice(donor.start * s, donor.stop * s)
        recv_cols = slice(receiver.start * s, receiver.stop * s)
        drop_d = sum(vu_before[donor_cols]) - sum(self.vu[donor_cols])
        rise_k = sum(self.vu[recv_cols]) - sum(vu_before[recv_cols])
        # lost cell units are areas 2**-(2N+K); section sums are in units
        # 2**-(D+N+K): lost * 2**(D-N) must equal the section-change sum
        if lost << (self.D - self.N) != drop_d:
            raise ReplayViolation(idx, "set loss does not match donor-column section drop")
        if gained << (self.D - self.N) != rise_k:
            raise ReplayViolation(idx, "set gain does not match receiver-column section rise")

        # the L1 error drops by exactly the symmetric difference
        sym = Dyadic(lost + gained, 2 * self.N + self.K)
        if sym != rec.sym_diff:
            raise ReplayViolation(idx, "symmetric difference bookkeeping mismatch")
        if not sym:
            raise ReplayViolation(idx, "swap moved no mass")
        if rec.l1_drop != sym:
            raise ReplayViolation(idx, "L1 error did not drop by the symmetric difference")

        # the donor stays between f and its old section and the receiver
        # between its old section and f, checked left to right; every other
        # column is unchanged
        corridors = [
            (donor_cols, self.fu, vu_before, "donor column left the f .. v_before corridor"),
            (recv_cols, vu_before, self.fu, "receiver column left the v_before .. f corridor"),
        ]
        if move.receiver < move.donor:
            corridors.reverse()
        for cols, low, high, what in corridors:
            if not all(lo <= v <= hi for lo, v, hi in zip(low[cols], self.vu[cols], high[cols])):
                raise ReplayViolation(idx, what)
        left, right = corridors[0][0], corridors[1][0]
        rest = slice(None, left.start), slice(left.stop, right.start), slice(right.stop, None)
        if any(self.vu[cols] != vu_before[cols] for cols in rest):
            raise ReplayViolation(idx, "untouched column changed")

        if not self.dominated:
            raise ReplayViolation(idx, "prefix dominance lost after swap")

        # the recorded exact values are the replayed ones
        if recorded.sym_diff != rec.sym_diff:
            raise ReplayViolation(
                idx,
                f"recorded symmetric difference {recorded.sym_diff} != replayed {rec.sym_diff}",
            )
        if recorded.l1_drop != rec.l1_drop:
            raise ReplayViolation(
                idx, f"recorded L1 drop {recorded.l1_drop} != replayed {rec.l1_drop}"
            )
        return rec


def discrete_exact_set(
    f: StepFunction, g: StepFunction, params: GridParams
) -> Optional[DyadicSet]:
    """Zero-residual realization through the matrix constructor, when the
    targets are whole numbers of cells per band and column.

    Returns None when a value is off the coarse grid or the margins are
    not realizable.
    """
    try:
        cols = _cell_units(f, params.depth, params.depth)
        rows = _cell_units(g, params.depth, params.depth)
    except QuantizationError:
        return None
    a = realize_exact_margins(rows, cols)
    if a is None:
        return None
    cap = params.sub_per_cell
    return DyadicSet(params, tuple(tuple(cap * x for x in row) for row in a.entries))
