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
The set is written out row by row from the masks, and is valid by
construction, so it skips DyadicSet's per-cell check.
The engine (is_swappable, optimize_generation, swap, the replay) thus
takes only such sets and raises ValueError on a row of two partial
cells; DyadicSet, the sections, the images and verify take any set.

reconstruct and audit_trace start the engine from g's 2**N band values,
without a cell grid.  A band of u = k * 2**K + rem sub-units is the
full mask 2**k - 1, the nonempty mask 2**(k + [rem > 0]) - 1 and the
partial width rem.  Column j's full count is the number of bands with
k > j, and each band with rem > 0 gives column k a partial width rem:
O(2**N) work where the grid costs O(4**N) and a section per sub-column
O(2**(N+K)).  initial_set is the same rows written out as a set.

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

The section is held per cell column, not per sub-column: column j's
section is the staircase F_j + #{partial widths w in column j with
w > m} over its sub-columns m, F_j being its number of full cells (the
columns module).  A row holds at most one partial cell, so the grid
holds at most 2**N widths, and the engine keeps per column f's value,
F_j and the sorted widths: O(2**N) words beside the row masks, whatever
K is.  f is constant on a column, so a donor's least v - f is F_j less
f and a receiver's greatest is its nonempty count less f, and the
residual |f - v|_1 and the number of sub-columns at each height are
sums over the staircase's steps.

A swap's bookkeeping follows its band's rows.  The exchange puts the
receiver's cells in the donor column, so the donor column's full count
changes by (receiver full - donor full) over the band's rows, a vertical
popcount of the two blocks' full masks taken on one digit string of the
band, and its widths lose the donor's partial cells and gain the
receiver's, at most one per row; the receiver column changes the other
way.  The change of the number of sub-columns at each height and of the
residual is the new staircase of each changed column less its old one,
so a swap costs its rows and its columns' steps, never the 2**K
sub-columns of a cell.  The change is computed once per swap, by the
probe that tests its dominance; the search hands it to apply with the
move it found, and apply writes the two classes' column states.

Dominance is tested at thresholds, as swap_construct tests it: with v
the section in whole cells and Phi_x(c) = sum_i (x_i - c)^+, the sorted
prefix sums of v bound those of f exactly when Phi_f(c) <= Phi_v(c) at
every integer height c in 0..2**N (the proof is in the matrices module
docstring).  The engine holds the slacks Phi_v(c) * 2**shift - Phi_f(c),
f in units 2**-D and a cell 2**shift of them, in the one packed form
both engines use (matrices._ThresholdSlack), one biased field per
height.  A swap that changes the number of sub-columns at height h by
n_h changes Phi_v(c) by sum_h n_h (h - c)^+.  It keeps the number of
sub-columns and their total, so the change is 0 at and below its least
height and above its greatest, and linear in c between two consecutive
changed heights: one piece per gap, cut from a precomputed row of ones
and a precomputed staircase, so each field is built once.  The probe
adds the change to the fields and reads every bias bit, so it is exact
from any state, dominated or not; apply adds the same change.

A search keeps its state for the length of a generation: the donor and
receiver classes as masks, one bit per class, and the band it resumes
at.  Three facts keep the first swappable move in (band, donor,
receiver) order the one it finds:

  * a swap changes the section only on its donor and receiver classes,
    and by at most the margin, so the donor stays at or above f and the
    receiver at or below it: no class joins a mask, and only the two
    touched classes are tested again, a class that lost its margin
    leaving its mask;
  * a swap writes only the rows of its own band, so a band that held no
    contained pair holds none after it, the masks having only shrunk;
  * dominance can change anywhere, so a band that held a pair rejected
    by dominance may fire later, and the next search resumes at the
    first band that held any pair, never past it.

One engine, _Work, runs the generation sweep, the search and the swaps
and builds the trace.  Replay is the same sweep running recorded moves:
ReplayState's find_first hands out the next record of a trace instead of
searching, and its apply re-derives every invariant of that swap, so
report.audit_trace only compares the recorded summary with the replayed
one.  The replay keeps one copy of the column states, made at the start:
each swap reads its two classes' old states there, checks the column
sums F_j * 2**K + sum of widths and the corridors, staircase against
staircase at their steps, and writes the new states back, and the copy
must then equal the state.  The copy holds the state's own objects, ints
and tuples of widths, so that comparison is a pointer walk over 2**N
columns, and it catches a column changed outside a swap's classes, by
the swap or between two swaps.
"""

from __future__ import annotations

import sys
from array import array
from bisect import bisect_right
from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate, chain, repeat
from operator import add, eq, lshift, sub
from typing import Callable, Optional, Sequence

from .columns import _ColumnChange, _at_or_below, _count_steps, _gap, _moved
from .dyadic import ONE, ZERO, Dyadic
from .feasibility import FeasibilityReport, check_hlp, counts_above
from .matrices import _ThresholdSlack, _bits, _digits, _mask, realize_exact_margins
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

    @classmethod
    def _trusted(cls, params: GridParams, fill: tuple[tuple[int, ...], ...]) -> "DyadicSet":
        """The set of a fill that is valid by construction, made without the
        per-cell check: the engine's rows written out (_Rows.to_set)."""
        e = object.__new__(cls)
        object.__setattr__(e, "params", params)
        object.__setattr__(e, "fill", fill)
        return e

    def measure(self) -> Dyadic:
        total = sum(w for row in self.fill for w in row)
        return Dyadic(total, 2 * self.params.depth + self.params.subres)


def _cell_units(f: StepFunction, depth: int, exp: int, bounded: bool = True) -> list[int]:
    """f's value on each of the 2**depth cells, as an integer over 2**-exp.

    QuantizationError for a breakpoint off the cell grid, then, value by
    value from the left, for one above 1 (when bounded) or off 2**-exp.
    The bound is tested on the values as integers over 2**-fine, fine
    the finer of exp and the values' own grid: one is above 1 iff its
    integer is above 2**fine.  No value is off 2**-exp when fine = exp,
    so those integers are the units."""
    for b in f.breakpoints[1:-1]:
        if b.exp > depth:
            raise QuantizationError(f"breakpoint {b} is not a multiple of 2**-{depth}")
    fine = max(exp, *(v.exp for v in f.values))
    runs, one = f.runs(depth, fine), 1 << fine
    for (u, _), v in zip(runs, f.values):
        if bounded and u > one:
            raise QuantizationError(f"band value {v} outside [0, 1]")
        if v.exp > exp:
            raise QuantizationError(f"band value {v} not a multiple of 2**-{exp}")
    return [u for u, cells in runs for _ in range(cells)]


def initial_set(g: StepFunction, params: GridParams) -> DyadicSet:
    """Hypograph of g: band i holds [0, g_i) x (the band).

    g must be constant on each band with values in [0, 1] that are
    multiples of the sub-unit 2**-(N+K).  The resulting vertical cross
    section equals the distribution function of g exactly.
    """
    units = _cell_units(g, params.depth, params.depth + params.subres)
    return _Rows.of_bands(params, units).to_set()


def _full_counts(fill, subs: int) -> list[int]:
    """Per cell column, the cells of the fill that are full."""
    return [col.count(subs) for col in zip(*fill)]


def vertical_section(e: DyadicSet) -> StepFunction:
    """v_E(x): total height of the set above x, exact on the sub-unit grid.

    Each cell column is read as the staircase of crosscut.columns, its
    full count plus the number of its partial widths above the
    sub-column, whatever the number of partial cells in a row: a column
    of p partial cells is p + 1 steps, so the cost follows the cells, not
    the 2**K sub-columns of each.  The steps stay integers; Dyadics are
    built only where the height changes."""
    p = e.params
    subs = p.sub_per_cell
    starts, heights = [], []  # sub-column where each height begins
    base = 0
    for col in zip(*e.fill):
        widths = sorted(w for w in col if 0 < w < subs)
        h, at = col.count(subs) + len(widths), 0
        for w in (*widths, subs):
            if w > at and (not heights or heights[-1] != h):
                starts.append(base + at)
                heights.append(h)
            h, at = h - 1, w
        base += subs
    exp = p.depth + p.subres
    return StepFunction(
        (*(Dyadic(m, exp) for m in starts), ONE), tuple(Dyadic(h, p.depth) for h in heights)
    )


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
        self._hold(params, [], [], [])
        for r, row in enumerate(fill):
            full, nonempty = _mask(map(eq, row, repeat(self.subs))), _mask(map(bool, row))
            partial = nonempty & ~full
            if partial & (partial - 1):
                raise ValueError(f"fill row {r} holds two partial cells; the engine takes one at most")
            self.full.append(full)
            self.nonempty.append(nonempty)
            self.part.append(row[partial.bit_length() - 1] if partial else 0)

    def _hold(self, params: GridParams, full: list[int], nonempty: list[int], part: list[int]) -> None:
        self.params = params
        self.side, self.subs = params.side, params.sub_per_cell
        self.full, self.nonempty, self.part = full, nonempty, part

    @classmethod
    def of_bands(cls, params: GridParams, units: Sequence[int]):
        """The hypograph's rows, read off its band values in sub-units and
        not through a cell grid: a band of u = k * 2**K + rem sub-units
        holds k full cells and then, when rem > 0, a partial cell of
        width rem.  The instance is made without __init__, so a subclass
        sets up the rest of its state itself."""
        full, nonempty, part = [], [], []
        for u in units:
            k, rem = divmod(u, params.sub_per_cell)
            full.append((1 << k) - 1)
            nonempty.append((1 << (k + (rem > 0))) - 1)
            part.append(rem)
        return cls.of_masks(params, full, nonempty, part)

    @classmethod
    def of_masks(cls, params: GridParams, full: list[int], nonempty: list[int], part: list[int]):
        """The rows of the given masks and partial widths, which the caller
        vouches for; made without __init__, as of_bands."""
        rows = cls.__new__(cls)
        rows._hold(params, full, nonempty, part)
        return rows

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
        """The rows written out as a set.  Each row is its full mask's
        digit string mapped to cells of 0 and 2**K through a translation
        table, into a buffer of machine ints, with its one partial width
        patched in.  Such rows are valid by construction, so the set skips
        DyadicSet's per-cell check (DyadicSet._trusted)."""
        side = self.side
        code, size, at, table = _cell_codec(self.params.subres)
        buf = bytearray(size * side)
        # a bytearray reads as its ints already, and faster than a view
        cells = memoryview(buf).cast(code) if size > 1 else buf
        rows = []
        for f, ne, width in zip(self.full, self.nonempty, self.part):
            buf[at::size] = _digits(f, side).encode().translate(table)
            if width:
                j = (ne ^ f).bit_length() - 1
                cells[j] = width
                rows.append(tuple(cells))
                cells[j] = 0
            else:
                rows.append(tuple(cells))
        return DyadicSet._trusted(self.params, tuple(rows))


@lru_cache(maxsize=None)
def _cell_codec(subres: int) -> tuple[str, int, int, bytes]:
    """How _Rows.to_set writes cells of 0 and cap = 2**subres: the
    typecode of the smallest machine int that holds cap, its size in
    bytes, the one byte of such an int that is nonzero in cap (native
    order), and the table that maps the digits '0' and '1' to that byte's
    value in 0 and in cap."""
    code = next(c for c in "BHIL" if 8 * array(c).itemsize > subres)
    size = array(code).itemsize
    at = subres // 8 if sys.byteorder == "little" else size - 1 - subres // 8
    return code, size, at, bytes.maketrans(b"01", bytes((0, 1 << subres % 8)))


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


def _block_fits(fj: int, nej: int, fk: int, nek: int) -> bool:
    """Whether the receiver block with full and nonempty masks fk, nek is
    a proper subset of the donor block fj, nej, when no cell is partial
    in both: no receiver cell is nonempty where the donor's is not full,
    and the masks differ."""
    return not nek & ~fj and nej != fk


@lru_cache(maxsize=8)
def _classes(mask: int) -> list[int]:
    """The set bits of a class mask, ascending.  A generation's searches
    scan band after band with the same two masks, which change only when
    a class leaves one, so each mask value is decoded once.  The lists are
    shared and read only; lists and not tuples, because CPython keeps
    freed short tuples on free lists that only grow the process."""
    return [*_bits(mask)]


@dataclass
class _Scan:
    """Search state of one generation: the classes still passing the
    donor and the receiver margin, as masks with bit c - 1 for class c,
    the first band that a search scans, and the move the last search
    found with the section and slack change its probe computed, for
    apply."""

    gen: int
    donors: int
    receivers: int
    band: int = 1
    found: Optional[tuple[SwapMove, tuple]] = None


class _Work(_Rows):
    """Mutable integer-scaled state for the swap search.

    The grid is held as rows (_Rows) and the section as column states.
    __init__ builds both from a fill grid; hypograph builds both from g's
    band values, the start reconstruct and audit_trace take.  touched
    holds the masks of each band row the generation has touched, as they
    were before it.

    Per cell column j: fcol[j] is f's value in units of 2**-D, where
    D >= N + K also covers the denominators of f's values, so margins
    2**-n become the integers 2**(D - n); F[j] is the number of full
    cells; widths[j] is the tuple of the column's partial widths,
    ascending.  The section at sub-column m is F[j] + #{w > m} cells, a
    cell being 2**shift = 2**(D - N) units (module docstring), so no
    state has an entry per sub-column.  thresholds holds the packed slack
    Phi_v(c) * 2**shift - Phi_f(c) of each height c in 0..2**N, and
    dominated says whether the sorted section's prefix sums bound f's,
    every slack being nonnegative.  residual is |f - v|_1 in units of
    2**-(D + N + K), carried from swap to swap.
    """

    def __init__(self, params: GridParams, fill, f: StepFunction):
        super().__init__(params, fill)
        self._start(f, _full_counts(fill, self.subs))

    @classmethod
    def hypograph(cls, params: GridParams, g: StepFunction, f: StepFunction):
        """The engine started from the hypograph of g, built from g's band
        values alone: the rows by _Rows.of_bands, and column j's full
        count as the number of bands with more than j full cells.  Both
        cost O(2**N); no cell grid is built.  g's values are checked
        before f's, as _Work's are when it is given
        initial_set(g, params).fill."""
        units = _cell_units(g, params.depth, params.depth + params.subres)
        work = cls.of_bands(params, units)
        work._start(f, counts_above([u >> params.subres for u in units], params.side))
        return work

    def _start(self, f: StepFunction, full_counts: list[int]) -> None:
        """The state both starts share, from f and each column's number of
        full cells; the partial widths are read off the rows."""
        params = self.params
        self.N, self.K = params.depth, params.subres
        self.D = max(self.N + self.K, *(v.exp for v in f.values))
        self.shift = self.D - self.N
        side, shift, subs = self.side, self.shift, self.subs
        self.fcol = _cell_units(f, self.N, self.D, bounded=False)
        self.F = full_counts
        widths = [[] for _ in range(side)]
        for full, nonempty, width in zip(self.full, self.nonempty, self.part):
            if width:
                widths[(nonempty ^ full).bit_length() - 1].append(width)
        self.widths = [tuple(sorted(ws)) for ws in widths]
        # Phi_v(c), the suffix sums of the number of sub-columns above each
        # height, and Phi_f(c): the t = #{f > c} largest cell values less t
        # times c, per sub-column
        heights: dict[int, int] = {}
        for full, ws in zip(self.F, self.widths):
            _count_steps(heights, full, ws, subs, 1)
        above_from_top = accumulate(heights.get(h, 0) for h in range(side, 0, -1))
        phi_v = [*accumulate(above_from_top, initial=0)][::-1]
        ranked = sorted(self.fcol)
        top = [0, *accumulate(reversed(ranked))]
        over_f = [side - bisect_right(ranked, c << shift) for c in range(side + 1)]
        phi_f = [subs * (top[t] - t * (c << shift)) for c, t in enumerate(over_f)]
        self.thresholds = _ThresholdSlack(phi_v, phi_f, shift)
        self.residual = self.residual_units()  # carried: apply lowers it by each drop
        self.scan: Optional[_Scan] = None
        self.touched: dict[int, tuple[int, int]] = {}
        self.dominated = self.thresholds.holds()

    # -- state maintenance -------------------------------------------------

    def _section_change(self, rows: slice, donor: slice, receiver: slice):
        """The section change of exchanging the two squares, read off their
        rows' masks: the new state of each column it changes, as (column,
        full count, widths, drop of |f - v|_1 in residual units), and the
        net change of the number of sub-columns at each height.

        The exchange puts the receiver's cells in the donor column, so
        the donor column's full count changes by (receiver full - donor
        full) over the band's rows, and its widths lose the donor's
        partial cells and gain the receiver's; the receiver column
        changes the other way.  The full counts are vertical popcounts of
        the blocks' full masks, taken on one digit string; only the
        partial cells, at most one per row, are walked one by one.  The
        height counts and the drop are each changed column's new
        staircase less its old one, f being constant on a column.
        """
        full, nonempty, part = self.full, self.nonempty, self.part
        j0, k0 = donor.start, receiver.start
        span = donor.stop - j0
        if span == 1:
            # generation N: one row, one cell each.  Most probes of a search
            # move one whole cell here, so this and the kept-widths walk
            # below skip the digit string and the two staircase walks per
            # column that the general path would take, which made the
            # small-batch benchmark's solve time 10 % longer
            r = rows.start
            f, width = full[r], part[r]
            at = (nonempty[r] ^ f).bit_length() - 1 if width else -1
            ends = ([width], []) if at == j0 else ([], [width]) if at == k0 else None
            d = (f >> k0 & 1) - (f >> j0 & 1)
            moves = [(0, d, ends)] if d or ends else []
        else:
            low = (1 << span) - 1
            blocks = low << j0 | low << k0
            # per column offset that holds a partial cell: the widths that
            # leave the donor column and those that leave the receiver column
            moving = {}
            # a row's digits are its receiver block's bits and then its donor
            # block's, each from the highest, so column offset c is every
            # 2 * span-th digit from span - 1 - c and from 2 * span - 1 - c
            pair = 2 * span
            spec = f"0{pair}b"
            digits = []
            for r in range(rows.start, rows.stop):
                f = full[r]
                digits.append(format((f >> k0 & low) << span | f >> j0 & low, spec))
                width = part[r]
                # at is the column of the row's partial cell when either block holds it
                if width and (at := ((nonempty[r] ^ f) & blocks).bit_length() - 1) >= 0:
                    c, leaves = (at - j0, 0) if j0 <= at < j0 + span else (at - k0, 1)
                    ends = moving.get(c)
                    if ends is None:
                        ends = moving[c] = ([], [])
                    ends[leaves].append(width)
            text = "".join(digits)
            moves = [
                (c, d, moving.get(c))
                for c in range(span)
                if (d := text[span - 1 - c :: pair].count("1") - text[pair - 1 - c :: pair].count("1"))
                or c in moving
            ]
        F, widths, fcol, subs, shift = self.F, self.widths, self.fcol, self.subs, self.shift
        changes: list[_ColumnChange] = []
        heights: dict[int, int] = {}
        get, append = heights.get, changes.append
        for c, d, ends in moves:
            j, k = j0 + c, k0 + c
            if ends is None:
                # no partial cell moves: both staircases shift by d whole,
                # walked once, each step taken off at h and put on at h + e
                for col, e in ((j, d), (k, -d)):
                    f, ws, full = fcol[col], widths[col], F[col]
                    h, at = full + len(ws), 0
                    # a column that stays on one side of f moves every
                    # sub-column by e cells away from f or toward it
                    if (full + e if e < 0 else full) << shift >= f:
                        drop = -e * subs << shift
                    elif (h if e < 0 else h + e) << shift <= f:
                        drop = e * subs << shift
                    else:
                        drop = _gap(f, full, ws, subs, shift) - _gap(f, full + e, ws, subs, shift)
                    for w in (*ws, subs):
                        n, at = w - at, w
                        heights[h] = get(h, 0) - n
                        heights[h + e] = get(h + e, 0) + n
                        h -= 1
                    append((col, full + e, ws, drop))
                continue
            new_j = _moved(widths[j], *ends)
            if not d and new_j == widths[j]:
                continue
            new_k = _moved(widths[k], *ends[::-1])
            for col, count, ws in ((j, F[j] + d, new_j), (k, F[k] - d, new_k)):
                _count_steps(heights, F[col], widths[col], subs, -1)
                _count_steps(heights, count, ws, subs, 1)
                drop = _gap(fcol[col], F[col], widths[col], subs, shift) - _gap(fcol[col], count, ws, subs, shift)
                append((col, count, ws, drop))
        return changes, heights

    def _write_section(self, changes: list[_ColumnChange], delta: int) -> int:
        """Apply a section change, the new states of its columns and the
        packed change of the slack (_ThresholdSlack.change); returns the
        drop of |f - v|_1 in residual units."""
        F, widths = self.F, self.widths
        drop = 0
        for col, count, ws, fall in changes:
            F[col], widths[col] = count, ws
            drop += fall
        self.thresholds.fields += delta
        return drop

    # -- exact quantities ----------------------------------------------------

    def residual_units(self) -> int:
        """|f - v|_1 in residual units, counted over every column's steps."""
        shift, subs = self.shift, self.subs
        return sum(_gap(f, full, ws, subs, shift) for f, full, ws in zip(self.fcol, self.F, self.widths))

    def residual_dyadic(self) -> Dyadic:
        """The carried |f - v|_1."""
        return Dyadic(self.residual, self.D + self.N + self.K)

    # -- swap conditions -------------------------------------------------------

    def _least(self, cols: slice):
        """v - f on each column of cols where it is least: f is constant
        and v a staircase on a column, so at its last sub-column, where v
        is the full count."""
        return map(sub, map(lshift, self.F[cols], repeat(self.shift)), self.fcol[cols])

    def _greatest(self, cols: slice):
        """v - f on each column of cols where it is greatest, at its first
        sub-column, where v is the nonempty count."""
        nonempty = map(add, self.F[cols], map(len, self.widths[cols]))
        return map(sub, map(lshift, nonempty, repeat(self.shift)), self.fcol[cols])

    def _donor_ok(self, gen: int, j: int) -> bool:
        """v - f is at least the margin on the class."""
        span = self.side >> gen
        return min(self._least(slice((j - 1) * span, j * span))) >= 1 << (self.D - gen)

    def _receiver_ok(self, gen: int, k: int) -> bool:
        """v - f is at most minus the margin on the class."""
        span = self.side >> gen
        return max(self._greatest(slice((k - 1) * span, k * span))) <= -(1 << (self.D - gen))

    def _contained_pairs(self, gen: int, band: int, donors: int, receivers: int):
        """(donor, receiver) pairs from the class masks donors and
        receivers (bit c - 1 for class c), donor-major with receivers
        ascending, whose receiver block in the band is contained in the
        donor block cell by cell and differs from it.

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
            at = c * span
            return (bf >> at) & stride, (bne >> at) & stride

        # classes are 1-based, bits 0-based
        groups: dict[tuple[int, int], list[int]] = {}
        for k in _classes(receivers):
            groups.setdefault(block(k), []).append(k + 1)
        fitting: dict[tuple[int, int], list[int]] = {}
        for j in _classes(donors):
            key = block(j)
            ks = fitting.get(key)
            if ks is None:
                fits = [g for (fk, nek), g in groups.items() if _block_fits(*key, fk, nek)]
                # each group is ascending, so sorting their concatenation merges them
                ks = fitting[key] = fits[0] if len(fits) == 1 else sorted(chain.from_iterable(fits))
            for k in ks:
                yield j + 1, k

    def _cell_pairs(self, band: int, donors: int, receivers: int):
        """_contained_pairs at generation N, where a block is one cell,
        full, partial or empty.  A full donor takes every receiver that is
        not full, a partial donor only the empty ones, an empty donor
        none; so the band row's two masks and the class masks give the
        pairs, and a band without one costs a few big-int operations."""
        full, nonempty = self.full[band - 1], self.nonempty[band - 1]
        not_full, empty = receivers & ~full, receivers & ~nonempty
        donors &= (full if not_full else 0) | (nonempty & ~full if empty else 0)
        for j in _bits(donors):
            for k in _bits(not_full if full >> j & 1 else empty):
                yield j + 1, k + 1

    def _proper_subset(self, gen: int, band: int, j: int, k: int) -> bool:
        return any(self._contained_pairs(gen, band, 1 << (j - 1), 1 << (k - 1)))

    def _dominance_after(self, move: SwapMove) -> Optional[tuple]:
        """The section change of the move, read off its cells, and the
        packed change of the slack, when the section it would leave keeps
        prefix dominance; None when not.  Exact from any state."""
        changes, heights = self._section_change(*_squares(self.side, move))
        delta = self.thresholds.change(heights)
        return (changes, delta) if self.thresholds.holds(delta) else None

    def swappable(self, move: SwapMove) -> bool:
        if move.gen > self.N:
            return False
        return (
            self._donor_ok(move.gen, move.donor)
            and self._receiver_ok(move.gen, move.receiver)
            and self._proper_subset(move.gen, move.band, move.donor, move.receiver)
            and self._dominance_after(move) is not None
        )

    def find_first(self, gen: int) -> Optional[SwapMove]:
        """First swappable move in (band, donor, receiver) ascending order.

        The donor and receiver masks and the band to resume at are built
        by the generation's first search (self.scan) and kept current by
        apply, which also takes the found move's section change from its
        probe.  This finds the move a rescan of every band would, because
        a swap of the generation
          * moves the section only on its donor and receiver classes and
            leaves them at or above and at or below f, so no class joins
            a mask and only those two are tested again;
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
            classes = range(1, top + 1)
            # a receiver is never a donor: the margins have opposite signs
            scan = self.scan = _Scan(
                gen,
                _mask(self._donor_ok(gen, j) for j in classes),
                _mask(self._receiver_ok(gen, k) for k in classes),
            )
        if not (scan.donors and scan.receivers):
            return None
        resume = top + 1
        for band in range(scan.band, top + 1):
            for j, k in self._contained_pairs(gen, band, scan.donors, scan.receivers):
                resume = min(resume, band)
                move = SwapMove(gen, band, j, k)
                change = self._dominance_after(move)
                if change is not None:
                    scan.band, scan.found = resume, (move, change)
                    return move
        scan.band = resume
        return None

    def apply(self, move: SwapMove) -> SwapRecord:
        """Exchange the move's squares and update the section, the L1 drop
        and the packed slack from the exchanged cells.  The move the last
        search found comes with its probe's section and slack change,
        nothing having changed since, and keeps the generation's search
        state, less a donor or receiver that lost its margin.  Any other
        move computes its change and drops the search state."""
        rows, donor, receiver = _squares(self.side, move)
        scan = self.scan
        found = scan is not None and scan.found is not None and scan.found[0] == move
        if found:
            changes, delta = scan.found[1]
        else:
            changes, heights = self._section_change(rows, donor, receiver)
            delta = self.thresholds.change(heights)
        for r in range(rows.start, rows.stop):
            if r not in self.touched:
                self.touched[r] = self.full[r], self.nonempty[r]
        moved = self._exchange(rows, donor, receiver)
        drop = self._write_section(changes, delta)
        self.dominated = self.thresholds.holds()
        self.residual -= drop
        if found:
            scan.found = None
            if not self._donor_ok(move.gen, move.donor):
                scan.donors ^= 1 << (move.donor - 1)
            if not self._receiver_ok(move.gen, move.receiver):
                scan.receivers ^= 1 << (move.receiver - 1)
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
    work = _Work.hypograph(params, g, f)
    if not work.dominated:
        raise InvariantViolation("feasible start must dominate the target")
    summary = work.sweep(rep, on_swap)
    return work.to_set(), summary


class ReplayState(_Work):
    """The swap engine running the moves of a recorded trace: find_first
    hands out the next record instead of searching, and apply re-derives
    every per-swap invariant of it.

    checked is a copy of the column states, the full counts and the
    widths, as the last replayed swap left them, made when the state is
    built: a swap reads its two classes' old states there and writes
    their new ones back, so that copy and the state agree unless some
    other column changed, by the swap or between two swaps."""

    def __init__(self, params: GridParams, fill, f: StepFunction, records: Sequence[SwapRecord]):
        super().__init__(params, fill, f)
        self._load(records)

    @classmethod
    def hypograph(
        cls, params: GridParams, g: StepFunction, f: StepFunction, records: Sequence[SwapRecord]
    ):
        state = super().hypograph(params, g, f)
        state._load(records)
        return state

    def _load(self, records: Sequence[SwapRecord]) -> None:
        self.records = tuple(records)
        self.next = 0  # index of the next record to replay
        self.checked = self.F[:], self.widths[:]

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
        full_before, nonempty_before = self.full[rows], self.nonempty[rows]

        rec = super().apply(move)

        # a horizontal exchange keeps each band row's sum, and the one-sided
        # differences of the two blocks match the column integrals of the
        # section change (on one exact scale); both read off the row masks
        s = self.subs
        low = (1 << (donor.stop - donor.start)) - 1
        blocks = low << donor.start | low << receiver.start
        lost = gained = 0
        after = zip(full_before, nonempty_before, self.full[rows], self.nonempty[rows], self.part[rows])
        for f0, ne0, f1, ne1, width in after:
            if _units(s, width, f1, ne1) != _units(s, width, f0, ne0):
                raise ReplayViolation(idx, "horizontal section changed")
            lost += _units(s, width, f0 & ~f1 & blocks, ne0 & ~ne1 & blocks)
            gained += _units(s, width, f1 & ~f0 & blocks, ne1 & ~ne0 & blocks)
        # per class: the section's sum over the sub-columns, F * 2**K plus
        # the widths, in cell sub-units, and whether each column stays in
        # its corridor, the donor's between f and its old section and the
        # receiver's between its old section and f.  f is constant and v
        # a staircase on a column, so v >= f where v is least, at the full
        # count, and v <= f where v is greatest, at the nonempty count
        old_full, old_widths = self.checked
        F, widths, fcol, shift = self.F, self.widths, self.fcol, self.shift
        drop_d = rise_k = 0
        donor_kept = receiver_kept = True
        for a, wa, b, wb, f in zip(F[donor], widths[donor], old_full[donor], old_widths[donor], fcol[donor]):
            drop_d += (b - a) * s + sum(wb) - sum(wa)
            donor_kept = donor_kept and f <= a << shift and _at_or_below(a, wa, b, wb)
        for a, wa, b, wb, f in zip(F[receiver], widths[receiver], old_full[receiver], old_widths[receiver], fcol[receiver]):
            rise_k += (a - b) * s + sum(wa) - sum(wb)
            receiver_kept = receiver_kept and a + len(wa) << shift <= f and _at_or_below(b, wb, a, wa)
        if lost != drop_d:
            raise ReplayViolation(idx, "set loss does not match donor-column section drop")
        if gained != rise_k:
            raise ReplayViolation(idx, "set gain does not match receiver-column section rise")

        # the L1 error drops by exactly the symmetric difference
        sym = Dyadic(lost + gained, 2 * self.N + self.K)
        if sym != rec.sym_diff:
            raise ReplayViolation(idx, "symmetric difference bookkeeping mismatch")
        if not sym:
            raise ReplayViolation(idx, "swap moved no mass")
        if rec.l1_drop != sym:
            raise ReplayViolation(idx, "L1 error did not drop by the symmetric difference")

        # the corridors, the left class's first
        if not donor_kept and (receiver_kept or move.donor < move.receiver):
            raise ReplayViolation(idx, "donor column left the f .. v_before corridor")
        if not receiver_kept:
            raise ReplayViolation(idx, "receiver column left the v_before .. f corridor")
        # every other column is as the last swap left it: with the two
        # classes written back, the copy equals the state.  The copy takes
        # its entries from the state, ints and tuples, so they are the
        # same objects in both lists and the comparison compares pointers
        # and allocates nothing
        for cols in (donor, receiver):
            old_full[cols], old_widths[cols] = F[cols], widths[cols]
        if old_full != F or old_widths != widths:
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
    # whole cells only: each row's full and nonempty masks are its matrix row
    return _Rows.of_masks(params, [*a.masks], [*a.masks], [0] * params.side).to_set()
