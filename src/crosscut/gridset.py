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
partial width rem, and the section at sub-column m counts the bands with
u > m, g's distribution function: O(2**N + 2**(N+K)) work where the
grid costs O(4**N).  initial_set is the same rows written out as a set.

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

A swap's bookkeeping follows its band's rows and the runs it writes.
Sub-column m of a column counts the rows whose fill exceeds m: every
full cell and the partial cells wider than m.  The exchange puts the
receiver's cells in the donor column, so the donor column changes at m
by d(m) = (receiver full - donor full) + #{receiver partial widths > m}
- #{donor partial widths > m}, counted over the band's rows, and the
receiver column by -d(m).  The full counts are vertical popcounts of the
two blocks' full masks, taken on one digit string of the band; only the
partial cells, at most one per row, are walked, and their widths cut a
column pair into stretches on which d is constant.  A column's section
is a staircase, nonincreasing across its sub-columns, so a stretch
splits into runs of equal old height that come in position order,
largest height first, and a stretch whose two ends have equal height is
a single run.  The section, its L1 gap to f (f is constant on
a column) and the count of sub-columns per height are updated one run
at a time, and a donor's least and a receiver's greatest v - f on a
column are read at its last and its first sub-column.  A swap's cost
follows its rows and runs, not the 2**K sub-columns of a cell: only the
slice that writes a run and the K steps of a bisection see them.  The change
is computed once per swap, by the probe that tests its dominance; the
search hands it to apply with the move it found, and apply writes it.

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
one.  The replay keeps one copy of the section, made at the start: each
swap reads its two classes' old values there and writes their new ones
back, and the copy must then equal the section.  The copy holds the
section's own objects, so that comparison costs a pointer walk, and it
catches a column changed outside a swap's classes, by the swap or
between two swaps.
"""

from __future__ import annotations

import sys
from array import array
from bisect import bisect_right
from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate, chain, repeat
from operator import eq, le, neg, sub
from typing import Callable, Optional, Sequence

from .dyadic import ONE, ZERO, Dyadic
from .feasibility import FeasibilityReport, check_hlp, counts_above
from .matrices import _ThresholdSlack, _bits, _digits, _mask, _phi, realize_exact_margins
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
    units = _cell_units(g, params.depth, params.depth + params.subres)
    return _Rows.of_bands(params, units).to_set()


def _sub_counts(fill, subs: int):
    """Per finest sub-column, the cells of its column whose fill reaches
    past it, as an iterator, which _Work reads only after f's checks."""
    return (c for col in zip(*fill) for c in counts_above(col, subs))


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

    The grid is held as rows (_Rows).  __init__ builds them and vu from
    a fill grid; hypograph builds both from g's band values, the start
    reconstruct and audit_trace take.  touched holds the masks of each
    band row the generation has touched, as they were before it.

    fu/vu hold the target and the vertical section per finest sub-column,
    both in units of 2**-D where D >= N + K also covers the denominators
    of f's values; margins 2**-n become the integers 2**(D - n).  A
    sub-column's section is a whole number c of cells, vu = c << (D - N).
    thresholds holds the packed slack Phi_v(c) * 2**shift - Phi_f(c) of
    each height c in 0..2**N (module docstring), and dominated says
    whether the sorted section's prefix sums bound f's, every slack being
    nonnegative.

    Within a cell column fu is constant and vu a nonincreasing staircase.
    """

    def __init__(self, params: GridParams, fill, f: StepFunction):
        super().__init__(params, fill)
        self._start(f, _sub_counts(fill, self.subs))

    @classmethod
    def hypograph(cls, params: GridParams, g: StepFunction, f: StepFunction):
        """The engine started from the hypograph of g, built from g's band
        values alone: the rows by _Rows.of_bands, and the section, g's
        distribution function, as the count of bands whose value exceeds
        each sub-column.  Both cost O(2**N + 2**(N+K)); no cell grid is
        built.  g's values are checked before f's, as _Work's are when it
        is given initial_set(g, params).fill."""
        units = _cell_units(g, params.depth, params.depth + params.subres)
        work = cls.of_bands(params, units)
        work._start(f, counts_above(units, params.sub_total))
        return work

    def _start(self, f: StepFunction, counts) -> None:
        """The state both starts share, from f and the section's height in
        cells per sub-column; counts is read after f's values are checked."""
        params = self.params
        self.N, self.K = params.depth, params.subres
        self.D = max(self.N + self.K, *(v.exp for v in f.values))
        self.shift = self.D - self.N
        side, shift, subs = self.side, self.shift, self.subs
        fcells = _cell_units(f, self.N, self.D, bounded=False)
        self.fu = [u for u in fcells for _ in range(subs)]
        counts = [*counts]
        self.vu = [c << shift for c in counts]
        # Phi_f(c): the t = #{f > c} largest cell values less t times c, per sub-column
        ranked = sorted(fcells)
        top = [0, *accumulate(reversed(ranked))]
        over_f = [side - bisect_right(ranked, c << shift) for c in range(side + 1)]
        phi_f = [subs * (top[t] - t * (c << shift)) for c, t in enumerate(over_f)]
        self.thresholds = _ThresholdSlack(_phi(counts, side), phi_f, shift)
        self.residual = self.residual_units()  # carried: apply lowers it by each drop
        self.scan: Optional[_Scan] = None
        self.touched: dict[int, tuple[int, int]] = {}
        self.dominated = self.thresholds.holds()

    # -- state maintenance -------------------------------------------------

    def _section_change(self, rows: slice, donor: slice, receiver: slice):
        """The section change of exchanging the two squares, read off their
        rows' masks: runs (start, stop, old value, change in cells) of
        sub-columns, and the net change of the number of sub-columns at
        each height.

        Sub-column m of a column counts the band rows whose cell there
        holds more than m sub-units: every full cell and the partial cells
        wider than m.  The exchange puts the receiver's cells in the donor
        column, so the donor column's change at m is d(m) = (receiver
        full - donor full) + #{receiver partial widths > m} - #{donor
        partial widths > m}, over the band's rows, and the receiver
        column's is -d(m).  The full counts are vertical popcounts of the
        blocks' full masks, taken on one digit string; only the partial
        cells, at most one per row, are walked one by one, and each cuts d
        at its width.  On a stretch of constant d each column's old section
        is a nonincreasing staircase, so it splits into runs of equal
        height found by bisection; a stretch whose two ends are equal is
        one run.
        """
        subs, vu, shift, full, nonempty, part = self.subs, self.vu, self.shift, self.full, self.nonempty, self.part
        j0, k0 = donor.start, receiver.start
        span = donor.stop - j0
        low = (1 << span) - 1
        blocks = low << j0 | low << k0
        # per column offset that holds a partial cell: the change of d at
        # each sub-column where a partial width cuts it, d(0) included
        cuts: dict[int, dict[int, int]] = {}
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
                c, e = (at - j0, -1) if j0 <= at < j0 + span else (at - k0, 1)
                steps = cuts.get(c)
                if steps is None:
                    cuts[c] = {0: e, width: -e}
                else:
                    steps[0] += e
                    steps[width] = steps.get(width, 0) - e
        text = "".join(digits)
        changes: list[tuple[int, int, int, int]] = []
        heights: dict[int, int] = {}
        get, append = heights.get, changes.append
        for c in range(span):
            d = text[span - 1 - c :: pair].count("1") - text[pair - 1 - c :: pair].count("1")
            steps = cuts.get(c)
            if steps is None:
                if not d:
                    continue
                stretches = [(0, subs, d)]
            else:
                stretches, s = [], 0
                for m in sorted(steps):
                    if steps[m]:
                        if d and m:
                            stretches.append((s, m, d))
                        d, s = d + steps[m], m
                if d:
                    stretches.append((s, subs, d))
            for s, t, d in stretches:
                for base, e in (((j0 + c) * subs, d), ((k0 + c) * subs, -d)):
                    i, end = base + s, base + t
                    last = vu[end - 1]
                    while i < end:
                        v = vu[i]
                        stop = end if v == last else bisect_right(vu, -v, i, end, key=neg)
                        h, n = v >> shift, stop - i
                        heights[h] = get(h, 0) - n
                        heights[h + e] = get(h + e, 0) + n
                        append((i, stop, v, e))
                        i = stop
        return changes, heights

    def _write_section(self, changes: list[tuple[int, int, int, int]], delta: int) -> int:
        """Apply a section change, its runs and the packed change of the
        slack (_ThresholdSlack.change); returns the drop of |f - v|_1 in
        residual units, f being constant on each run's column."""
        fu, vu, shift = self.fu, self.vu, self.shift
        drop = 0
        for i, stop, v, d in changes:
            f, w = fu[i], v + (d << shift)
            vu[i:stop] = repeat(w, stop - i)
            drop += (stop - i) * (abs(f - v) - abs(f - w))
        self.thresholds.fields += delta
        return drop

    # -- exact quantities ----------------------------------------------------

    def residual_units(self) -> int:
        """|f - v|_1 in residual units, counted over every sub-column."""
        return sum(map(abs, map(sub, self.fu, self.vu)))

    def residual_dyadic(self) -> Dyadic:
        """The carried |f - v|_1."""
        return Dyadic(self.residual, self.D + self.N + self.K)

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

    checked is a copy of the section as the last replayed swap left it,
    made when the state is built: a swap reads its two classes' old values
    there and writes their new ones back, so that copy and vu agree unless
    some other sub-column changed, by the swap or between two swaps."""

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
        self.checked = self.vu[:]

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
        old_d, new_d = self.checked[donor_cols], self.vu[donor_cols]
        old_k, new_k = self.checked[recv_cols], self.vu[recv_cols]
        drop_d = sum(old_d) - sum(new_d)
        rise_k = sum(new_k) - sum(old_k)
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
        # between its old section and f, checked left to right
        corridors = [
            (self.fu[donor_cols], new_d, old_d, "donor column left the f .. v_before corridor"),
            (old_k, new_k, self.fu[recv_cols], "receiver column left the v_before .. f corridor"),
        ]
        if move.receiver < move.donor:
            corridors.reverse()
        for low, v, high, what in corridors:
            if not (all(map(le, low, v)) and all(map(le, v, high))):
                raise ReplayViolation(idx, what)
        # every other column is as the last swap left it: with the two
        # classes written back, the copy equals vu.  The copy takes its
        # entries from vu, so they are the same objects in both lists and
        # the comparison compares pointers and allocates nothing.
        self.checked[donor_cols] = new_d
        self.checked[recv_cols] = new_k
        if self.checked != self.vu:
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
