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

One engine, _Work, runs the search and the swaps and builds the trace
records; ReplayState is the same engine with a step that replays a
recorded swap and re-derives its invariants, which report.audit_trace
drives.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Callable, Optional

from .dyadic import ZERO, Dyadic
from .feasibility import FeasibilityReport, check_hlp, counts_above, run_excess
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


def _plateau_values(f: StepFunction, depth: int) -> list[Dyadic]:
    """Values of f on the 2**depth uniform intervals; QuantizationError if
    f is not constant on one of them."""
    for b in f.breakpoints[1:-1]:
        if b.exp > depth:
            raise QuantizationError(
                f"breakpoint {b} is not a multiple of 2**-{depth}"
            )
    out = []
    idx = 0  # current plateau of f
    for j in range(1 << depth):
        lo = Dyadic(j, depth)
        while f.breakpoints[idx + 1] <= lo:
            idx += 1
        out.append(f.values[idx])
    return out


def initial_set(g: StepFunction, params: GridParams) -> DyadicSet:
    """Hypograph of g: band i holds [0, g_i) x (the band).

    g must be constant on each band with values in [0, 1] that are
    multiples of the sub-unit 2**-(N+K).  The resulting vertical cross
    section equals the distribution function of g exactly.
    """
    vals = _plateau_values(g, params.depth)
    nk = params.depth + params.subres
    cap = params.sub_per_cell
    rows = []
    for v in vals:
        if v < Dyadic(0) or v > Dyadic(1):
            raise QuantizationError(f"band value {v} outside [0, 1]")
        if v.exp > nk:
            raise QuantizationError(f"band value {v} not a multiple of 2**-{nk}")
        units = v.num << (nk - v.exp)
        full, rem = divmod(units, cap)
        row = [cap] * full
        if rem:
            row.append(rem)
        row.extend([0] * (params.side - len(row)))
        rows.append(tuple(row))
    return DyadicSet(params, tuple(rows))


def vertical_section(e: DyadicSet) -> StepFunction:
    """v_E(x): total height of the set above x, exact on the sub-unit grid."""
    p = e.params
    vals = []
    for j in range(p.side):
        for count in counts_above([row[j] for row in e.fill], p.sub_per_cell):
            vals.append(Dyadic(count, p.depth))
    return StepFunction.from_grid(vals, p.depth + p.subres)


def horizontal_section(e: DyadicSet) -> StepFunction:
    """h_E(y): width of the set at height y; constant on each band."""
    p = e.params
    vals = [Dyadic(sum(row), p.depth + p.subres) for row in e.fill]
    return StepFunction.from_grid(vals, p.depth)


def _exchange(fill: list[list[int]], move: SwapMove) -> int:
    """Exchange the two squares of the move in place, columnwise; returns
    the number of cell sub-units that change hands, sum |donor - receiver|."""
    span = len(fill) >> move.gen
    r0 = (move.band - 1) * span
    j0 = (move.donor - 1) * span
    k0 = (move.receiver - 1) * span
    moved = 0
    for row in fill[r0 : r0 + span]:
        for c in range(span):
            a, b = row[j0 + c], row[k0 + c]
            moved += abs(a - b)
            row[j0 + c], row[k0 + c] = b, a
    return moved


def swap(e: DyadicSet, move: SwapMove) -> DyadicSet:
    """Exchange the fills of the two generation-n squares, columnwise."""
    p = e.params
    if move.gen > p.depth:
        raise MoveOutOfRange(
            f"generation {move.gen} exceeds grid depth {p.depth}"
        )
    grid = [list(row) for row in e.fill]
    _exchange(grid, move)
    return DyadicSet(p, tuple(tuple(row) for row in grid))


class _Work:
    """Mutable integer-scaled state for the swap search.

    fu/vu hold the target and the vertical section per finest sub-column,
    both in units of 2**-D where D >= N + K also covers the denominators
    of f's values; margins 2**-n become the integers 2**(D - n).
    """

    def __init__(self, params: GridParams, fill, f: StepFunction):
        self.params = params
        self.N, self.K = params.depth, params.subres
        self.side = params.side
        self.subs = params.sub_per_cell
        self.V = params.sub_total
        fvals = _plateau_values(f, self.N)
        self.D = max([self.N + self.K] + [v.exp for v in fvals])
        self.fu = []
        for v in fvals:
            if v < Dyadic(0):
                raise QuantizationError("target values must be nonnegative")
            self.fu.extend([v.num << (self.D - v.exp)] * self.subs)
        self.f_runs = sorted(Counter(self.fu).items(), reverse=True)
        self.fill = [list(row) for row in fill]
        self.vu = [0] * self.V
        for j in range(self.side):
            self._recount_col(j)

    # -- state maintenance -------------------------------------------------

    def _recount_col(self, j: int) -> None:
        shift = self.D - self.N
        self.vu[j * self.subs : (j + 1) * self.subs] = [
            count << shift for count in counts_above([row[j] for row in self.fill], self.subs)
        ]

    def snapshot_fill(self):
        return [row[:] for row in self.fill]

    # -- exact quantities ----------------------------------------------------

    def residual_units(self) -> int:
        return sum(abs(a - b) for a, b in zip(self.fu, self.vu))

    def residual_dyadic(self) -> Dyadic:
        return Dyadic(self.residual_units(), self.D + self.N + self.K)

    def sym_diff_dyadic(self, other_fill) -> Dyadic:
        total = sum(
            abs(a - b)
            for ra, rb in zip(self.fill, other_fill)
            for a, b in zip(ra, rb)
        )
        return Dyadic(total, 2 * self.N + self.K)

    def row_unit_sums(self) -> list[int]:
        return [sum(row) for row in self.fill]

    def majorized(self) -> bool:
        """Prefix integral of sorted f never exceeds that of sorted v; both
        sorted sequences are compared as (value, multiplicity) runs."""
        return run_excess(self.f_runs, sorted(Counter(self.vu).items(), reverse=True)) is None

    def rows_are_translated_hypograph_slices(self) -> bool:
        """Each band is a permutation of (full cells, at most one partial,
        empty cells); holds for every set reachable from a hypograph."""
        cap = self.subs
        return all(sum(1 for w in row if 0 < w < cap) <= 1 for row in self.fill)

    # -- swap conditions -------------------------------------------------------

    def _class_range(self, gen: int, idx: int) -> range:
        width = (self.side >> gen) * self.subs
        return range((idx - 1) * width, idx * width)

    def _donor_ok(self, gen: int, j: int) -> bool:
        margin = 1 << (self.D - gen)
        return all(self.vu[x] >= self.fu[x] + margin for x in self._class_range(gen, j))

    def _receiver_ok(self, gen: int, k: int) -> bool:
        margin = 1 << (self.D - gen)
        return all(self.vu[x] <= self.fu[x] - margin for x in self._class_range(gen, k))

    def _proper_subset(self, gen: int, band: int, j: int, k: int) -> bool:
        span = self.side >> gen
        r0, j0, k0 = (band - 1) * span, (j - 1) * span, (k - 1) * span
        strict = False
        for r in range(r0, r0 + span):
            row = self.fill[r]
            for c in range(span):
                wj, wk = row[j0 + c], row[k0 + c]
                if wk > wj:
                    return False
                if wk < wj:
                    strict = True
        return strict

    def _recount_classes(self, move: SwapMove) -> None:
        span = self.side >> move.gen
        for c in range(span):
            self._recount_col((move.donor - 1) * span + c)
            self._recount_col((move.receiver - 1) * span + c)

    def _dominance_after(self, move: SwapMove) -> bool:
        """Prefix dominance of the section the move leaves; the move is
        applied and then undone."""
        saved = self.vu[:]
        _exchange(self.fill, move)
        self._recount_classes(move)
        ok = self.majorized()
        _exchange(self.fill, move)
        self.vu = saved
        return ok

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
        moved = _exchange(self.fill, move)
        self._recount_classes(move)
        after = self.residual_units()
        return SwapRecord(
            move.gen,
            move.band,
            move.donor,
            move.receiver,
            Dyadic(before - after, self.D + self.N + self.K),
            Dyadic(2 * moved, 2 * self.N + self.K),
        )

    def run_generation(
        self, gen: int, on_swap: Optional[Callable[[SwapRecord], None]] = None
    ) -> GenerationRecord:
        """Apply first-found swaps of one generation until none remains,
        passing each executed swap to on_swap."""
        start = self.snapshot_fill()
        count = 0
        while True:
            move = self.find_first(gen)
            if move is None:
                return self.generation_record(gen, count, start)
            rec = self.apply(move)
            if on_swap is not None:
                on_swap(rec)
            count += 1

    def generation_record(self, gen: int, count: int, start_fill) -> GenerationRecord:
        return GenerationRecord(
            gen, count, self.residual_dyadic(), self.sym_diff_dyadic(start_fill)
        )

    def to_set(self) -> DyadicSet:
        return DyadicSet(self.params, tuple(tuple(row) for row in self.fill))


def is_swappable(e: DyadicSet, f: StepFunction, move: SwapMove) -> bool:
    """Exact test of the four swap conditions for one candidate move.

    Returns False for generations beyond the grid depth.  The caller is
    responsible for the standing hypothesis that f's rearrangement
    primitive is dominated by the section's; InvariantViolation is raised
    when it fails.
    """
    work = _Work(e.params, e.fill, f)
    if not work.majorized():
        raise InvariantViolation("prefix dominance hypothesis violated for this set")
    return work.swappable(move)


def optimize_generation(e: DyadicSet, f: StepFunction, gen: int) -> DyadicSet:
    """Apply first-found swaps of one generation until none remains.

    Deterministic: candidates are scanned in ascending (band, donor,
    receiver) order and the first admissible one fires; each swap strictly
    decreases |f - v|_1 on a finite grid, so the loop terminates.
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
    if not work.majorized():
        raise InvariantViolation("feasible start must dominate the target")
    initial_res = work.residual_dyadic()
    records: list[SwapRecord] = []

    def record(rec: SwapRecord) -> None:
        records.append(rec)
        if on_swap is not None:
            on_swap(rec)

    gens: list[GenerationRecord] = []
    for gen in range(1, params.depth + 1):
        gens.append(work.run_generation(gen, record))
        if not work.rows_are_translated_hypograph_slices():
            raise InvariantViolation(f"generation {gen} left a band with two partial cells")
    summary = TraceSummary(
        generations=tuple(gens),
        swaps=tuple(records),
        initial_residual=initial_res,
        final_residual=work.residual_dyadic(),
        feasibility=rep,
    )
    return work.to_set(), summary


class ReplayState(_Work):
    """The swap engine with a replay step that re-derives every per-swap
    invariant of a recorded move."""

    def verify_and_apply(
        self, move: SwapMove
    ) -> tuple[Optional[SwapRecord], Optional[str]]:
        """Apply one recorded swap; return the replayed record and the
        first violated invariant."""
        if move.gen > self.N:
            return None, "generation exceeds grid depth"
        rows_before = self.row_unit_sums()
        vu_before = self.vu[:]
        fill_before = self.snapshot_fill()

        rec = self.apply(move)

        # row sections and measure are untouched by a horizontal exchange
        if self.row_unit_sums() != rows_before:
            return rec, "horizontal section changed"

        # one-sided set differences match the column integrals of the
        # vertical-section change (all on the same exact scale)
        lost = gained = 0
        for row_before, row in zip(fill_before, self.fill):
            for a, b in zip(row_before, row):
                if a > b:
                    lost += a - b
                else:
                    gained += b - a
        donor_cols = self._class_range(move.gen, move.donor)
        recv_cols = self._class_range(move.gen, move.receiver)
        drop_d = sum(vu_before[x] - self.vu[x] for x in donor_cols)
        rise_k = sum(self.vu[x] - vu_before[x] for x in recv_cols)
        # lost cell units are areas 2**-(2N+K); section sums are in units
        # 2**-(D+N+K): lost * 2**(D-N) must equal the section-change sum
        if lost << (self.D - self.N) != drop_d:
            return rec, "set loss does not match donor-column section drop"
        if gained << (self.D - self.N) != rise_k:
            return rec, "set gain does not match receiver-column section rise"

        # the L1 error drops by exactly the symmetric difference
        sym = Dyadic(lost + gained, 2 * self.N + self.K)
        if sym != rec.sym_diff:
            return rec, "symmetric difference bookkeeping mismatch"
        if sym.num == 0:
            return rec, "swap moved no mass"
        if rec.l1_drop != sym:
            return rec, "L1 error did not drop by the symmetric difference"

        # per column class: donor stays above f, receiver below, rest equal
        for cls in range(1, (1 << move.gen) + 1):
            rng = self._class_range(move.gen, cls)
            if cls == move.donor:
                if not all(self.fu[x] <= self.vu[x] <= vu_before[x] for x in rng):
                    return rec, "donor column left the f .. v_before corridor"
            elif cls == move.receiver:
                if not all(self.fu[x] >= self.vu[x] >= vu_before[x] for x in rng):
                    return rec, "receiver column left the v_before .. f corridor"
            elif any(self.vu[x] != vu_before[x] for x in rng):
                return rec, "untouched column changed"

        # prefix dominance preserved
        if not self.majorized():
            return rec, "prefix dominance lost after swap"
        return rec, None


def discrete_exact_set(
    f: StepFunction, g: StepFunction, params: GridParams
) -> Optional[DyadicSet]:
    """Zero-residual realization through the matrix constructor, when the
    targets are whole numbers of cells per band and column.

    Returns None when a value is off the coarse grid or the margins are
    not realizable.
    """
    try:
        fvals = _plateau_values(f, params.depth)
        gvals = _plateau_values(g, params.depth)
    except QuantizationError:
        return None
    n = params.depth
    cols, rows = [], []
    for vals, out in ((fvals, cols), (gvals, rows)):
        for v in vals:
            if v.exp > n or v < Dyadic(0) or v > Dyadic(1):
                return None
            out.append(v.num << (n - v.exp))
    a = realize_exact_margins(rows, cols)
    if a is None:
        return None
    cap = params.sub_per_cell
    fill = tuple(
        tuple(cap * a.entries[i][j] for j in range(params.side))
        for i in range(params.side)
    )
    return DyadicSet(params, fill)
