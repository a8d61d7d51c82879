"""Construction of 0/1 matrices with prescribed row and column sums.

Three independent routes, kept deliberately separate so they can
cross-check each other:

  * ryser_construct: the classical greedy fill (fast path),
  * swap_construct: starts from the left-aligned maximal matrix and moves
    single ones from surplus columns to deficit columns, the discrete
    shadow of the plane-set swapping construction,
  * brute_force_realize: exhaustive search oracle for small instances.

All three succeed exactly on the pairs accepted by check_gale_ryser.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate, combinations
from operator import sub
from typing import Optional, Sequence

from .feasibility import FeasibilityReport, Partition, check_gale_ryser, counts_above

BRUTE_FORCE_CELL_LIMIT = 20


class InstanceTooLarge(ValueError):
    """Raised when a brute-force instance exceeds the exhaustive-scan bound."""


class InfeasibleMargins(ValueError):
    """Raised by constructors on margins that fail the Gale-Ryser test."""

    def __init__(self, report: FeasibilityReport):
        super().__init__(f"margins are not realizable: {report.verdict.value}")
        self.report = report


class ConstructionStuck(RuntimeError):
    """Swap search found no admissible move before reaching the target.

    Never observed on feasible input; kept as a loud failure mode instead
    of a silent wrong answer.
    """


@dataclass(frozen=True)
class BinaryMatrix:
    """Immutable 0/1 matrix; row and column sums are always recomputed."""

    rows: int
    cols: int
    entries: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if self.rows < 0 or self.cols < 0 or len(self.entries) != self.rows:
            raise ValueError("entry grid does not match the declared shape")
        for row in self.entries:
            if len(row) != self.cols:
                raise ValueError("ragged row")
            for e in row:
                if e not in (0, 1):
                    raise ValueError("entries must be 0 or 1")

    @classmethod
    def from_rows(cls, rows) -> "BinaryMatrix":
        entries = tuple(tuple(int(e) for e in row) for row in rows)
        ncols = len(entries[0]) if entries else 0
        return cls(len(entries), ncols, entries)

    def to_text(self) -> str:
        """One row per line, '0'/'1' characters, no separators."""
        return "\n".join("".join(str(e) for e in row) for row in self.entries) + "\n"

    @classmethod
    def from_text(cls, text: str) -> "BinaryMatrix":
        lines = [ln for ln in text.splitlines() if ln.strip()]
        rows = []
        for ln in lines:
            if set(ln) - {"0", "1"}:
                raise ValueError(f"bad matrix line: {ln!r}")
            rows.append(tuple(int(c) for c in ln))
        if rows and len({len(r) for r in rows}) != 1:
            raise ValueError("rows have differing lengths")
        return cls.from_rows(rows)


def row_sums(a: BinaryMatrix) -> tuple[int, ...]:
    return tuple(sum(row) for row in a.entries)


def col_sums(a: BinaryMatrix) -> tuple[int, ...]:
    return tuple(sum(row[c] for row in a.entries) for c in range(a.cols))


def _check_margins(a: BinaryMatrix, p: Partition, q: Partition) -> None:
    if row_sums(a) != p.parts or col_sums(a) != q.parts:
        raise ConstructionStuck("constructed matrix misses its margins")


def ryser_construct(p: Partition, q: Partition) -> BinaryMatrix:
    """Greedy fill: columns in nonincreasing q order, each column's ones
    placed into the rows with largest remaining demand (ties to the lowest
    row index).  Margins are verified exactly after the fill."""
    report = check_gale_ryser(p, q)
    if not report.feasible:
        raise InfeasibleMargins(report)
    nrows, ncols = len(p), len(q)
    need = list(p.parts)
    grid = [[0] * ncols for _ in range(nrows)]
    for c in range(ncols):
        chosen = sorted(range(nrows), key=lambda r: (-need[r], r))[: q.parts[c]]
        for r in chosen:
            grid[r][c] = 1
            need[r] -= 1
    a = BinaryMatrix.from_rows(grid)
    _check_margins(a, p, q)
    return a


def brute_force_realize(p: Partition, q: Partition) -> Optional[BinaryMatrix]:
    """Exhaustive search for a matrix with the exact margins.

    Independent of the Gale-Ryser condition: enumerates row fillings
    depth-first, pruning only on column capacity counts.  Instances above
    BRUTE_FORCE_CELL_LIMIT cells are rejected.
    """
    nrows, ncols = len(p), len(q)
    if nrows * ncols > BRUTE_FORCE_CELL_LIMIT:
        raise InstanceTooLarge(f"{nrows}x{ncols} exceeds {BRUTE_FORCE_CELL_LIMIT} cells")
    if p.total != q.total:
        return None
    target = q.parts
    filled = [0] * ncols
    rows_out: list[tuple[int, ...]] = []

    def search(r: int) -> bool:
        if r == nrows:
            return all(filled[c] == target[c] for c in range(ncols))
        left = nrows - r - 1
        if p.parts[r] > ncols:
            return False
        for cols in combinations(range(ncols), p.parts[r]):
            ok = True
            for c in cols:
                if filled[c] + 1 > target[c]:
                    ok = False
                    break
            if not ok:
                continue
            for c in cols:
                filled[c] += 1
            if all(target[c] - filled[c] <= left for c in range(ncols)):
                rows_out.append(tuple(1 if c in cols else 0 for c in range(ncols)))
                if search(r + 1):
                    return True
                rows_out.pop()
            for c in cols:
                filled[c] -= 1
        return False

    if search(0):
        return BinaryMatrix.from_rows(rows_out)
    return None


def _bits(mask: int):
    """Positions of the set bits of mask, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class _ColumnSums:
    """Column sums whose sorted prefix sums bound q's, with the slack
    that tells which single moves keep them so (see swap_construct)."""

    def __init__(self, cols: list[int], q: Sequence[int], nrows: int):
        self.cols = cols
        self.ge = [len(cols)] + counts_above(cols, nrows)
        self.slack = [0, *map(sub, accumulate(sorted(cols, reverse=True)), accumulate(q))]

    def keeps_dominance(self, cj: int, ck: int) -> bool:
        a, b = self.cols[cj], self.cols[ck]
        return a <= b + 1 or min(self.slack[self.ge[a] : self.ge[b + 1] + 1]) >= 1

    def move(self, cj: int, ck: int) -> None:
        """One unit from column cj to column ck."""
        cols, ge, slack = self.cols, self.ge, self.slack
        a, b = cols[cj], cols[ck]
        if a >= b + 2:
            lo, hi = ge[a], ge[b + 1] + 1
            slack[lo:hi] = [s - 1 for s in slack[lo:hi]]
        elif a <= b:
            lo, hi = ge[b + 1] + 1, ge[a]
            slack[lo:hi] = [s + 1 for s in slack[lo:hi]]
        ge[a] -= 1
        ge[b + 1] += 1
        cols[cj] -= 1
        cols[ck] += 1


def swap_construct(p: Partition, q: Partition) -> BinaryMatrix:
    """Build the matrix by single-entry moves from the left-aligned start.

    Row r begins with its first p_r cells set, so row sums are exact from
    the outset and column sums equal the conjugate of p.  Each move takes
    a 1 from a surplus column to a deficit column within one row, subject
    to the sorted column sums keeping their prefix dominance over q; every
    move brings the column sums closer to q by exactly 2 in L1, so the
    loop terminates.

    The first move in (row, donor, receiver) order fires.  Rows are held
    as int masks, bit c for column c, beside a mask of the surplus and
    one of the deficit columns.  A move leaves its donor at or above its
    target and its receiver at or below, so both masks only shrink.  A
    row's donors are then row & surplus and its receivers ~row & deficit,
    walked in ascending bit order.

    Dominance is read off a slack list: slack[t] is the sum of the t
    largest column sums minus the sum of q's first t parts, never
    negative since the start is q-dominating (Gale-Ryser) and every move
    keeps it.  Moving a 1 from a column with sum a to one with sum b takes
    one off the last a in sorted order and adds one to the first b.  When
    a <= b + 1 no prefix sum drops, so the move keeps dominance.  When
    a >= b + 2 the prefix sums drop by exactly 1 on the lengths
    #{sums >= a} .. #{sums > b} and nowhere else, so the move keeps
    dominance iff slack is at least 1 there.  ge[v] = #{sums >= v} finds
    both ends (_ColumnSums).
    """
    report = check_gale_ryser(p, q)
    if not report.feasible:
        raise InfeasibleMargins(report)
    ncols = len(q)
    rows = [(1 << part) - 1 for part in p.parts]
    cols = counts_above(p.parts, ncols)
    target = list(q.parts)
    surplus = sum(1 << c for c in range(ncols) if cols[c] > target[c])
    deficit = sum(1 << c for c in range(ncols) if cols[c] < target[c])
    sums = _ColumnSums(cols, target, len(p))

    def find_move():
        for r, row in enumerate(rows):
            receivers = ~row & deficit
            if receivers:
                for cj in _bits(row & surplus):
                    for ck in _bits(receivers):
                        if sums.keeps_dominance(cj, ck):
                            return r, cj, ck
        return None

    while cols != target:
        move = find_move()
        if move is None:
            raise ConstructionStuck("no admissible move but margins not met")
        r, cj, ck = move
        rows[r] ^= (1 << cj) | (1 << ck)
        sums.move(cj, ck)
        if cols[cj] == target[cj]:
            surplus ^= 1 << cj
        if cols[ck] == target[ck]:
            deficit ^= 1 << ck
    a = BinaryMatrix.from_rows([[(row >> c) & 1 for c in range(ncols)] for row in rows])
    _check_margins(a, p, q)
    return a


def realize_exact_margins(row_targets, col_targets) -> Optional[BinaryMatrix]:
    """Matrix with the given, not necessarily monotone, margins.

    Sorts both targets, builds the sorted instance greedily, then permutes
    rows and columns back.  Returns None when the sorted pair is
    infeasible.
    """
    rt = [int(v) for v in row_targets]
    ct = [int(v) for v in col_targets]
    p = Partition(tuple(rt))
    q = Partition(tuple(ct))
    try:
        sorted_a = ryser_construct(p, q)
    except InfeasibleMargins:
        return None
    row_order = sorted(range(len(rt)), key=lambda i: (-rt[i], i))
    col_order = sorted(range(len(ct)), key=lambda j: (-ct[j], j))
    entries = [[0] * len(ct) for _ in range(len(rt))]
    for si, i in enumerate(row_order):
        for sj, j in enumerate(col_order):
            entries[i][j] = sorted_a.entries[si][sj]
    a = BinaryMatrix.from_rows(entries)
    if list(row_sums(a)) != rt or list(col_sums(a)) != ct:
        raise ConstructionStuck("permuted matrix misses its margins")
    return a
