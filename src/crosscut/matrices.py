"""Construction of 0/1 matrices with prescribed row and column sums.

Three independent routes, kept deliberately separate so they can
cross-check each other:

  * ryser_construct: the classical greedy fill (fast path),
  * swap_construct: starts from the left-aligned maximal matrix and moves
    single ones from surplus columns to deficit columns, the discrete
    shadow of the plane-set swapping construction,
  * brute_force_realize: exhaustive search oracle for small instances.

All three succeed exactly on the pairs accepted by check_gale_ryser.

The two constructors hold each row as an int mask, bit c for column c,
and cost what their moves cost.  ryser_construct keeps the rows in
buckets by remaining need, so a column takes whole buckets and one
prefix instead of sorting every row.  swap_construct resumes its row
walk at the first row the last walk found holding a (donor, receiver)
pair: the surplus and deficit masks only shrink and a row changes only
when a move fires in it, so an earlier row never holds a pair again.
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
    return tuple(map(sum, a.entries))


def col_sums(a: BinaryMatrix) -> tuple[int, ...]:
    if not a.entries:
        return (0,) * a.cols
    return tuple(map(sum, zip(*a.entries)))


_CELLS = bytes.maketrans(b"01", b"\x00\x01")


def _from_masks(rows: Sequence[int], ncols: int) -> BinaryMatrix:
    """The matrix whose row r holds bit c of rows[r] in column c.

    Each row's entries come from one pass over its binary digits: the
    bit at ncols pads the digits to ncols + 1 and the reversal drops it.
    """
    entries = tuple(
        tuple(format(row | 1 << ncols, "b")[:0:-1].encode().translate(_CELLS))
        for row in rows
    )
    return BinaryMatrix(len(rows), ncols, entries)


def _check_margins(a: BinaryMatrix, p: Partition, q: Partition) -> None:
    if row_sums(a) != p.parts or col_sums(a) != q.parts:
        raise ConstructionStuck("constructed matrix misses its margins")


def ryser_construct(p: Partition, q: Partition) -> BinaryMatrix:
    """Greedy fill: columns in nonincreasing q order, each column's ones
    placed into the rows with largest remaining need (ties to the lowest
    row index).  Margins are verified exactly after the fill.

    The rows are held in buckets by remaining need, each ascending by row
    index, so a column takes whole buckets from the top and a prefix of
    the last bucket u it reaches: the rows a sort by (need descending,
    row ascending) would list first.  Every taken row's need drops by
    one.  The taken prefix of u merges into bucket u - 1, the bucket above
    u merges into what is left of u, and the other whole buckets shift
    down one need unchanged, so two merges per column keep every bucket
    ascending.  A need-0 row is never taken: feasibility makes the
    buckets above 0 hold enough rows.
    """
    report = check_gale_ryser(p, q)
    if not report.feasible:
        raise InfeasibleMargins(report)
    ncols = len(q)
    rows = [0] * len(p)
    # one empty bucket above the top need, so the shift needs no case
    buckets: list[list[int]] = [[] for _ in range(ncols + 2)]
    for r, part in enumerate(p.parts):
        buckets[part].append(r)
    top = p.parts[0] if p.parts else 0
    for c, k in enumerate(q.parts):
        if not k:
            break
        u = top
        while u and len(buckets[u]) <= k:
            k -= len(buckets[u])
            u -= 1
        if not u and k:
            raise ConstructionStuck("greedy fill ran out of rows with need")
        bit = 1 << c
        head, rest = buckets[u][:k], buckets[u][k:]
        for bucket in (head, *buckets[u + 1 : top + 1]):
            for r in bucket:
                rows[r] |= bit
        if k:
            buckets[u - 1] = sorted(buckets[u - 1] + head)
        buckets[u : top + 1] = [sorted(rest + buckets[u + 1]), *buckets[u + 2 : top + 2]]
        if u < top:
            top -= 1
    a = _from_masks(rows, ncols)
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
    loop terminates.  Feasibility makes the totals equal, so the loop
    stops when no column is left in surplus.

    The first move in (row, donor, receiver) order fires.  Rows are held
    as int masks, bit c for column c, beside a mask of the surplus and
    one of the deficit columns.  A move leaves its donor at or above its
    target and its receiver at or below, so both masks only shrink.  A
    row's donors are then row & surplus and its receivers ~row & deficit,
    walked in ascending bit order.

    The row walk resumes where the last one first met a row holding a
    (donor, receiver) pair, the fired move's row or one whose pairs
    dominance rejected, never past it.  A row before that one held no
    pair; the masks only shrink and a row changes only when a move fires
    in it, so it holds none later and a walk from row 0 would pass it.

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
    nrows, ncols = len(p), len(q)
    rows = [(1 << part) - 1 for part in p.parts]
    cols = counts_above(p.parts, ncols)
    target = list(q.parts)
    surplus = sum(1 << c for c in range(ncols) if cols[c] > target[c])
    deficit = sum(1 << c for c in range(ncols) if cols[c] < target[c])
    sums = _ColumnSums(cols, target, nrows)

    def find_move(start):
        """The first admissible move from row start on, with the first
        row there that holds any pair."""
        first = None
        for r in range(start, nrows):
            row = rows[r]
            donors, receivers = row & surplus, ~row & deficit
            if donors and receivers:
                if first is None:
                    first = r
                for cj in _bits(donors):
                    for ck in _bits(receivers):
                        if sums.keeps_dominance(cj, ck):
                            return first, r, cj, ck
        raise ConstructionStuck("no admissible move but margins not met")

    start = 0
    while surplus:
        start, r, cj, ck = find_move(start)
        rows[r] ^= (1 << cj) | (1 << ck)
        sums.move(cj, ck)
        if cols[cj] == target[cj]:
            surplus ^= 1 << cj
        if cols[ck] == target[ck]:
            deficit ^= 1 << ck
    a = _from_masks(rows, ncols)
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
    a = BinaryMatrix(len(rt), len(ct), tuple(map(tuple, entries)))
    if list(row_sums(a)) != rt or list(col_sums(a)) != ct:
        raise ConstructionStuck("permuted matrix misses its margins")
    return a
