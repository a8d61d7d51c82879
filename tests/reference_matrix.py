"""The cell-grid constructions of matrices.ryser_construct and
matrices.swap_construct, kept as the references for the mask-based ones.

reference_ryser_construct fills one column at a time, in q's order: a
full sort of all rows by remaining need, ties to the lowest row index,
picks the rows that take a 1.

reference_swap_construct starts from the same left-aligned matrix and
fires the same first-found move: rows top-down, then the leftmost
surplus donor column holding a 1, then the leftmost deficit receiver
column holding a 0 whose move keeps the sorted column sums dominating q.
Each candidate is tested cell by cell from row 0 on every move.

reference_realize_exact_margins sorts both targets, fills the sorted
instance with reference_ryser_construct and copies it entry by entry
into input order.
"""

from __future__ import annotations

from crosscut.feasibility import Partition, check_gale_ryser, prefix_excess
from crosscut.matrices import BinaryMatrix


def reference_swap_construct(p: Partition, q: Partition) -> BinaryMatrix:
    """The matrix swap_construct builds for a Gale-Ryser feasible pair;
    RuntimeError when no move is left before the margins are met."""
    nrows, ncols = len(p), len(q)
    grid = [[1 if c < p.parts[r] else 0 for c in range(ncols)] for r in range(nrows)]
    cols = [sum(grid[r][c] for r in range(nrows)) for c in range(ncols)]
    target = list(q.parts)

    def find_move():
        for r in range(nrows):
            row = grid[r]
            for cj in range(ncols):
                if cols[cj] <= target[cj] or not row[cj]:
                    continue
                for ck in range(ncols):
                    if cols[ck] >= target[ck] or row[ck]:
                        continue
                    cand = list(cols)
                    cand[cj] -= 1
                    cand[ck] += 1
                    cand.sort(reverse=True)
                    if prefix_excess(q.parts, cand) is None:
                        return r, cj, ck
        return None

    while cols != target:
        move = find_move()
        if move is None:
            raise RuntimeError("no admissible move but margins not met")
        r, cj, ck = move
        grid[r][cj] = 0
        grid[r][ck] = 1
        cols[cj] -= 1
        cols[ck] += 1
    return BinaryMatrix.from_rows(grid)


def reference_ryser_construct(p: Partition, q: Partition) -> BinaryMatrix:
    """The matrix ryser_construct builds for a Gale-Ryser feasible pair."""
    nrows, ncols = len(p), len(q)
    need = list(p.parts)
    grid = [[0] * ncols for _ in range(nrows)]
    for c in range(ncols):
        for r in sorted(range(nrows), key=lambda r: (-need[r], r))[: q.parts[c]]:
            grid[r][c] = 1
            need[r] -= 1
    return BinaryMatrix.from_rows(grid)


def reference_realize_exact_margins(row_targets, col_targets):
    """The matrix realize_exact_margins builds: both targets sorted
    nonincreasing, ties by index, the sorted instance filled by
    reference_ryser_construct, then every entry copied to its row and
    column in input order.  None when the sorted pair is infeasible."""
    rt = [int(v) for v in row_targets]
    ct = [int(v) for v in col_targets]
    p, q = Partition(tuple(rt)), Partition(tuple(ct))
    if not check_gale_ryser(p, q).feasible:
        return None
    sorted_entries = reference_ryser_construct(p, q).entries
    row_order = sorted(range(len(rt)), key=lambda i: (-rt[i], i))
    col_order = sorted(range(len(ct)), key=lambda j: (-ct[j], j))
    grid = [[0] * len(ct) for _ in range(len(rt))]
    for si, i in enumerate(row_order):
        for sj, j in enumerate(col_order):
            grid[i][j] = sorted_entries[si][sj]
    if not rt:
        # from_rows cannot tell the width of a matrix without rows
        return BinaryMatrix(0, len(ct), ())
    return BinaryMatrix.from_rows(grid)
