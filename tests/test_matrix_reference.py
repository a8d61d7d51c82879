"""matrices.ryser_construct and matrices.swap_construct against their
cell-grid references.

tests/reference_matrix.py keeps the greedy that sorts every row for each
column and the scan that retests every (row, donor, receiver) cell from
row 0 on each move.  ryser_construct must pick the same rows and
swap_construct must fire the same moves, so each builds the matrix of
its reference.
"""

from __future__ import annotations

import random

import pytest

from crosscut import Partition, matrices, ryser_construct, swap_construct
from crosscut.gridset import _cell_units
from crosscut.ingest import quantize
from crosscut.matrices import (
    BinaryMatrix,
    _ColumnSums,
    col_sums,
    realize_exact_margins,
    row_sums,
)
from reference_matrix import (
    reference_realize_exact_margins,
    reference_ryser_construct,
    reference_swap_construct,
)
from test_golden import CASES


def _random_margins(rng: random.Random):
    """Row and column sums of a random 0/1 matrix, so always realizable."""
    nrows, ncols = rng.randint(1, 14), rng.randint(1, 14)
    density = rng.random()
    a = BinaryMatrix.from_rows(
        [[int(rng.random() < density) for _ in range(ncols)] for _ in range(nrows)]
    )
    return Partition(row_sums(a)), Partition(col_sums(a))


@pytest.mark.parametrize("chunk", range(4))
def test_swap_construct_matches_reference_on_random_margins(chunk):
    for seed in range(chunk * 100, chunk * 100 + 100):
        p, q = _random_margins(random.Random(53_000 + seed))
        assert swap_construct(p, q) == reference_swap_construct(p, q), seed


def test_swap_construct_matches_reference_on_ramp_shadow():
    # the discrete shadow of the N=7 ramp: whole cells per band and column
    p, q = _ramp_shadow()
    assert len(p) == 128
    a = swap_construct(p, q)
    assert a == reference_swap_construct(p, q)
    assert row_sums(a) == p.parts and col_sums(a) == q.parts


def _ramp_shadow():
    """Rows and columns of the N=7 ramp's discrete shadow, 128 each."""
    raw_f, raw_g, params = CASES["sweep7_ramp"]
    f, g = (quantize(raw, params)[0] for raw in (raw_f, raw_g))
    nk = params.depth + params.subres
    return tuple(
        Partition(tuple(u >> params.subres for u in _cell_units(fn, params.depth, nk)))
        for fn in (g, f)
    )


@pytest.mark.parametrize("chunk", range(4))
def test_ryser_construct_matches_reference_on_random_margins(chunk):
    for seed in range(chunk * 100, chunk * 100 + 100):
        p, q = _random_margins(random.Random(53_000 + seed))
        assert ryser_construct(p, q) == reference_ryser_construct(p, q), seed


def test_ryser_construct_matches_reference_on_ramp_shadow():
    p, q = _ramp_shadow()
    a = ryser_construct(p, q)
    assert a == reference_ryser_construct(p, q)
    assert row_sums(a) == p.parts and col_sums(a) == q.parts


EDGE_SHAPES = {
    "no_rows_no_cols": ((), ()),
    "no_cols": ((0, 0), ()),
    "all_zero": ((0, 0, 0), (0, 0)),
    "zero_row_and_col": ((2, 1, 0), (2, 1, 0)),
    "full_rows": ((3, 3), (2, 2, 2)),
    "full_rows_zero_row": ((4, 4, 0), (2, 2, 2, 2)),
    "one_full_column": ((1, 1, 1), (3, 0)),
}
CONSTRUCTORS = {
    "ryser": (ryser_construct, reference_ryser_construct),
    "swap": (swap_construct, reference_swap_construct),
}


@pytest.mark.parametrize("method", CONSTRUCTORS)
@pytest.mark.parametrize("shape", EDGE_SHAPES)
def test_constructors_match_reference_on_edge_shapes(shape, method):
    construct, reference = CONSTRUCTORS[method]
    p, q = (Partition(parts) for parts in EDGE_SHAPES[shape])
    a = construct(p, q)
    assert a == reference(p, q)
    assert (a.rows, a.cols) == (len(p), len(q))
    assert row_sums(a) == p.parts and col_sums(a) == q.parts


def test_swap_construct_row_walk_follows_the_moves_on_ramp_shadow(monkeypatch):
    # the row walk resumes at the first row that held a (donor, receiver)
    # pair, so a move whose first pair keeps dominance walks one donor and
    # one receiver list; the rows term leaves room for rejected pairs.
    # Walking from row 0 on every move makes 30,471 calls.
    calls, moves = [], []
    bits, try_move = matrices._bits, _ColumnSums.try_move

    def counted_bits(mask):
        calls.append(mask)
        return bits(mask)

    def counted_try_move(self, cj, ck):
        ok = try_move(self, cj, ck)
        if ok:
            moves.append((cj, ck))
        return ok

    monkeypatch.setattr(matrices, "_bits", counted_bits)
    monkeypatch.setattr(_ColumnSums, "try_move", counted_try_move)
    p, q = _ramp_shadow()
    swap_construct(p, q)
    assert len(moves) == 1344
    bound = 2 * len(moves) + len(p)
    assert bound == 2816
    assert len(calls) <= bound


def _unsorted_pair(rng: random.Random):
    """Row and column targets in input order: the shuffled margins of a
    random 0/1 matrix, with tied rows, inserted zero rows and columns, an
    empty side, or a perturbation that is mostly infeasible."""
    kind = rng.randrange(5)
    nrows, ncols = rng.randint(1, 12), rng.randint(1, 12)
    if kind == 4:
        # 0 x c or r x 0
        return ([], [0] * ncols) if rng.random() < 0.5 else ([0] * nrows, [])
    if kind == 1:
        # every row a rotation of one pattern: all row sums tie
        pattern = [int(rng.random() < 0.5) for _ in range(ncols)]
        grid = [pattern[s:] + pattern[:s] for s in (rng.randrange(ncols) for _ in range(nrows))]
    else:
        density = rng.random()
        grid = [[int(rng.random() < density) for _ in range(ncols)] for _ in range(nrows)]
    a = BinaryMatrix.from_rows(grid)
    rt, ct = list(row_sums(a)), list(col_sums(a))
    if kind == 2:
        for _ in range(rng.randint(1, 3)):
            rt.insert(rng.randint(0, len(rt)), 0)
            ct.insert(rng.randint(0, len(ct)), 0)
    if kind == 3:
        side = rt if rng.random() < 0.5 else ct
        how = rng.randrange(3)
        if how == 0:
            # the totals differ
            side[rng.randrange(len(side))] += 1
        elif how == 1:
            # one target larger than the other side's length
            side[rng.randrange(len(side))] = len(ct if side is rt else rt) + 1
        else:
            # one unit moved between two targets: dominance may break
            i, j = rng.randrange(len(side)), rng.randrange(len(side))
            if side[i]:
                side[i] -= 1
                side[j] += 1
    rng.shuffle(rt)
    rng.shuffle(ct)
    return rt, ct


@pytest.mark.parametrize("chunk", range(4))
def test_realize_exact_margins_matches_reference_on_unsorted_pairs(chunk):
    infeasible = empty = 0
    for seed in range(chunk * 500, chunk * 500 + 500):
        rt, ct = _unsorted_pair(random.Random(71_000 + seed))
        a = realize_exact_margins(rt, ct)
        assert a == reference_realize_exact_margins(rt, ct), seed
        if a is None:
            infeasible += 1
        else:
            assert (a.rows, a.cols) == (len(rt), len(ct)), seed
            assert list(row_sums(a)) == rt and list(col_sums(a)) == ct, seed
            empty += not (a.rows and a.cols)
    # each chunk holds both outcomes and both empty shapes
    assert infeasible >= 50 and empty >= 50


def _large_unsorted_pair():
    """Shuffled margins of a seeded random 256 x 2,048 matrix whose rows
    have densities from 0 to 1."""
    rng = random.Random(2048)
    grid = [[int(rng.random() < r / 255) for _ in range(2048)] for r in range(256)]
    a = BinaryMatrix.from_rows(grid)
    rt, ct = list(row_sums(a)), list(col_sums(a))
    rng.shuffle(rt)
    rng.shuffle(ct)
    return rt, ct


def test_realize_exact_margins_matches_reference_on_a_256_by_2048_pair():
    rt, ct = _large_unsorted_pair()
    a = realize_exact_margins(rt, ct)
    assert a is not None and a == reference_realize_exact_margins(rt, ct)
    assert list(row_sums(a)) == rt and list(col_sums(a)) == ct


def _entries_reads(build, *args) -> int:
    """How often build(*args) reads BinaryMatrix.entries."""
    reads = []
    entries = BinaryMatrix.entries

    def counted(a):
        reads.append(a)
        return entries.fget(a)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(BinaryMatrix, "entries", property(counted))
        build(*args)
    return len(reads)


@pytest.mark.parametrize("pair", ["ramp_shadow", "256x2048"])
def test_matrices_read_entries_only_for_the_column_sums(pair):
    # a BinaryMatrix holds row masks, and entries is built from them for
    # output alone: col_sums counts the columns on the rows' digits, so
    # a constructor's margin check never reads it.  Validating entries on
    # construction, or permuting unsorted margins through them, reads it.
    if pair == "ramp_shadow":
        p, q = _ramp_shadow()
        rt, ct = list(p.parts), list(q.parts)
        random.Random(128).shuffle(rt)
        random.Random(129).shuffle(ct)
    else:
        rt, ct = _large_unsorted_pair()
        p, q = Partition(tuple(rt)), Partition(tuple(ct))
    a = realize_exact_margins(rt, ct)
    assert _entries_reads(col_sums, a) == 0
    assert _entries_reads(BinaryMatrix, a.rows, a.cols, a.masks) == 0
    assert _entries_reads(realize_exact_margins, rt, ct) == 0
    assert _entries_reads(ryser_construct, p, q) == 0
    assert _entries_reads(swap_construct, p, q) == 0
