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
from crosscut.matrices import BinaryMatrix, _ColumnSums, col_sums, row_sums
from reference_matrix import reference_ryser_construct, reference_swap_construct
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
    bits, move = matrices._bits, _ColumnSums.move

    def counted_bits(mask):
        calls.append(mask)
        return bits(mask)

    def counted_move(self, cj, ck):
        moves.append((cj, ck))
        move(self, cj, ck)

    monkeypatch.setattr(matrices, "_bits", counted_bits)
    monkeypatch.setattr(_ColumnSums, "move", counted_move)
    p, q = _ramp_shadow()
    swap_construct(p, q)
    assert len(moves) == 1344
    bound = 2 * len(moves) + len(p)
    assert bound == 2816
    assert len(calls) <= bound
