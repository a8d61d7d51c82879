"""matrices.swap_construct against the cell-by-cell reference scan.

tests/reference_matrix.py keeps the scan that retests every (row, donor,
receiver) cell from row 0 on each move.  swap_construct must fire the
same moves, so both build the same matrix.
"""

from __future__ import annotations

import random

import pytest

from crosscut import Partition, swap_construct
from crosscut.gridset import _plateau_values
from crosscut.ingest import quantize
from crosscut.matrices import BinaryMatrix, col_sums, row_sums
from reference_matrix import reference_swap_construct
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
    raw_f, raw_g, params = CASES["sweep7_ramp"]
    side = params.side
    f, g = (quantize(raw, params)[0] for raw in (raw_f, raw_g))
    p, q = (
        Partition(tuple(int(v.to_fraction() * side) for v in _plateau_values(fn, params.depth)))
        for fn in (g, f)
    )
    assert len(p) == 128
    a = swap_construct(p, q)
    assert a == reference_swap_construct(p, q)
    assert row_sums(a) == p.parts and col_sums(a) == q.parts
