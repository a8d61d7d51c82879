"""Hand-worked cases for the benchmark's oracles.

Run with `python3 -m pytest perfbench/test_oracles.py` or as part of
`python3 perfbench/run.py --self-test`.  Needs no crosscut import.
"""

from fractions import Fraction

import oracles as o

F = Fraction


def test_gale_ryser_textbook_pair():
    # p = (3, 2), q = (2, 2, 1): conjugate of p is (2, 2, 1), prefix sums tie
    assert o.conjugate([3, 2]) == [2, 2, 1]
    assert o.gale_ryser([3, 2], [2, 2, 1]) == ("feasible", None, (5, 5))
    # (4, 1) has conjugate (2, 1, 1, 1): q's prefix 2 + 2 = 4 exceeds 2 + 1
    assert o.gale_ryser([4, 1], [2, 2, 1]) == ("infeasible_majorization", (2, 4, 3), (5, 5))
    assert o.gale_ryser([3, 3], [2, 2, 1])[0] == "infeasible_norm"


def test_swap_moves_and_margins():
    # left-aligned (3, 2) has column sums (2, 2, 1) already: no move
    assert o.swap_moves([3, 2], [2, 2, 1]) == 0
    # (2, 2) starts at (2, 2, 0) against (2, 1, 1): one move
    assert o.swap_moves([2, 2], [2, 1, 1]) == 1
    assert o.matrix_margins([[1, 1, 0], [1, 0, 1]]) == ([2, 2], [2, 1, 1])


def ramp(steps):
    """(1 - x)/2 as its exact averages on `steps` uniform cells."""
    return o.grid_pieces([(1 - F(2 * j + 1, 2 * steps)) / 2 for j in range(steps)])


def test_ramp_closed_forms():
    steps = 64
    f = ramp(steps)
    assert o.integral(f) == F(1, 4)
    for j in range(1, steps // 2 + 1):
        t = F(j, steps)
        # cell averages integrate exactly over whole cells
        assert o.rearr_primitive(f, t) == t / 2 - t * t / 4
        # the staircase is within 1/(8 steps) of the ramp in L1, and
        # min(., t) is 1-Lipschitz
        assert abs(o.dist_primitive(f, t) - (t - t * t)) <= F(1, 8 * steps)
    verdict, witness, totals = o.prefix_test(f, f)
    assert verdict == "feasible" and witness is None and totals == (F(1, 4), F(1, 4))


def test_prefix_test_witness():
    # the set [0, 1/2) x [0, 1] realizes f = 1 on [0, 1/2), g = 1/2, and
    # its transpose realizes the swapped pair
    half = o.grid_pieces([F(1), F(0)])
    flat = o.grid_pieces([F(1, 2), F(1, 2)])
    assert o.prefix_test(half, flat)[0] == "feasible"
    assert o.prefix_test(flat, half)[0] == "feasible"
    # f = 1 on [0, 1/4), 1/4 after; g = 7/8 on [0, 1/2), 0 after; both
    # integrals are 7/16.  Slope points 1/4, 7/8, 1; at t = 1/4 the left
    # side is t = 1/4 and the right side min(7/8, t)/2 = 1/8.
    f = o.grid_pieces([F(1), F(1, 4), F(1, 4), F(1, 4)])
    g = o.grid_pieces([F(7, 8), F(0)])
    assert o.prefix_points(f, g) == [F(1, 4), F(7, 8), F(1)]
    assert o.prefix_test(f, g) == (
        "infeasible_majorization", (F(1, 4), F(1, 4), F(1, 8)), (F(7, 16), F(7, 16))
    )


def test_sections_and_residual():
    # N = 1, K = 1: cap 2; band 0 holds 3 sub-units, band 1 holds 1
    fill = o.hypograph_fill([3, 1], side=2, cap=2)
    assert fill == [[2, 1], [1, 0]]
    assert o.row_units(fill) == [3, 1]
    # sub-columns: col 0 -> (w > 0: 2 bands, w > 1: 1 band); col 1 -> (1, 0)
    assert o.column_counts(fill, 2) == [2, 1, 1, 0]
    # f = 1/2 on both columns: |1/2 - v| with v = count/2 = 1, 1/2, 1/2, 0
    res = o.l1_residual([F(1, 2), F(1, 2)], [2, 1, 1, 0], depth=1, cap=2)
    assert res == (F(1, 2) + 0 + 0 + F(1, 2)) / 4


def test_replay_single_swap():
    # same grid; swap generation-1 squares (band 1, donor 1, receiver 2):
    # band 0 becomes [1, 2], the sub-column counts become (2, 0, 1, 1)
    per_swap, per_gen, initial, fill = o.replay(
        [3, 1], [F(1, 2), F(1, 2)], [(1, 1, 1, 2)], depth=1, subres=1
    )
    assert fill == [[1, 2], [1, 0]]
    assert initial == F(1, 4)
    counts = o.column_counts(fill, 2)
    assert counts == [2, 0, 1, 1]
    final = o.l1_residual([F(1, 2), F(1, 2)], counts, 1, 2)
    drop, sym = per_swap[0]
    assert drop == initial - final
    # one sub-unit moved each way: area 2 * 1 / (2 * 2 * 2)
    assert sym == F(2, 8)
    assert per_gen[1] == (1, final, F(2, 8))


def test_quantization_oracles():
    pieces = o.raw_pieces([F(0), F(1, 3)], [F(1), F(0)])
    assert o.cell_averages(pieces, 2) == [F(2, 3), F(0)]
    l1, sup = o.quantization_errors(pieces, [F(2, 3), F(0)])
    # |1 - 2/3| on [0, 1/3) and |0 - 2/3| on [1/3, 1/2)
    assert l1 == F(1, 3) * F(1, 3) + F(2, 3) * F(1, 6)
    assert sup == F(2, 3)


if __name__ == "__main__":
    for name, fn in sorted(globals().items()):
        if name.startswith("test_") and callable(fn):
            fn()
            print(f"ok {name}")
