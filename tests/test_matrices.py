"""Matrix constructors against the exhaustive oracle."""

import os
import pathlib
import random
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

import crosscut
from crosscut import (
    BinaryMatrix,
    InfeasibleMargins,
    InstanceTooLarge,
    Partition,
    brute_force_realize,
    check_gale_ryser,
    ryser_construct,
    swap_construct,
)
from crosscut.matrices import (
    ConstructionStuck,
    _ColumnSums,
    col_sums,
    realize_exact_margins,
    row_sums,
)


def test_row_and_col_sums():
    a = BinaryMatrix.from_rows([[1, 1, 1], [1, 1, 0]])
    assert row_sums(a) == (3, 2)
    assert col_sums(a) == (2, 2, 1)
    z = BinaryMatrix.from_rows([[0, 0], [0, 0]])
    assert row_sums(z) == (0, 0)
    assert col_sums(z) == (0, 0)
    eye = BinaryMatrix.from_rows([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    assert row_sums(eye) == (1, 1, 1)
    assert col_sums(eye) == (1, 1, 1)


def test_entries_validated():
    with pytest.raises(ValueError):
        BinaryMatrix.from_rows([[0, 2]])
    with pytest.raises(ValueError):
        BinaryMatrix(1, 2, ((0,),))


def test_text_round_trip():
    a = BinaryMatrix.from_rows([[1, 0, 1], [0, 1, 1]])
    assert BinaryMatrix.from_text(a.to_text()) == a
    with pytest.raises(ValueError):
        BinaryMatrix.from_text("10\nx1\n")


def test_ryser_textbook_margins():
    a = ryser_construct(Partition((3, 2)), Partition((2, 2, 1)))
    assert row_sums(a) == (3, 2)
    assert col_sums(a) == (2, 2, 1)


def test_ryser_unique_full_matrix():
    a = ryser_construct(Partition((2, 2)), Partition((2, 2)))
    assert a.entries == ((1, 1), (1, 1))


def test_ryser_rejects_infeasible():
    with pytest.raises(InfeasibleMargins) as exc:
        ryser_construct(Partition((4, 1)), Partition((2, 2, 1)))
    assert exc.value.report.witness.point == 2


def test_brute_force_examples():
    assert brute_force_realize(Partition((3, 2)), Partition((2, 2, 1))) is not None
    assert brute_force_realize(Partition((4, 1)), Partition((2, 2, 1))) is None
    z = brute_force_realize(Partition((0,)), Partition((0,)))
    assert z is not None and z.entries == ((0,),)


def test_brute_force_cell_bound():
    with pytest.raises(InstanceTooLarge):
        brute_force_realize(Partition((1,) * 5), Partition((1,) * 5))


def test_swap_construct_textbook_margins():
    a = swap_construct(Partition((3, 2)), Partition((2, 2, 1)))
    assert row_sums(a) == (3, 2)
    assert col_sums(a) == (2, 2, 1)


def test_swap_construct_already_exact_start_is_untouched():
    # column sums of the left-aligned start equal the conjugate of p; when
    # q is exactly that, no move fires and the start comes back verbatim
    p = Partition((2, 1))
    a = swap_construct(p, Partition((2, 1)))
    assert a.entries == ((1, 1), (1, 0))


def test_swap_construct_with_oracle_confirmation():
    p, q = Partition((2, 1, 1)), Partition((2, 2))
    a = swap_construct(p, q)
    assert row_sums(a) == p.parts and col_sums(a) == q.parts
    assert brute_force_realize(p, q) is not None


def test_swap_construct_rejects_infeasible():
    with pytest.raises(InfeasibleMargins):
        swap_construct(Partition((4, 1)), Partition((2, 2, 1)))


def test_swap_construct_without_admissible_move_raises(monkeypatch):
    # the row walk must end in ConstructionStuck when dominance rejects
    # every pair, not loop or run off the rows
    monkeypatch.setattr(_ColumnSums, "try_move", lambda self, cj, ck: False)
    with pytest.raises(ConstructionStuck):
        swap_construct(Partition((2, 2)), Partition((2, 1, 1)))


def test_swap_construct_without_admissible_move_raises_under_python_O():
    code = (
        "from crosscut import Partition, swap_construct\n"
        "from crosscut.matrices import ConstructionStuck, _ColumnSums\n"
        "_ColumnSums.try_move = lambda self, cj, ck: False\n"
        "try:\n"
        "    swap_construct(Partition((2, 2)), Partition((2, 1, 1)))\n"
        "except ConstructionStuck:\n"
        "    raise SystemExit(0)\n"
        "raise SystemExit(1)\n"
    )
    src = str(pathlib.Path(crosscut.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run(
        [sys.executable, "-O", "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert done.returncode == 0, done.stderr


def test_constructors_keep_the_width_of_a_matrix_without_rows():
    # from_rows cannot tell the width of an empty grid; the constructors
    # build from the declared shape
    p, q = Partition(()), Partition((0, 0, 0))
    for build in (ryser_construct, swap_construct, brute_force_realize):
        a = build(p, q)
        assert a == BinaryMatrix(0, 3, ())
        assert row_sums(a) == () and col_sums(a) == (0, 0, 0)
    a = realize_exact_margins([], [0, 0, 0])
    assert a == BinaryMatrix(0, 3, ())


def test_realize_exact_margins_keeps_input_order():
    a = realize_exact_margins([1, 3], [2, 1, 1])
    assert a is not None
    assert row_sums(a) == (1, 3)
    assert col_sums(a) == (2, 1, 1)
    assert realize_exact_margins([2, 2], [3, 1, 0]) is None


@st.composite
def random_matrix(draw):
    nrows = draw(st.integers(1, 4))
    ncols = draw(st.integers(1, 5))
    bits = draw(
        st.lists(
            st.lists(st.integers(0, 1), min_size=ncols, max_size=ncols),
            min_size=nrows,
            max_size=nrows,
        )
    )
    return BinaryMatrix.from_rows(bits)


@given(random_matrix())
@settings(max_examples=100, deadline=None)
def test_margins_of_real_matrices_are_always_constructible(a):
    p = Partition(row_sums(a))
    q = Partition(col_sums(a))
    assert check_gale_ryser(p, q).feasible
    for build in (ryser_construct, swap_construct):
        b = build(p, q)
        assert row_sums(b) == p.parts
        assert col_sums(b) == q.parts


def test_swap_construct_matches_oracle_on_random_instances():
    rng = random.Random(99)
    for _ in range(150):
        nrows, ncols = rng.randint(1, 4), rng.randint(1, 5)
        p = Partition(tuple(rng.randint(0, ncols) for _ in range(nrows)))
        q = Partition(tuple(rng.randint(0, nrows) for _ in range(ncols)))
        feasible = brute_force_realize(p, q) is not None
        try:
            a = swap_construct(p, q)
            assert feasible
            assert row_sums(a) == p.parts and col_sums(a) == q.parts
        except InfeasibleMargins:
            assert not feasible
