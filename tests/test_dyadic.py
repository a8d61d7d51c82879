"""Exact arithmetic of the dyadic rational carrier type."""

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from crosscut.dyadic import Dyadic


def test_canonical_form_numerator_odd_or_zero():
    assert (Dyadic(4, 4).num, Dyadic(4, 4).exp) == (1, 2)
    assert (Dyadic(0, 7).num, Dyadic(0, 7).exp) == (0, 0)
    assert (Dyadic(6, 1).num, Dyadic(6, 1).exp) == (3, 0)
    assert (Dyadic(5, 4).num, Dyadic(5, 4).exp) == (5, 4)


def test_negative_exponent_means_multiplication():
    assert Dyadic(3, -2) == Dyadic(12)


def test_equality_is_structural_after_canonicalization():
    assert Dyadic(2, 2) == Dyadic(1, 1)
    assert hash(Dyadic(2, 2)) == hash(Dyadic(1, 1))


def test_parse_and_str_round_trip():
    for text in ("5/16", "3", "0", "7/8", "0.25"):
        d = Dyadic.parse(text)
        assert Dyadic.parse(str(d)) == d


def test_parse_rejects_non_dyadic():
    with pytest.raises(ValueError):
        Dyadic.parse("1/3")


def test_int_operands_coerce():
    assert Dyadic(1, 1) + 1 == Dyadic(3, 1)
    assert 2 - Dyadic(1, 1) == Dyadic(3, 1)
    assert 2 * Dyadic(3, 2) == Dyadic(3, 1)
    assert Dyadic(1, 1) < 1


def test_float_conversion_for_display_only():
    assert float(Dyadic(5, 4)) == 0.3125


def test_round_fraction_ties_toward_zero():
    assert Dyadic.round_fraction(Fraction(1, 3), 4) == Dyadic(5, 4)
    assert Dyadic.round_fraction(Fraction(3, 32), 4) == Dyadic(1, 4)  # tie: down
    assert Dyadic.round_fraction(Fraction(-3, 32), 4) == Dyadic(-1, 4)
    assert Dyadic.round_fraction(Fraction(5, 16), 4) == Dyadic(5, 4)  # exact


signed = st.integers(-512, 512)
exps = st.integers(0, 8)


@given(signed, exps, signed, exps)
def test_arithmetic_matches_fraction_oracle(a, ae, b, be):
    x, y = Dyadic(a, ae), Dyadic(b, be)
    fx, fy = Fraction(a, 1 << ae), Fraction(b, 1 << be)
    assert (x + y).to_fraction() == fx + fy
    assert (x - y).to_fraction() == fx - fy
    assert (x * y).to_fraction() == fx * fy
    assert abs(x).to_fraction() == abs(fx)
    assert (-x).to_fraction() == -fx
    assert (x < y) == (fx < fy)
    assert (x == y) == (fx == fy)
    assert (x >= y) == (fx >= fy)


@given(signed, exps)
def test_canonical_invariant(a, ae):
    x = Dyadic(a, ae)
    assert x.exp >= 0
    assert x.num % 2 == 1 or x.num == 0 or x.exp == 0
    if x.num == 0:
        assert x.exp == 0
