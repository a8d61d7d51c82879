"""Step functions, rearrangements, distribution primitives.

Expected values for the non-obvious cases are derived with the Fraction
oracles in conftest and frozen here.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings

from conftest import (
    fn_as_fracs,
    oracle_distribution,
    oracle_integral,
    oracle_primitive_dist,
    oracle_primitive_rearr,
    rand_stepfn,
    stepfn_st,
)
from crosscut import (
    StepFunction,
    distribution,
    distribution_steps,
    l1_distance,
    primitive_dist,
    primitive_rearr,
    rearrange,
    rearrangement_value,
)
from crosscut.dyadic import Dyadic

D = Dyadic


def halved_ramp(depth: int) -> StepFunction:
    """(1 - x)/2 quantized to exact interval averages on a 2**depth grid."""
    cells = 1 << depth
    vals = []
    for j in range(cells):
        avg = (1 - Fraction(2 * j + 1, 2 * cells)) / 2
        vals.append(Dyadic.from_fraction(avg))
    return StepFunction.from_grid(vals, depth)


# ---------------------------------------------------------------------------
# construction and canonical form


def test_canonical_merges_equal_neighbors():
    f = StepFunction((D(0), D(1, 1), D(1)), (D(3), D(3)))
    assert f == StepFunction.constant(3)


def test_rejects_bad_domains_and_values():
    with pytest.raises(ValueError):
        StepFunction((D(0), D(1, 1)), (D(1),))
    with pytest.raises(ValueError):
        StepFunction((D(0), D(1, 1), D(1)), (D(1),))
    with pytest.raises(ValueError):
        StepFunction((D(0), D(1, 1), D(1, 1), D(1)), (D(1), D(2), D(3)))
    with pytest.raises(ValueError):
        StepFunction((D(0), D(1)), (D(-1),))


def test_value_at_is_right_continuous():
    f = StepFunction.from_grid([D(2), D(5)], 1)
    assert f.value_at(D(0)) == D(2)
    assert f.value_at(D(1, 1)) == D(5)
    with pytest.raises(ValueError):
        f.value_at(D(1))


# ---------------------------------------------------------------------------
# distribution


def test_distribution_of_quantized_ramp_at_quarter():
    # level set {f > 1/4} of the quantized ramp has measure exactly 1/2
    f = halved_ramp(4)
    assert distribution(f, D(1, 2)) == D(1, 1)


def test_distribution_strict_at_top_level():
    assert distribution(StepFunction.constant(D(3, 2)), D(3, 2)) == D(0)


def test_distribution_two_plateaus():
    f = StepFunction.from_grid([D(1), D(1, 1)], 1)
    expected = oracle_distribution(fn_as_fracs(f), Fraction(3, 4))
    assert expected == Fraction(1, 2)
    assert distribution(f, D(3, 2)).to_fraction() == expected


# ---------------------------------------------------------------------------
# rearrangement


def test_rearrange_constant_is_fixed_point():
    f = StepFunction.constant(D(5, 3))
    assert rearrange(f) == f


def test_rearrange_two_plateaus_sorts_descending():
    f = StepFunction.from_grid([D(1, 1), D(1)], 1)
    assert rearrange(f) == StepFunction.from_grid([D(1), D(1, 1)], 1)


def test_rearrange_nonincreasing_is_fixed_point():
    f = halved_ramp(4)
    assert rearrange(f) == f


def test_rearrangement_value_vanishes_from_one_on():
    f = StepFunction.from_grid([D(1), D(1, 2)], 1)
    assert rearrangement_value(f, D(1)) == D(0)
    assert rearrangement_value(f, D(3, 1)) == D(0)
    assert rearrangement_value(f, D(1, 1)) == D(1, 2)


# ---------------------------------------------------------------------------
# primitives


def test_primitive_rearr_saturates():
    f = StepFunction.from_grid([D(1), D(0)], 1)
    expected = oracle_primitive_rearr(fn_as_fracs(f), Fraction(3, 4))
    assert expected == Fraction(1, 2)
    assert primitive_rearr(f, D(3, 2)).to_fraction() == expected
    assert primitive_rearr(f, D(5)) == D(1, 1)
    assert primitive_rearr(StepFunction.constant(0), D(1, 1)) == D(0)


def test_primitive_rearr_tracks_ramp_formula():
    # against t/2 - t^2/4 within the exact quantization distance
    f = halved_ramp(4)
    l1_bound = Fraction(1, 128)  # sum of per-interval |linear - average|
    for j in range(17):
        t = Fraction(j, 16)
        exact = t / 2 - t * t / 4
        got = primitive_rearr(f, Dyadic.from_fraction(t)).to_fraction()
        assert abs(got - exact) <= l1_bound


def test_primitive_dist_scaled_constant():
    two = StepFunction.constant(2)
    expected = oracle_primitive_dist(fn_as_fracs(two), Fraction(1))
    assert expected == Fraction(1)
    assert primitive_dist(two, D(1)).to_fraction() == expected
    assert primitive_dist(StepFunction.constant(0), D(7, 2)) == D(0)


def test_primitive_dist_tracks_ramp_formula():
    g = halved_ramp(4)
    l1_bound = Fraction(1, 128)
    for j in range(9):
        t = Fraction(j, 16)
        exact = t - t * t
        got = primitive_dist(g, Dyadic.from_fraction(t)).to_fraction()
        assert abs(got - exact) <= l1_bound


def test_distribution_steps_cover_the_value_range():
    f = StepFunction.from_grid([D(1), D(1, 1)], 1)
    steps = distribution_steps(f)
    assert steps == ((D(0), D(1, 1), D(1)), (D(1, 1), D(1), D(1, 1)))
    assert distribution_steps(StepFunction.constant(0)) == ()


def test_distribution_steps_match_the_distribution_per_level():
    rng = random.Random(77)
    for _ in range(200):
        f = rand_stepfn(rng, max_pieces=rng.randint(1, 12), max_value_units=rng.choice((1, 8, 64)))
        levels = sorted(set(f.values) | {D(0)})
        expected = tuple((lo, hi, distribution(f, lo)) for lo, hi in zip(levels, levels[1:]))
        assert distribution_steps(f) == expected


# ---------------------------------------------------------------------------
# properties


@given(stepfn_st(), stepfn_st())
@settings(max_examples=60)
def test_l1_distance_matches_oracle(f, g):
    breaks = sorted(
        {b.to_fraction() for b in f.breakpoints} | {b.to_fraction() for b in g.breakpoints}
    )
    ft, gt = fn_as_fracs(f), fn_as_fracs(g)

    def at(triples, x):
        for lo, hi, v in triples:
            if lo <= x < hi:
                return v
        raise AssertionError

    expect = sum(
        abs(at(ft, a) - at(gt, a)) * (b - a) for a, b in zip(breaks, breaks[1:])
    )
    assert l1_distance(f, g).to_fraction() == expect


@given(stepfn_st())
@settings(max_examples=80)
def test_rearrangement_is_equimeasurable(f):
    levels = sorted(set(f.values))
    for s in levels + [Dyadic(0), f.max_value() + 1]:
        assert distribution(rearrange(f), s) == distribution(f, s)


@given(stepfn_st())
@settings(max_examples=80)
def test_rearrangement_is_nonincreasing_and_idempotent(f):
    fstar = rearrange(f)
    assert list(fstar.values) == sorted(fstar.values, reverse=True)
    assert rearrange(fstar) == fstar


@given(stepfn_st())
@settings(max_examples=60)
def test_norm_identity(f):
    total = f.integral()
    assert primitive_rearr(f, Dyadic(1)) == total
    assert primitive_dist(f, f.max_value() + 1) == total
    assert oracle_integral(fn_as_fracs(f)) == total.to_fraction()


def test_identities_relating_rearrangement_and_distribution():
    # integral_t^inf lambda_f + t lambda_f(t) = integral_0^lambda_f(t) f*
    # integral_t^inf f*       + t f*(t)      = integral_0^f*(t) lambda_f
    rng = random.Random(20260810)
    for _ in range(300):
        f = rand_stepfn(rng)
        total = f.integral()
        for _ in range(5):
            t = Dyadic(rng.randrange(1, 200), rng.randrange(6))
            lam = distribution(f, t)
            lhs1 = (total - primitive_dist(f, t)) + t * lam
            rhs1 = primitive_rearr(f, lam)
            assert lhs1 == rhs1
            fstar_t = rearrangement_value(f, t)
            tail = total - primitive_rearr(f, t)
            assert tail + t * fstar_t == primitive_dist(f, fstar_t)


def test_rearrangement_splits_across_separated_bands():
    # u >= C1 on [0,p), C2 <= u <= C1 on [p,q), u <= C2 on [q,1]:
    # the rearrangement preserves the mass of each of the three bands
    rng = random.Random(11)
    for _ in range(200):
        pi, qi = sorted(rng.sample(range(1, 16), 2))
        p, q = Dyadic(pi, 4), Dyadic(qi, 4)
        c1u = rng.randrange(20, 33)
        c2u = rng.randrange(5, c1u + 1)
        vals = []
        for j in range(16):
            if j < pi:
                vals.append(Dyadic(rng.randrange(c1u, 49), 5))
            elif j < qi:
                vals.append(Dyadic(rng.randrange(c2u, c1u + 1), 5))
            else:
                vals.append(Dyadic(rng.randrange(0, c2u + 1), 5))
        u = StepFunction.from_grid(vals, 4)
        assert primitive_rearr(u, p) == u.integral_to(p)
        assert primitive_rearr(u, q) == u.integral_to(q)


@given(stepfn_st(), stepfn_st())
@settings(max_examples=60)
def test_slope_point_check_is_complete(f, g):
    # F(t) = int_0^t f*, G(t) = int_0^t lambda_g are piecewise linear, so
    # F <= G at every slope change of either (plus the saturation tail)
    # iff F <= G at all midpoints between them too
    pts = set(rearrange(f).breakpoints[1:]) | set(g.values) | {Dyadic(1)}
    pts = sorted(p for p in pts if p > Dyadic(0))
    pts.append(pts[-1] + 1)  # beyond both saturation points
    coarse = all(primitive_rearr(f, t) <= primitive_dist(g, t) for t in pts)
    refined = list(pts)
    for a, b in zip(pts, pts[1:]):
        refined.append((a + b) * Dyadic(1, 1))
    refined.append(pts[0] * Dyadic(1, 1))
    fine = all(primitive_rearr(f, t) <= primitive_dist(g, t) for t in refined)
    assert coarse == fine
