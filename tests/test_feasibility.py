"""Feasibility checks: conjugation, prefix dominance, certificates."""

import random

from hypothesis import given, settings, strategies as st

from conftest import rand_equal_norm_pair
from crosscut import (
    Partition,
    StepFunction,
    Verdict,
    brute_force_realize,
    check_gale_ryser,
    check_hlp,
    check_hlp_symmetric,
    conjugate,
    primitive_dist,
    primitive_rearr,
    rearrange,
)
from crosscut.dyadic import Dyadic

D = Dyadic

partitions = st.lists(st.integers(0, 6), min_size=0, max_size=6).map(
    lambda xs: Partition(tuple(xs))
)


# ---------------------------------------------------------------------------
# conjugate


def test_conjugate_examples():
    assert conjugate(Partition((3, 2))).parts == (2, 2, 1)
    assert conjugate(Partition(())).parts == ()
    assert conjugate(Partition((4, 1))).parts == (2, 1, 1, 1)


@given(partitions)
def test_conjugate_matches_its_definition(p):
    top = p.parts[0] if p.parts else 0
    literal = tuple(sum(1 for part in p.parts if part >= i) for i in range(1, top + 1))
    assert conjugate(p).parts == literal


@given(partitions)
def test_conjugate_is_involution_and_preserves_total(p):
    pc = p.canonical()
    assert conjugate(conjugate(p)) == pc
    assert conjugate(p).total == p.total


def test_partition_sorts_and_canonicalizes():
    p = Partition((1, 3, 0, 2))
    assert p.parts == (3, 2, 1, 0)
    assert p.canonical().parts == (3, 2, 1)
    assert len(p) == 4


# ---------------------------------------------------------------------------
# Gale-Ryser


def test_gale_ryser_books_example_feasible():
    assert check_gale_ryser(Partition((3, 2)), Partition((2, 2, 1))).feasible


def test_gale_ryser_books_example_infeasible_with_witness():
    rep = check_gale_ryser(Partition((4, 1)), Partition((2, 2, 1)))
    assert rep.verdict is Verdict.INFEASIBLE_MAJORIZATION
    assert rep.witness.point == 2
    assert rep.witness.lhs == 4
    assert rep.witness.rhs == 3


def test_gale_ryser_single_cell_and_norm_mismatch():
    assert check_gale_ryser(Partition((1,)), Partition((1,))).feasible
    rep = check_gale_ryser(Partition((2,)), Partition((1,)))
    assert rep.verdict is Verdict.INFEASIBLE_NORM
    assert rep.totals == (2, 1)


@given(partitions, partitions)
@settings(max_examples=120, deadline=None)
def test_gale_ryser_agrees_with_exhaustive_search(p, q):
    if len(p) * len(q) > 16:
        return
    found = brute_force_realize(p, q) is not None
    assert check_gale_ryser(p, q).feasible == found


# ---------------------------------------------------------------------------
# continuous prefix check


def test_hlp_equal_ramps_feasible():
    cells = 16
    vals = [D(31 - 2 * j, 6) for j in range(cells)]
    f = StepFunction.from_grid(vals, 4)
    assert check_hlp(f, f).feasible
    assert check_hlp_symmetric(f, f).feasible


def test_hlp_is_not_homogeneous():
    one = StepFunction.constant(1)
    two = StepFunction.constant(2)
    assert check_hlp(one, one).feasible
    rep = check_hlp(two, two)
    assert rep.verdict is Verdict.INFEASIBLE_MAJORIZATION
    assert rep.witness.point == D(1)
    assert rep.witness.lhs == D(2)
    assert rep.witness.rhs == D(1)


def test_hlp_zero_pair_feasible():
    zero = StepFunction.constant(0)
    assert check_hlp(zero, zero).feasible
    assert check_hlp_symmetric(zero, zero).feasible


def test_hlp_norm_mismatch_reports_totals():
    rep = check_hlp(StepFunction.constant(1), StepFunction.constant(D(1, 1)))
    assert rep.verdict is Verdict.INFEASIBLE_NORM
    assert rep.totals == (D(1), D(1, 1))
    assert rep.witness is None


def test_symmetric_check_swaps_roles():
    # v-shaped f against flat g: feasible one way only when both agree anyway
    f, g = StepFunction.constant(D(1, 1)), StepFunction.constant(D(1, 1))
    assert check_hlp_symmetric(f, g).feasible


def test_verdict_symmetry_on_random_equal_norm_pairs():
    rng = random.Random(7)
    seen_infeasible = seen_feasible = 0
    for _ in range(200):
        f, g = rand_equal_norm_pair(rng)
        a = check_hlp(f, g)
        b = check_hlp_symmetric(f, g)
        assert a.verdict == b.verdict
        if a.feasible:
            seen_feasible += 1
        else:
            seen_infeasible += 1
    assert seen_feasible and seen_infeasible  # the corpus exercises both


def reference_hlp_report(f, g, left, right):
    """(verdict, witness, totals) as strings, by evaluating both primitives
    at every breakpoint of left* and every value of right."""
    nf, ng = f.integral(), g.integral()
    totals = (str(nf), str(ng))
    if nf != ng:
        return "infeasible_norm", None, totals
    for t in sorted(set(rearrange(left).breakpoints) | set(right.values)):
        a, b = primitive_rearr(left, t), primitive_dist(right, t)
        if a > b:
            return "infeasible_majorization", (str(t), str(a), str(b)), totals
    return "feasible", None, totals


def report_strings(rep):
    w = rep.witness
    return (
        rep.verdict.value,
        None if w is None else (str(w.point), str(w.lhs), str(w.rhs)),
        tuple(str(x) for x in rep.totals),
    )


def test_hlp_reports_match_the_breakpoint_reference():
    rng = random.Random(2024)
    pairs = [rand_equal_norm_pair(rng, rng.randint(1, 4), rng.randint(0, 4)) for _ in range(320)]
    # scaling one side breaks the norm, scaling both keeps it but moves the levels
    for f, g in pairs[:60]:
        for cf, cg in ((D(2), D(2)), (D(1, 1), D(1, 1)), (D(3), D(1)), (D(1), D(1, 2))):
            pairs.append((
                StepFunction(f.breakpoints, tuple(v * cf for v in f.values)),
                StepFunction(g.breakpoints, tuple(v * cg for v in g.values)),
            ))
    verdicts = set()
    for f, g in pairs:
        got = report_strings(check_hlp(f, g))
        assert got == reference_hlp_report(f, g, f, g)
        assert report_strings(check_hlp_symmetric(f, g)) == reference_hlp_report(f, g, g, f)
        verdicts.add(got[0])
    assert verdicts == {"feasible", "infeasible_norm", "infeasible_majorization"}


# ---------------------------------------------------------------------------
# discrete/continuous consistency


def embed(p: Partition, depth: int) -> StepFunction:
    side = 1 << depth
    vals = [
        D(p.parts[i], depth) if i < len(p.parts) else D(0) for i in range(side)
    ]
    return StepFunction.from_grid(vals, depth)


@given(partitions, partitions)
@settings(max_examples=120, deadline=None)
def test_partition_embedding_preserves_verdict(p, q):
    depth = 3
    if p.parts and p.parts[0] > (1 << depth):
        return
    if q.parts and q.parts[0] > (1 << depth):
        return
    disc = check_gale_ryser(p, q)
    cont = check_hlp(embed(p, depth), embed(q, depth))
    assert disc.verdict == cont.verdict
