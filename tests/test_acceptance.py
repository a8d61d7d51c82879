"""Acceptance suite: one test per criterion, one PASS/FAIL line each.

Run with `pytest -s tests/test_acceptance.py` to see the lines as they
print.  Every tolerance is pinned here; most checks are exact (zero
tolerance) because the whole pipeline is dyadic arithmetic.
"""

import random
import time
from contextlib import contextmanager
from fractions import Fraction

from conftest import rand_dyadic_set, rand_equal_norm_pair, rand_feasible_pair, rand_stepfn
from crosscut import (
    GridParams,
    InfeasibleInput,
    InfeasibleMargins,
    Partition,
    StepFunction,
    Verdict,
    audit_trace,
    brute_force_realize,
    check_gale_ryser,
    check_hlp,
    discrete_exact_set,
    reconstruct,
    ryser_construct,
    swap_construct,
    vertical_section,
)
from crosscut.dyadic import Dyadic
from crosscut.feasibility import check_hlp_symmetric
from crosscut.gridset import horizontal_section
from crosscut.ingest import RawMarginal, quantize
from crosscut.matrices import ConstructionStuck, col_sums, row_sums
from crosscut.stepfn import (
    distribution,
    l1_distance,
    primitive_dist,
    primitive_rearr,
    rearrange,
    rearrangement_value,
)

D = Dyadic


@contextmanager
def criterion(number: int, label: str, budget_s: float):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number}: FAIL  {label}")
        raise
    elapsed = time.perf_counter() - start
    print(f"ACCEPTANCE {number}: PASS  {label}  ({elapsed:.2f}s)")
    assert elapsed < budget_s, f"criterion {number} exceeded {budget_s}s"


def all_partitions_up_to(total: int):
    out = [()]

    def gen(n, mx, acc):
        if n == 0:
            out.append(tuple(acc))
            return
        for k in range(min(n, mx), 0, -1):
            acc.append(k)
            gen(n - k, k, acc)
            acc.pop()

    for n in range(1, total + 1):
        gen(n, n, [])
    return [Partition(p) for p in out]


def test_criterion_1_gale_ryser_textbook_pair():
    with criterion(1, "Gale-Ryser textbook pair decides and constructs", 1.0):
        p, q = Partition((3, 2)), Partition((2, 2, 1))
        start = time.perf_counter()
        rep = check_gale_ryser(p, q)
        a = ryser_construct(p, q)
        bad = check_gale_ryser(Partition((4, 1)), q)
        core = time.perf_counter() - start
        assert rep.feasible
        assert row_sums(a) == (3, 2) and col_sums(a) == (2, 2, 1)
        assert bad.verdict is Verdict.INFEASIBLE_MAJORIZATION
        assert core < 0.001


def test_criterion_2_oracle_equivalence_exhaustive():
    with criterion(2, "all four routes agree, totals <= 8, cells <= 20", 60.0):
        parts = all_partitions_up_to(8)
        pairs = 0
        for p in parts:
            for q in parts:
                if len(p) * len(q) > 20:
                    continue
                pairs += 1
                feasible = check_gale_ryser(p, q).feasible
                assert (brute_force_realize(p, q) is not None) == feasible
                for build in (ryser_construct, swap_construct):
                    try:
                        a = build(p, q)
                        assert feasible
                        assert row_sums(a) == p.parts
                        assert col_sums(a) == q.parts
                    except InfeasibleMargins:
                        assert not feasible
                    except ConstructionStuck as exc:  # pragma: no cover
                        raise AssertionError(f"stuck on {p.parts}/{q.parts}") from exc
        assert pairs > 3000


def halved_ramp_fine():
    """(1 - x)/2 as its exact averages on a 64-step grid (oracle calculus)."""
    breaks, vals = [], []
    for j in range(64):
        a, b = Fraction(j, 64), Fraction(j + 1, 64)
        breaks.append(a)
        vals.append((1 - (a + b) / 2) / 2)
    return RawMarginal(tuple(breaks), tuple(vals))


def test_criterion_3_ramp_primitives_track_the_closed_forms():
    with criterion(3, "(1-x)/2 at N=4 K=4: feasible, primitives in band", 10.0):
        params = GridParams(4, 4)
        raw = halved_ramp_fine()
        fq, rep = quantize(raw, params)
        gq = fq
        assert check_hlp(fq, gq).feasible
        # distance from the true ramp: reported error plus the exact
        # distance between the ramp and its 64-step average staircase
        fine_gap = Fraction(64) * Fraction(1, 2) * Fraction(1, 64) ** 2 / 4
        tol = rep.l1_error + fine_gap
        points = sorted(
            {b.to_fraction() for b in rearrange(fq).breakpoints}
            | {v.to_fraction() for v in gq.values}
        )
        checked = 0
        for t in points:
            if not 0 < t <= Fraction(1, 2):
                continue
            td = Dyadic.from_fraction(t)
            lhs = primitive_rearr(fq, td).to_fraction()
            rhs = primitive_dist(gq, td).to_fraction()
            assert abs(lhs - (t / 2 - t * t / 4)) <= tol
            assert abs(rhs - (t - t * t)) <= tol
            assert lhs <= rhs
            checked += 1
        assert checked >= 8


def test_criterion_4_scaling_counterexample():
    with criterion(4, "f=g=1 realizes the full square; f=g=2 is rejected", 10.0):
        one = StepFunction.constant(1)
        e, summary = reconstruct(one, one, GridParams(2, 1))
        assert summary.final_residual == D(0)
        assert e.measure() == D(1)
        assert vertical_section(e) == one
        try:
            reconstruct(StepFunction.constant(2), StepFunction.constant(2),
                        GridParams(2, 1))
            raise AssertionError("scaled pair must be rejected")
        except InfeasibleInput as exc:
            w = exc.report.witness
            assert (w.point, w.lhs, w.rhs) == (D(1), D(2), D(1))


def test_criterion_5_rearrangement_identities():
    with criterion(5, "layer-cake identities, 1000 functions x 10 points", 10.0):
        rng = random.Random(502)
        for _ in range(1000):
            f = rand_stepfn(rng)
            total = f.integral()
            for _ in range(10):
                t = D(rng.randrange(1, 256), rng.randrange(7))
                lam = distribution(f, t)
                assert (total - primitive_dist(f, t)) + t * lam == primitive_rearr(
                    f, lam
                )
                fstar_t = rearrangement_value(f, t)
                assert (total - primitive_rearr(f, t)) + t * fstar_t == primitive_dist(
                    f, fstar_t
                )


def test_criterion_6_swap_invariant_suite():
    with criterion(6, "swap invariants replayed on 100 random runs", 300.0):
        rng = random.Random(601)
        for _ in range(100):
            params = GridParams(rng.randint(1, 4), rng.randint(0, 3))
            f, g = rand_feasible_pair(rng, params)
            _, summary = reconstruct(f, g, params)
            result = audit_trace(summary, f, g, params)
            assert result.ok, (result.violation, params)


def test_criterion_7_sections_of_any_set_are_feasible():
    with criterion(7, "check_hlp accepts both sections of 1000 random sets", 30.0):
        rng = random.Random(701)
        for _ in range(1000):
            params = GridParams(rng.randint(1, 4), rng.randint(0, 3))
            e = rand_dyadic_set(rng, params)
            rep = check_hlp(vertical_section(e), horizontal_section(e))
            assert rep.feasible


def test_criterion_8_verdict_symmetry():
    with criterion(8, "hlp and its transpose agree on 500 equal-norm pairs", 30.0):
        rng = random.Random(801)
        for _ in range(500):
            f, g = rand_equal_norm_pair(rng)
            assert check_hlp(f, g).verdict == check_hlp_symmetric(f, g).verdict


def test_criterion_9_convergence_bookkeeping():
    with criterion(9, "monotone residuals, telescoping bound, exact path", 60.0):
        rng = random.Random(901)
        for _ in range(20):
            params = GridParams(rng.randint(1, 4), rng.randint(0, 2))
            f, g = rand_feasible_pair(rng, params)
            _, summary = reconstruct(f, g, params)
            res = [summary.initial_residual] + [
                gen.residual_l1 for gen in summary.generations
            ]
            assert all(a >= b for a, b in zip(res, res[1:]))
            assert (
                sum((gen.sym_diff for gen in summary.generations), D(0))
                <= summary.initial_residual
            )
        # constant quarter target: the discrete route is exact while the
        # generation loop is only guaranteed not to regress
        params = GridParams(2, 0)
        quarter = StepFunction.constant(D(1, 2))
        exact = discrete_exact_set(quarter, quarter, params)
        assert exact is not None
        assert l1_distance(vertical_section(exact), quarter) == D(0)
        assert horizontal_section(exact) == quarter
        _, summary = reconstruct(quarter, quarter, params)
        assert summary.final_residual <= summary.initial_residual
