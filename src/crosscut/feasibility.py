"""Realizability tests for marginal pairs, discrete and continuous.

Discrete: the Gale-Ryser condition.  Two partitions p, q of the same
integer are the row and column sums of some 0/1 matrix iff every prefix
sum of q is bounded by the matching prefix sum of the conjugate of p.

Continuous: the Hardy-Littlewood-Polya style prefix-integral condition.
Step functions f, g on [0,1] are the vertical and horizontal cross
sections of some measurable subset of the unit square iff their integrals
agree and

    integral_0^t f*(s) ds  <=  integral_0^t lambda_g(s) ds   for all t > 0.

Both sides are piecewise linear in t, so checking them at the union of
their slope-change points is exact and complete.  Every check returns a
certificate: either a feasible verdict or the first failing point with
both sides of the violated inequality.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from itertools import zip_longest
from typing import Optional, Sequence, Union

from .dyadic import Dyadic, ONE, ZERO
from .stepfn import StepFunction, distribution, rearrange


class Verdict(str, Enum):
    FEASIBLE = "feasible"
    INFEASIBLE_NORM = "infeasible_norm"
    INFEASIBLE_MAJORIZATION = "infeasible_majorization"


@dataclass(frozen=True)
class Witness:
    """First failing point of a prefix check: lhs > rhs exactly there."""

    point: Union[int, Dyadic]
    lhs: Union[int, Dyadic]
    rhs: Union[int, Dyadic]


@dataclass(frozen=True)
class FeasibilityReport:
    verdict: Verdict
    witness: Optional[Witness] = None
    totals: Optional[tuple] = None

    def __post_init__(self):
        if (self.witness is not None) != (
            self.verdict is Verdict.INFEASIBLE_MAJORIZATION
        ):
            raise ValueError("witness present iff the prefix check failed")

    @property
    def feasible(self) -> bool:
        return self.verdict is Verdict.FEASIBLE


@dataclass(frozen=True)
class Partition:
    """Nonincreasing sequence of nonnegative integers.

    Input in any order is sorted; trailing zeros are kept (they fix matrix
    dimensions) but ignored by comparisons through canonical().
    """

    parts: tuple[int, ...]

    def __post_init__(self):
        parts = tuple(sorted(self.parts, reverse=True))
        for p in parts:
            if not isinstance(p, int) or p < 0:
                raise ValueError("parts must be nonnegative integers")
        object.__setattr__(self, "parts", parts)

    @property
    def total(self) -> int:
        return sum(self.parts)

    def canonical(self) -> "Partition":
        parts = self.parts
        while parts and parts[-1] == 0:
            parts = parts[:-1]
        return Partition(parts)

    def __len__(self):
        return len(self.parts)


def conjugate(p: Partition) -> Partition:
    """Conjugate partition: entry i counts parts of p that are >= i+1.

    Transposes the Young diagram; an involution that preserves the total.
    """
    if not p.parts or p.parts[0] == 0:
        return Partition(())
    return Partition(
        tuple(sum(1 for part in p.parts if part >= i) for i in range(1, p.parts[0] + 1))
    )


def prefix_excess(
    lhs: Sequence[int], rhs: Sequence[int]
) -> Optional[tuple[int, int, int]]:
    """First prefix length m where the sum of lhs's first m entries exceeds
    rhs's, as (m, lhs sum, rhs sum); None when rhs dominates throughout.

    The shorter sequence is padded with zeros.  Callers pass both
    sequences sorted nonincreasing, which makes this the majorization test.
    """
    a = b = m = 0
    for x, y in zip_longest(lhs, rhs, fillvalue=0):
        m += 1
        a += x
        b += y
        if a > b:
            return m, a, b
    return None


def check_gale_ryser(p: Partition, q: Partition) -> FeasibilityReport:
    """Gale-Ryser test: do p and q bound a 0/1 matrix's row/column sums?

    Feasible iff the totals agree and each prefix sum of q is at most the
    matching prefix sum of the conjugate of p.  The witness is the first
    prefix length where the dominance fails.
    """
    totals = (p.total, q.total)
    if p.total != q.total:
        return FeasibilityReport(Verdict.INFEASIBLE_NORM, totals=totals)
    excess = prefix_excess(q.parts, conjugate(p).parts)
    if excess is not None:
        return FeasibilityReport(
            Verdict.INFEASIBLE_MAJORIZATION, witness=Witness(*excess), totals=totals
        )
    return FeasibilityReport(Verdict.FEASIBLE, totals=totals)


class _CumulativePrimitive:
    """Piecewise-linear primitive with O(log) exact evaluation.

    Stored as knots t_0 = 0 < t_1 < ... with cumulative values and the
    slope on each piece; constant beyond the last knot.
    """

    def __init__(self, knots, slopes):
        self.knots = knots  # ascending Dyadics starting at 0
        self.slopes = slopes  # one per piece, len(knots) - 1 entries
        self.cums = [ZERO]
        for i, s in enumerate(slopes):
            self.cums.append(self.cums[-1] + s * (knots[i + 1] - knots[i]))

    @classmethod
    def of_rearrangement(cls, f: StepFunction):
        fstar = rearrange(f)
        return cls(list(fstar.breakpoints), list(fstar.values))

    @classmethod
    def of_distribution(cls, g: StepFunction):
        # slope of the primitive at t is lambda_g(t); it changes exactly at
        # the distinct values of g
        levels = sorted(set(g.values) | {ZERO})
        knots = levels
        slopes = [distribution(g, lv) for lv in levels[:-1]]
        if len(knots) == 1:  # g identically zero
            knots = [ZERO, ONE]
            slopes = [ZERO]
        return cls(knots, slopes)

    def slope_points(self):
        return self.knots[1:]

    def __call__(self, t: Dyadic) -> Dyadic:
        if t <= ZERO:
            return ZERO
        lo, hi = 0, len(self.knots) - 1
        while lo < hi:  # last knot index with knots[i] <= t
            mid = (lo + hi + 1) // 2
            if self.knots[mid] <= t:
                lo = mid
            else:
                hi = mid - 1
        if lo == len(self.knots) - 1:
            return self.cums[-1]
        return self.cums[lo] + self.slopes[lo] * (t - self.knots[lo])


def _prefix_violation(left_src: StepFunction, right_src: StepFunction):
    """First t > 0 where the rearrangement primitive of left_src exceeds
    the distribution primitive of right_src, or None if dominated."""
    lhs = _CumulativePrimitive.of_rearrangement(left_src)
    rhs = _CumulativePrimitive.of_distribution(right_src)
    points = sorted(set(lhs.slope_points()) | set(rhs.slope_points()))
    for t in points:
        a, b = lhs(t), rhs(t)
        if a > b:
            return Witness(t, a, b)
    return None


def _hlp_report(
    f: StepFunction, g: StepFunction, left: StepFunction, right: StepFunction
) -> FeasibilityReport:
    """Compare the integrals of f and g, then the rearrangement primitive
    of left against the distribution primitive of right."""
    nf, ng = f.integral(), g.integral()
    if nf != ng:
        return FeasibilityReport(Verdict.INFEASIBLE_NORM, totals=(nf, ng))
    w = _prefix_violation(left, right)
    if w is not None:
        return FeasibilityReport(
            Verdict.INFEASIBLE_MAJORIZATION, witness=w, totals=(nf, ng)
        )
    return FeasibilityReport(Verdict.FEASIBLE, totals=(nf, ng))


def check_hlp(f: StepFunction, g: StepFunction) -> FeasibilityReport:
    """Continuous realizability test for (f, g) as (vertical, horizontal)
    cross sections of a subset of the unit square.

    Feasible iff the integrals agree exactly and the prefix integral of f*
    never exceeds the prefix integral of lambda_g.  Exact: both primitives
    are piecewise linear and are compared at every slope change.
    """
    return _hlp_report(f, g, f, g)


def check_hlp_symmetric(f: StepFunction, g: StepFunction) -> FeasibilityReport:
    """Same test with the roles reversed: prefix integral of g* against
    the prefix integral of lambda_f.

    For equal-norm pairs the verdict always matches check_hlp (transpose a
    realizing set to swap the two cross sections); keeping both directions
    makes that a testable property rather than an assumption.
    """
    return _hlp_report(f, g, g, f)
