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
from itertools import accumulate, zip_longest
from typing import Iterable, Optional, Sequence, Union

from .dyadic import Dyadic
from .stepfn import StepFunction, distribution_steps, rearrange

Number = Union[int, Dyadic]


class Verdict(str, Enum):
    FEASIBLE = "feasible"
    INFEASIBLE_NORM = "infeasible_norm"
    INFEASIBLE_MAJORIZATION = "infeasible_majorization"


@dataclass(frozen=True)
class Witness:
    """First failing point of a prefix check: lhs > rhs exactly there."""

    point: Number
    lhs: Number
    rhs: Number


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


def counts_above(values: Iterable[int], top: int) -> list[int]:
    """Entry m is the number of values greater than m, for 0 <= m < top.

    The integer distribution function, from a histogram and a suffix sum
    in O(len(values) + top); every value must lie in 0..top.
    """
    hist = [0] * (top + 1)
    for v in values:
        hist[v] += 1
    return list(accumulate(reversed(hist[1:])))[::-1]


def conjugate(p: Partition) -> Partition:
    """Conjugate partition: entry i counts parts of p that are >= i+1.

    Transposes the Young diagram; an involution that preserves the total.
    """
    return Partition(tuple(counts_above(p.parts, max(p.parts, default=0))))


def prefix_excess(
    lhs: Sequence[Number], rhs: Sequence[Number]
) -> Optional[tuple[int, Number, Number]]:
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


def run_excess(
    lhs: Sequence[tuple[Number, Number]], rhs: Sequence[tuple[Number, Number]]
) -> Optional[tuple[Number, Number, Number]]:
    """prefix_excess for step functions given as (value, width) runs from 0.

    Each side is zero beyond its last run.  Both primitives are linear
    between consecutive run ends of either side, so comparing them at
    every run end decides the whole inequality.  Returns the first run
    end t where the integral of lhs over [0, t] exceeds that of rhs, as
    (t, lhs integral, rhs integral); None when rhs dominates throughout.
    """
    ends = sorted({*accumulate(w for _, w in lhs), *accumulate(w for _, w in rhs)})

    def cut(runs):
        # integral of the runs over each piece between consecutive ends
        out, pos, pieces = [], 0, iter(ends)
        end = 0
        for v, w in runs:
            end += w
            for t in pieces:
                out.append(v * (t - pos))
                pos = t
                if t == end:
                    break
        return out

    excess = prefix_excess(cut(lhs), cut(rhs))
    if excess is None:
        return None
    m, a, b = excess
    return ends[m - 1], a, b


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


def _hlp_report(
    f: StepFunction, g: StepFunction, left: StepFunction, right: StepFunction
) -> FeasibilityReport:
    """Compare the integrals of f and g, then the rearrangement primitive
    of left against the distribution primitive of right."""
    nf, ng = f.integral(), g.integral()
    if nf != ng:
        return FeasibilityReport(Verdict.INFEASIBLE_NORM, totals=(nf, ng))
    excess = run_excess(
        [(v, hi - lo) for lo, hi, v in rearrange(left).intervals()],
        [(lam, hi - lo) for lo, hi, lam in distribution_steps(right)],
    )
    if excess is not None:
        return FeasibilityReport(
            Verdict.INFEASIBLE_MAJORIZATION, witness=Witness(*excess), totals=(nf, ng)
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
