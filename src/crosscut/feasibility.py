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
their slope-change points is exact and complete.  check_hlp reads f and
g as integer runs (StepFunction.runs) on two common scales and walks the
runs of f* and lambda_g in step (run_excess).  Every check returns a
certificate: either a feasible verdict or the first failing point with
both sides of the violated inequality.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from itertools import accumulate
from typing import Iterable, Optional, Sequence, Union

from .dyadic import Dyadic
from .stepfn import StepFunction, distribution_runs, rearranged_runs

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
    It is run_excess on runs of width 1.
    """
    return run_excess([(x, 1) for x in lhs], [(y, 1) for y in rhs])


_SPENT = (0, None)


def run_excess(
    lhs: Sequence[tuple[Number, Number]], rhs: Sequence[tuple[Number, Number]]
) -> Optional[tuple[Number, Number, Number]]:
    """First run end where the integral of lhs exceeds that of rhs, for
    step functions given as (value, width) runs from 0.

    Each side is zero beyond its last run.  Both primitives are linear
    between consecutive run ends of either side, so the walk goes through
    both lists in step and compares the integrals at every run end.
    Returns the first run end t where the integral of lhs over [0, t]
    exceeds that of rhs, as (t, lhs integral, rhs integral); None when
    rhs dominates throughout.  A run of zero width adds nothing.
    """
    left, right = iter(lhs), iter(rhs)
    # each side's current value and width still to walk; width None once spent
    x, u = next(left, _SPENT)
    y, v = next(right, _SPENT)
    t = a = b = 0
    while u is not None and v is not None:
        step = v if v < u else u
        t += step
        a += x * step
        b += y * step
        if u > step:
            u -= step
        else:
            x, u = next(left, _SPENT)
        if v > step:
            v -= step
        else:
            y, v = next(right, _SPENT)
        if a > b:
            return t, a, b
    # one side is spent and keeps its integral
    while u is not None:
        t += u
        a += x * u
        if a > b:
            return t, a, b
        x, u = next(left, _SPENT)
    while v is not None:
        t += v
        b += y * v
        if a > b:
            return t, a, b
        y, v = next(right, _SPENT)
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


def _hlp_report(left: StepFunction, right: StepFunction, flip: bool) -> FeasibilityReport:
    """Compare the integrals of left and right, then the rearrangement
    primitive of left against the distribution primitive of right, all on
    integer runs: left's widths and right's values lie along t, over
    2**-ex, left's values and right's widths over 2**-ey, and integrals
    over 2**-(ex+ey).  The totals come in (f, g) order, flipped if flip."""
    ex = max(x.exp for x in (*left.breakpoints, *right.values))
    ey = max(y.exp for y in (*left.values, *right.breakpoints))
    lruns, rruns = left.runs(ex, ey), right.runs(ey, ex)
    nl, nr = (Dyadic(sum(v * w for v, w in runs), ex + ey) for runs in (lruns, rruns))
    totals = (nr, nl) if flip else (nl, nr)
    if nl != nr:
        return FeasibilityReport(Verdict.INFEASIBLE_NORM, totals=totals)
    excess = run_excess(rearranged_runs(lruns), distribution_runs(rruns))
    if excess is not None:
        t, a, b = excess
        witness = Witness(Dyadic(t, ex), Dyadic(a, ex + ey), Dyadic(b, ex + ey))
        return FeasibilityReport(Verdict.INFEASIBLE_MAJORIZATION, witness=witness, totals=totals)
    return FeasibilityReport(Verdict.FEASIBLE, totals=totals)


def check_hlp(f: StepFunction, g: StepFunction) -> FeasibilityReport:
    """Continuous realizability test for (f, g) as (vertical, horizontal)
    cross sections of a subset of the unit square.

    Feasible iff the integrals agree exactly and the prefix integral of f*
    never exceeds the prefix integral of lambda_g.  Exact: both primitives
    are piecewise linear and are compared at every slope change.
    """
    return _hlp_report(f, g, False)


def check_hlp_symmetric(f: StepFunction, g: StepFunction) -> FeasibilityReport:
    """Same test with the roles reversed: prefix integral of g* against
    the prefix integral of lambda_f.

    For equal-norm pairs the verdict always matches check_hlp (transpose a
    realizing set to swap the two cross sections); keeping both directions
    makes that a testable property rather than an assumption.
    """
    return _hlp_report(g, f, True)
