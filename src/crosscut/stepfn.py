"""Step functions on [0,1] and their rearrangement calculus.

A step function is a finite list of half-open plateaus [b_i, b_{i+1})
with dyadic breakpoints and nonnegative dyadic values; the value is held
on the left-closed side, so functions are right-continuous.

The module computes, exactly:

  * the distribution function  lambda_f(s) = |{x : f(x) > s}|,
  * the nonincreasing rearrangement f* (equimeasurable with f),
  * the primitive  t -> integral_0^t f*(s) ds,
  * the primitive  t -> integral_0^t lambda_f(s) ds.

The last two are piecewise-linear concave functions of t and drive every
realizability check in the package: a marginal pair (f, g) is realizable
by a plane set iff the first primitive of f stays below the second
primitive of g at every slope change, with equal total integrals.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass

from .dyadic import Dyadic, ONE, ZERO


@dataclass(frozen=True)
class StepFunction:
    """Nonnegative step function on [0,1] in canonical form.

    breakpoints: strictly increasing dyadics, first 0 and last 1.
    values: one per interval [b_i, b_{i+1}); adjacent equal values are
    merged on construction, so equal functions compare equal.
    """

    breakpoints: tuple[Dyadic, ...]
    values: tuple[Dyadic, ...]

    def __post_init__(self):
        bp = tuple(self.breakpoints)
        vals = tuple(self.values)
        if len(bp) < 2 or len(vals) != len(bp) - 1:
            raise ValueError("need n+1 breakpoints for n plateau values")
        if bp[0] != ZERO or bp[-1] != ONE:
            raise ValueError("domain must be exactly [0, 1]")
        for a, b in zip(bp, bp[1:]):
            if not a < b:
                raise ValueError("breakpoints must be strictly increasing")
        for v in vals:
            if v < ZERO:
                raise ValueError("values must be nonnegative")
        # merge adjacent plateaus with equal value
        mb = [bp[0]]
        mv = []
        for i, v in enumerate(vals):
            if mv and mv[-1] == v:
                mb[-1] = bp[i + 1]
            else:
                mv.append(v)
                mb.append(bp[i + 1])
        object.__setattr__(self, "breakpoints", tuple(mb))
        object.__setattr__(self, "values", tuple(mv))

    # -- constructors -----------------------------------------------------

    @classmethod
    def constant(cls, value) -> "StepFunction":
        v = value if isinstance(value, Dyadic) else Dyadic(value)
        return cls((ZERO, ONE), (v,))

    @classmethod
    def from_grid(cls, values, exp: int) -> "StepFunction":
        """Uniform grid of 2**exp plateaus of width 2**-exp."""
        vals = [v if isinstance(v, Dyadic) else Dyadic(v) for v in values]
        if len(vals) != (1 << exp):
            raise ValueError(f"expected {1 << exp} values")
        breaks = [Dyadic(i, exp) for i in range(len(vals) + 1)]
        return cls(tuple(breaks), tuple(vals))

    # -- queries ------------------------------------------------------------

    def intervals(self):
        """Yield (lo, hi, value) triples over the canonical plateaus."""
        for i, v in enumerate(self.values):
            yield self.breakpoints[i], self.breakpoints[i + 1], v

    def value_at(self, x: Dyadic) -> Dyadic:
        """Right-continuous evaluation at 0 <= x < 1."""
        if x < ZERO or x >= ONE:
            raise ValueError("evaluation point must lie in [0, 1)")
        return self.values[bisect_right(self.breakpoints, x) - 1]

    def integral(self) -> Dyadic:
        total = ZERO
        for lo, hi, v in self.intervals():
            total = total + v * (hi - lo)
        return total

    def integral_to(self, t: Dyadic) -> Dyadic:
        """Exact integral of the function itself over [0, t], t in [0, 1]."""
        if t < ZERO:
            raise ValueError("t must be nonnegative")
        total = ZERO
        for lo, hi, v in self.intervals():
            if t <= lo:
                break
            total = total + v * ((hi if hi < t else t) - lo)
        return total

    def max_value(self) -> Dyadic:
        return max(self.values)

    def __str__(self):
        parts = ", ".join(f"{v} on [{lo},{hi})" for lo, hi, v in self.intervals())
        return f"StepFunction({parts})"


def refine_pair(f: StepFunction, g: StepFunction):
    """Common refinement: merged breakpoints and per-piece value pairs."""
    breaks = sorted(set(f.breakpoints) | set(g.breakpoints))
    fv = [f.value_at(b) for b in breaks[:-1]]
    gv = [g.value_at(b) for b in breaks[:-1]]
    return breaks, fv, gv


def l1_distance(f: StepFunction, g: StepFunction) -> Dyadic:
    """Exact L1 distance, integral of |f - g| over [0,1]."""
    breaks, fv, gv = refine_pair(f, g)
    total = ZERO
    for i in range(len(fv)):
        total = total + abs(fv[i] - gv[i]) * (breaks[i + 1] - breaks[i])
    return total


def distribution(f: StepFunction, s: Dyadic) -> Dyadic:
    """Measure of the strict super-level set {x : f(x) > s}."""
    if s < ZERO:
        raise ValueError("level must be nonnegative")
    total = ZERO
    for lo, hi, v in f.intervals():
        if v > s:
            total = total + (hi - lo)
    return total


def distribution_steps(f: StepFunction):
    """The distribution function as plateaus (s_lo, s_hi, measure).

    Covers [0, max f); lambda_f is zero from max f on.  Empty for f == 0.
    The transpose of f*: with f* taking the values v_1 > v_2 > ... on its
    plateaus, lambda_f on [v_{i+1}, v_i) is the measure of the first i.
    """
    fstar = rearrange(f)
    levels = fstar.values if fstar.values[-1] == ZERO else fstar.values + (ZERO,)
    return tuple(
        (levels[i], levels[i - 1], fstar.breakpoints[i])
        for i in range(len(levels) - 1, 0, -1)
    )


def rearrange(f: StepFunction) -> StepFunction:
    """Nonincreasing rearrangement: plateaus sorted by value, descending.

    The sort is stable, so equal values keep their original order before
    canonical merging; the resulting function does not depend on the tie
    rule.
    """
    segs = [(v, hi - lo) for lo, hi, v in f.intervals()]
    segs.sort(key=lambda seg: seg[0], reverse=True)
    breaks = [ZERO]
    vals = []
    for v, length in segs:
        vals.append(v)
        breaks.append(breaks[-1] + length)
    return StepFunction(tuple(breaks), tuple(vals))


def rearrangement_value(f: StepFunction, t: Dyadic) -> Dyadic:
    """f*(t) = inf{s > 0 : lambda_f(s) <= t}; zero for t >= 1."""
    if t < ZERO:
        raise ValueError("t must be nonnegative")
    if t >= ONE:
        return ZERO
    return rearrange(f).value_at(t)


def primitive_rearr(f: StepFunction, t: Dyadic) -> Dyadic:
    """Exact integral of f* over [0, t]; t above 1 clamps to the total."""
    if t < ZERO:
        raise ValueError("t must be nonnegative")
    return rearrange(f).integral_to(t if t < ONE else ONE)


def primitive_dist(f: StepFunction, t: Dyadic) -> Dyadic:
    """Exact integral of lambda_f over [0, t], for any t >= 0.

    Computed by the layer-cake identity
        integral_0^t lambda_f(s) ds = integral_X min(f(x), t) dx,
    which avoids materializing lambda_f.
    """
    if t < ZERO:
        raise ValueError("t must be nonnegative")
    total = ZERO
    for lo, hi, v in f.intervals():
        total = total + (v if v < t else t) * (hi - lo)
    return total
