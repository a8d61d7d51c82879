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
from itertools import accumulate

from .dyadic import Dyadic, ONE, ZERO


def _starts(values) -> list[int]:
    """Indices of the values that differ from their left neighbour, 0 first."""
    return [i for i in range(len(values)) if not i or values[i] != values[i - 1]]


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
        keep = _starts(vals)  # merges adjacent plateaus with equal value
        object.__setattr__(self, "breakpoints", (*(bp[i] for i in keep), ONE))
        object.__setattr__(self, "values", tuple(vals[i] for i in keep))

    # -- constructors -----------------------------------------------------

    @classmethod
    def constant(cls, value) -> "StepFunction":
        v = value if isinstance(value, Dyadic) else Dyadic(value)
        return cls((ZERO, ONE), (v,))

    @classmethod
    def from_grid(cls, values, exp: int, value_exp: int = 0) -> "StepFunction":
        """Uniform grid of 2**exp plateaus of width 2**-exp, with breakpoints
        only where the value changes.  Values are Dyadics or ints, an int
        counting units of 2**-value_exp; only the kept ones are converted."""
        vals = list(values)
        if len(vals) != (1 << exp):
            raise ValueError(f"expected {1 << exp} values")
        keep = _starts(vals)
        return cls(
            (*(Dyadic(i, exp) for i in keep), ONE),
            tuple(v if isinstance(v, Dyadic) else Dyadic(v, value_exp) for v in (vals[i] for i in keep)),
        )

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

    def runs(self, width_exp: int, value_exp: int) -> list[tuple[int, int]]:
        """Each canonical plateau as (value, width), left to right, in
        integers over 2**-value_exp and 2**-width_exp.

        The one place that reads a step function as integers.  ValueError
        if a value or a breakpoint is not a multiple of its unit.
        """
        out, pos = [], 0
        for b, v in zip(self.breakpoints[1:], self.values):
            if b.exp > width_exp or v.exp > value_exp:
                raise ValueError(f"plateau {v} ending at {b} is off the grid of values "
                                 f"2**-{value_exp} and widths 2**-{width_exp}")
            end = b.num << (width_exp - b.exp)
            out.append((v.num << (value_exp - v.exp), end - pos))
            pos = end
        return out

    def integral(self) -> Dyadic:
        we = max(b.exp for b in self.breakpoints)
        ve = max(v.exp for v in self.values)
        return Dyadic(sum(v * w for v, w in self.runs(we, ve)), we + ve)

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


def l1_distance(f: StepFunction, g: StepFunction) -> Dyadic:
    """Exact L1 distance, integral of |f - g| over [0,1]: one walk through
    the integer runs of f and g on a common scale, piece by piece between
    consecutive run ends of either."""
    we = max(b.exp for b in (*f.breakpoints, *g.breakpoints))
    ve = max(v.exp for v in (*f.values, *g.values))
    runs = f.runs(we, ve), g.runs(we, ve)
    ends = [[*accumulate(w for _, w in side)] for side in runs]
    i = j = pos = total = 0
    while pos < 1 << we:
        end = min(ends[0][i], ends[1][j])
        total += abs(runs[0][i][0] - runs[1][j][0]) * (end - pos)
        pos = end
        i += ends[0][i] == end
        j += ends[1][j] == end
    return Dyadic(total, we + ve)


def distribution(f: StepFunction, s: Dyadic) -> Dyadic:
    """Measure of the strict super-level set {x : f(x) > s}."""
    if s < ZERO:
        raise ValueError("level must be nonnegative")
    total = ZERO
    for lo, hi, v in f.intervals():
        if v > s:
            total = total + (hi - lo)
    return total


def rearranged_runs(runs):
    """The runs of f* from f's (value, width) runs: each distinct value
    once, largest first, with the widths of its runs summed."""
    widths = {}
    for v, w in runs:
        widths[v] = widths.get(v, 0) + w
    return sorted(widths.items(), reverse=True)


def distribution_runs(runs):
    """The runs of lambda_f from f's (value, width) runs, as (measure,
    width) from 0 up, on ints and Dyadics alike; empty for f == 0.

    The transpose of f*: with f* taking the values v_1 > v_2 > ... on its
    runs, lambda_f on [v_{i+1}, v_i) is the summed width of the first i
    (v_{i+1} = 0 below the last).
    """
    levels = rearranged_runs(runs)
    bottoms = [v for v, _ in levels[1:]] + [0]
    measures = accumulate(w for _, w in levels)
    return [(m, v - low) for m, (v, _), low in zip(measures, levels, bottoms) if v][::-1]


def distribution_steps(f: StepFunction):
    """The distribution function as plateaus (s_lo, s_hi, measure), from
    s = 0 up over [0, max f); empty for f == 0."""
    lam = distribution_runs((v, hi - lo) for lo, hi, v in f.intervals())
    ends = [*accumulate((w for _, w in lam), initial=ZERO)]
    return tuple(zip(ends, ends[1:], (m for m, _ in lam)))


def rearrange(f: StepFunction) -> StepFunction:
    """Nonincreasing rearrangement: the plateaus grouped by value, largest
    first."""
    groups = rearranged_runs((v, hi - lo) for lo, hi, v in f.intervals())
    breaks = (ZERO, *accumulate(w for _, w in groups))
    return StepFunction(breaks, tuple(v for v, _ in groups))


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
