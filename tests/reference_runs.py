"""The Dyadic readers of step functions that StepFunction.runs replaced,
kept as the references for the integer ones.

reference_run_excess collects the run ends of both sides into a sorted
set, cuts each side into its integral over every piece between
consecutive ends and hands the two piece lists to prefix_excess.  It
reads a run of zero width after the first run of a side as holding its
value over the next piece, so it is a reference only for lists whose
one zero-width run, if any, comes first.

reference_plateau_values walks f once per grid cell and returns its
Dyadic value there.  reference_cell_units scales those values to
integers with the checks, and in the order, that initial_set,
_Work.__init__ and discrete_exact_set made them.

reference_l1_distance merges the two Dyadic breakpoint sets and sums
Dyadic products piece by piece, evaluating both functions by bisection
on each piece.  reference_vertical_section builds one Dyadic per
sub-column of a set and lets from_grid merge them.
"""

from __future__ import annotations

from itertools import accumulate

from crosscut.dyadic import ZERO, Dyadic
from crosscut.feasibility import counts_above, prefix_excess
from crosscut.gridset import QuantizationError
from crosscut.stepfn import StepFunction


def reference_run_excess(lhs, rhs):
    """(t, lhs integral, rhs integral) at the first run end t where lhs's
    integral over [0, t] exceeds rhs's; None when rhs dominates."""
    ends = sorted({*accumulate(w for _, w in lhs), *accumulate(w for _, w in rhs)})

    def cut(runs):
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


def reference_plateau_values(f, depth: int) -> list[Dyadic]:
    """Values of f on the 2**depth uniform intervals; QuantizationError if
    f is not constant on one of them."""
    for b in f.breakpoints[1:-1]:
        if b.exp > depth:
            raise QuantizationError(
                f"breakpoint {b} is not a multiple of 2**-{depth}"
            )
    out = []
    idx = 0
    for j in range(1 << depth):
        lo = Dyadic(j, depth)
        while f.breakpoints[idx + 1] <= lo:
            idx += 1
        out.append(f.values[idx])
    return out


def reference_cell_units(f, depth: int, exp: int, bounded: bool = True) -> list[int]:
    """f's value on each cell in units of 2**-exp.  QuantizationError for a
    breakpoint off the cell grid, then per cell a value outside [0, 1]
    (when bounded) and a value off the 2**-exp grid."""
    out = []
    for v in reference_plateau_values(f, depth):
        if bounded and (v < Dyadic(0) or v > Dyadic(1)):
            raise QuantizationError(f"band value {v} outside [0, 1]")
        if v.exp > exp:
            raise QuantizationError(f"band value {v} not a multiple of 2**-{exp}")
        out.append(v.num << (exp - v.exp))
    return out


def reference_l1_distance(f, g) -> Dyadic:
    """Exact L1 distance, integral of |f - g| over [0,1], piece by piece
    over the merged breakpoints of f and g."""
    breaks = sorted(set(f.breakpoints) | set(g.breakpoints))
    total = ZERO
    for lo, hi in zip(breaks, breaks[1:]):
        total = total + abs(f.value_at(lo) - g.value_at(lo)) * (hi - lo)
    return total


def reference_vertical_section(e) -> StepFunction:
    """v_E(x): total height of the set above x, exact on the sub-unit grid."""
    p = e.params
    vals = []
    for j in range(p.side):
        for count in counts_above([row[j] for row in e.fill], p.sub_per_cell):
            vals.append(Dyadic(count, p.depth))
    return StepFunction.from_grid(vals, p.depth + p.subres)
