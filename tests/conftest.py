"""Shared generators and independent oracles for the test suite.

Oracles work on plain Fractions and python loops, never through the
package's Dyadic/StepFunction code paths, so expected values are derived
independently of the code under test.
"""

from __future__ import annotations

import random
from fractions import Fraction

from hypothesis import strategies as st

from crosscut import DyadicSet, GridParams, StepFunction, check_hlp
from crosscut.dyadic import Dyadic
from crosscut.gridset import initial_set

# ---------------------------------------------------------------------------
# Fraction oracles


def fn_as_fracs(f: StepFunction):
    """(lo, hi, value) triples as exact Fractions."""
    return [
        (lo.to_fraction(), hi.to_fraction(), v.to_fraction())
        for lo, hi, v in f.intervals()
    ]


def oracle_integral(triples) -> Fraction:
    return sum((v * (hi - lo) for lo, hi, v in triples), Fraction(0))


def oracle_distribution(triples, s: Fraction) -> Fraction:
    return sum((hi - lo for lo, hi, v in triples if v > s), Fraction(0))


def oracle_rearranged_segments(triples):
    """(value, length) of the nonincreasing rearrangement."""
    segs = sorted(((v, hi - lo) for lo, hi, v in triples), key=lambda s: -s[0])
    return segs


def oracle_primitive_rearr(triples, t: Fraction) -> Fraction:
    total = Fraction(0)
    pos = Fraction(0)
    for v, length in oracle_rearranged_segments(triples):
        if pos >= t:
            break
        take = min(length, t - pos)
        total += v * take
        pos += length
    return total


def oracle_primitive_dist(triples, t: Fraction) -> Fraction:
    return sum((min(v, t) * (hi - lo) for lo, hi, v in triples), Fraction(0))


# ---------------------------------------------------------------------------
# random generators (seeded random.Random instances passed in by tests)


def rand_dyadic(rng: random.Random, max_units: int, exp: int) -> Dyadic:
    return Dyadic(rng.randrange(max_units + 1), exp)


def rand_stepfn(
    rng: random.Random,
    max_pieces: int = 8,
    grid_exp: int = 6,
    value_exp: int = 5,
    max_value_units: int = 64,
) -> StepFunction:
    """Random step function with dyadic breakpoints and values."""
    cells = 1 << grid_exp
    ncuts = rng.randrange(min(max_pieces, cells - 1))
    cuts = sorted(rng.sample(range(1, cells), ncuts))
    breaks = [Dyadic(0)] + [Dyadic(c, grid_exp) for c in cuts] + [Dyadic(1)]
    vals = [rand_dyadic(rng, max_value_units, value_exp) for _ in range(len(breaks) - 1)]
    return StepFunction(tuple(breaks), tuple(vals))


def rand_composition(rng: random.Random, total: int, parts: int, cap: int):
    """Uniform-ish composition of total into parts entries, each <= cap."""
    out = [0] * parts
    for _ in range(total):
        choices = [i for i in range(parts) if out[i] < cap]
        out[rng.choice(choices)] += 1
    return out


def rand_composition_fast(rng: random.Random, total: int, parts: int, cap: int):
    """A composition of total into parts entries, each <= cap, in O(parts)
    draws where rand_composition makes one per unit: an even split, then
    parts transfers, each of a random amount that the caps allow between
    two random entries."""
    if not 0 <= total <= parts * cap:
        raise ValueError(f"{total} does not split into {parts} parts of at most {cap}")
    base, extra = divmod(total, parts)
    out = [base + (i < extra) for i in range(parts)]
    for _ in range(parts):
        i, j = rng.randrange(parts), rng.randrange(parts)
        room = min(out[i], cap - out[j])
        if i != j and room > 0:
            moved = rng.randint(0, room)
            out[i] -= moved
            out[j] += moved
    return out


def rand_equal_norm_pair(rng: random.Random, grid_exp: int = 4, value_exp: int = 4):
    """Two step functions on the same uniform grid with equal integrals."""
    cells = 1 << grid_exp
    cap = 3 << value_exp  # allow values up to 3, past the unit square
    total = rng.randrange(1, cells * cap // 2)
    fu = rand_composition(rng, total, cells, cap)
    gu = rand_composition(rng, total, cells, cap)
    f = StepFunction.from_grid([Dyadic(u, value_exp) for u in fu], grid_exp)
    g = StepFunction.from_grid([Dyadic(u, value_exp) for u in gu], grid_exp)
    return f, g


def rand_dyadic_set(rng: random.Random, params: GridParams) -> DyadicSet:
    cap = params.sub_per_cell
    fill = tuple(
        tuple(rng.randrange(cap + 1) for _ in range(params.side))
        for _ in range(params.side)
    )
    return DyadicSet(params, fill)


def rand_shaped_set(rng: random.Random, params: GridParams) -> DyadicSet:
    """A random set whose rows have the hypograph's shape, full cells, at
    most one partial cell and empty cells, in a random order.  Rows near
    full or near empty are common, so big blocks fit often."""
    side, cap = params.side, params.sub_per_cell
    rows = []
    for _ in range(side):
        full = rng.choice((rng.randint(0, side), rng.randint(side - 1, side), rng.randint(0, 1)))
        partial = [rng.randrange(1, cap)] if cap > 1 else []
        row = [cap] * full + partial * (full < side and rng.random() < 0.7)
        row += [0] * (side - len(row))
        rng.shuffle(row)
        rows.append(tuple(row))
    return DyadicSet(params, tuple(rows))


def rand_grid_marginal(rng: random.Random, params: GridParams) -> StepFunction:
    """Random band-constant function with sub-unit values in [0, 1]."""
    nk = params.depth + params.subres
    vals = [Dyadic(rng.randrange((1 << nk) + 1), nk) for _ in range(params.side)]
    return StepFunction.from_grid(vals, params.depth)


def rand_feasible_pair(rng: random.Random, params: GridParams, compose=rand_composition):
    """Random (f, g) pair that passes check_hlp, both on the grid.

    Mixes three constructions: a permuted hypograph of a coarse g (f is
    then the exact vertical section of a real set), a constant f with the
    same integral as a random g (always feasible for g <= 1), and
    rejection-sampled random pairs.  compose draws the compositions of
    the last two; rand_composition_fast serves a large K, where
    rand_composition's draw per sub-unit would take the time.
    """
    n, k = params.depth, params.subres
    side = params.side
    style = rng.randrange(3)
    if style == 0:
        # coarse full/empty hypograph, rows independently permuted
        counts = [rng.randrange(side + 1) for _ in range(side)]
        g = StepFunction.from_grid([Dyadic(c, n) for c in counts], n)
        e = initial_set(g, params)
        fill = [list(row) for row in e.fill]
        for row in fill:
            rng.shuffle(row)
        cols = [sum(1 for i in range(side) if fill[i][j] > 0) for j in range(side)]
        f = StepFunction.from_grid([Dyadic(c, n) for c in cols], n)
        return f, g
    if style == 1:
        # constant f, arbitrary g <= 1 with the same integral
        s = rng.randrange(1, (1 << (n + k)))
        units = compose(rng, s * side, side, 1 << (n + k))
        g = StepFunction.from_grid([Dyadic(u, n + k) for u in units], n)
        f = StepFunction.constant(Dyadic(s, n + k))
        return f, g
    for _ in range(80):
        total = rng.randrange(1, side * (1 << (n + k)))
        fu = compose(rng, total, side, 1 << (n + k))
        gu = compose(rng, total, side, 1 << (n + k))
        f = StepFunction.from_grid([Dyadic(u, n + k) for u in fu], n)
        g = StepFunction.from_grid([Dyadic(u, n + k) for u in gu], n)
        if check_hlp(f, g).feasible:
            return f, g
    # rejection failed; fall back to the always-feasible constant shape
    s = rng.randrange(1, (1 << (n + k)))
    units = compose(rng, s * side, side, 1 << (n + k))
    g = StepFunction.from_grid([Dyadic(u, n + k) for u in units], n)
    return StepFunction.constant(Dyadic(s, n + k)), g


# ---------------------------------------------------------------------------
# hypothesis strategies


def dyadic_st(max_units: int = 128, max_exp: int = 6):
    return st.builds(
        Dyadic, st.integers(0, max_units), st.integers(0, max_exp)
    )


@st.composite
def stepfn_st(draw, grid_exp: int = 5, max_value_units: int = 48, value_exp: int = 4):
    cells = 1 << grid_exp
    ncuts = draw(st.integers(0, 6))
    cuts = draw(
        st.lists(
            st.integers(1, cells - 1), min_size=ncuts, max_size=ncuts, unique=True
        )
    )
    breaks = [Dyadic(0)] + [Dyadic(c, grid_exp) for c in sorted(cuts)] + [Dyadic(1)]
    vals = draw(
        st.lists(
            st.integers(0, max_value_units),
            min_size=len(breaks) - 1,
            max_size=len(breaks) - 1,
        )
    )
    return StepFunction(
        tuple(breaks), tuple(Dyadic(v, value_exp) for v in vals)
    )
