"""ingest.quantize and ingest._to_fraction against tests/reference_ingest.py.

quantize must give the (StepFunction, QuantizationReport) of the
Fraction walk on seeded marginals that put breakpoints on cell edges,
crowd many plateaus into one cell, stretch one plateau over many cells,
use zero values, values above 1, values that land cell averages exactly
on a rounding tie, prime denominators and grids with N + K up to 12.
_to_fraction must accept what Fraction(str(token).strip()) of the
running interpreter accepts, with the same value, and refuse the rest
with the reference's ParseError text.
"""

from __future__ import annotations

import random
from bisect import bisect_left, bisect_right
from fractions import Fraction

import pytest

from crosscut.gridset import GridParams
from crosscut.ingest import ParseError, RawMarginal, _to_fraction, quantize
from reference_ingest import reference_quantize, reference_to_fraction


def _breakpoint(rng: random.Random, cells: int, crowded: int) -> Fraction:
    style = rng.randrange(4)
    if style == 0:  # a cell edge
        return Fraction(rng.randrange(1, cells), cells) if cells > 1 else Fraction(1, 2)
    if style == 1:  # dyadic, inside a cell or on its edge
        den = cells << rng.randint(1, 3)
        return Fraction(rng.randrange(1, den), den)
    if style == 2:  # any rational
        den = rng.randint(2, 60)
        return Fraction(rng.randrange(1, den), den)
    den = rng.randint(2, 40)  # inside the crowded cell
    return Fraction(crowded, cells) + Fraction(rng.randrange(1, den), den * cells)


def _value(rng: random.Random, nk: int) -> Fraction:
    style = rng.randrange(4)
    if style == 0:
        return Fraction(0)
    if style == 1:  # on the half-unit grid, where averages meet ties
        return Fraction(rng.randrange(2 << nk), 2 << nk)
    den = rng.randint(1, 50)
    return Fraction(rng.randrange(3 * den + 1), den)  # above 1 now and then


def _random_case(rng: random.Random):
    if rng.random() < 0.03:  # the deepest grids, N + K up to 12
        depth, subres = 7, rng.randint(4, 5)
    else:
        depth, subres = min(rng.randint(1, 7), rng.randint(1, 7), rng.randint(1, 7)), rng.randint(0, 5)
    params = GridParams(depth, subres)
    nk = depth + params.subres
    crowded = rng.randrange(params.side)
    count = rng.choice([0, 1, 2, 3, 6, 12, 30])
    points = sorted({_breakpoint(rng, params.side, crowded) for _ in range(count)})
    values = tuple(_value(rng, nk) for _ in range(len(points) + 1))
    return RawMarginal((Fraction(0), *points), values), params


def _prime_marginal(count: int = 400) -> RawMarginal:
    """count plateaus, the i-th breakpoint and the values over distinct
    primes from 503 up."""
    primes, n = [], 503
    while len(primes) < count:
        if all(n % p for p in range(2, int(n**0.5) + 1)):
            primes.append(n)
        n += 2
    rng = random.Random(4_000)
    # (i p // count + 1) / p lies in (i / count, i / count + 1 / p], and
    # p > count keeps the breakpoints increasing and below 1
    points = tuple(Fraction(i * p // count + 1, p) for i, p in enumerate(primes) if i)
    dens = primes[::-1]
    values = tuple(Fraction(rng.randrange(2 * q), q) for q in dens)
    return RawMarginal((Fraction(0), *points), values)


def _features(raw: RawMarginal, params: GridParams) -> set[str]:
    cells = params.side
    ends = (*raw.breakpoints[1:], Fraction(1))
    out = set()
    if any((b * cells).denominator == 1 for b in raw.breakpoints[1:]):
        out.add("edge")
    inside: dict[int, int] = {}
    for b in raw.breakpoints[1:]:
        if (b * cells).denominator != 1:
            inside[int(b * cells)] = inside.get(int(b * cells), 0) + 1
    if max(inside.values(), default=0) >= 4:
        out.add("crowded cell")
    if any((e - b) * cells >= 4 for b, e in zip(raw.breakpoints, ends)):
        out.add("long plateau")
    if 0 in raw.values:
        out.add("zero")
    if any(v > 1 for v in raw.values):
        out.add("above one")
    if params.depth + params.subres == 12:
        out.add("N+K=12")
    # a cell average exactly halfway between two multiples of 2**-(N+K)
    for j in range(cells):
        lo, hi = Fraction(j, cells), Fraction(j + 1, cells)
        first, stop = bisect_right(raw.breakpoints, lo) - 1, bisect_left(raw.breakpoints, hi)
        avg = sum(
            raw.values[i] * (min(ends[i], hi) - max(raw.breakpoints[i], lo)) for i in range(first, stop)
        )
        if (avg * (cells << (params.depth + params.subres))).denominator == 2:
            out.add("tie")
            break
    return out


def test_quantize_matches_reference_on_seeded_marginals():
    rng = random.Random(13_000)
    seen = dict.fromkeys(
        ["edge", "crowded cell", "long plateau", "zero", "above one", "N+K=12", "tie"], 0
    )
    for _ in range(5000):
        raw, params = _random_case(rng)
        got, want = quantize(raw, params), reference_quantize(raw, params)
        assert got == want, (raw, params)
        assert type(got[1].l1_error) is Fraction and type(got[1].sup_error) is Fraction
        for name in _features(raw, params):
            seen[name] += 1
    assert min(seen.values()) >= 20, seen


@pytest.mark.parametrize("depth,subres", [(7, 4), (7, 5), (3, 9)])
def test_quantize_matches_reference_on_prime_denominators(depth, subres):
    raw = _prime_marginal()
    params = GridParams(depth, subres)
    assert quantize(raw, params) == reference_quantize(raw, params)


TOKENS = [
    "1/0", "", "1/", "/2", "3 /4", "-1/2", "+3", "1.5", "1e-3", "1_000", "٣/4", "²",
    "007/010", 5, 0.25, True, None, " 12/18 ", "0", "0/7", "\t9\n", "3/-4", "1//2",
    "１２/３", "0x10", "1/2/3", "1" * 5000, 10**30,
]


def _random_token(rng: random.Random) -> str:
    return "".join(rng.choice("0123456789/ .-+_e") for _ in range(rng.randrange(7)))


def test_to_fraction_matches_the_interpreter_on_a_token_corpus():
    rng = random.Random(13_500)
    tokens = TOKENS + [_random_token(rng) for _ in range(3000)]
    accepted = 0
    for token in tokens:
        try:
            want = Fraction(str(token).strip())
        except (ValueError, ZeroDivisionError):
            want = None
        if want is None:
            for parse in (_to_fraction, reference_to_fraction):
                with pytest.raises(ParseError) as info:
                    parse(token)
                assert str(info.value) == f"not a rational number: {token!r}"
        else:
            got = _to_fraction(token)
            assert type(got) is Fraction and got == want == reference_to_fraction(token), token
            accepted += 1
    assert accepted >= 300
