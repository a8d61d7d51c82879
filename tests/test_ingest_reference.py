"""ingest.quantize, ingest._to_ratio and ingest.parse_marginal_text against
tests/reference_ingest.py.

quantize must give the (StepFunction, QuantizationReport) of the
Fraction walk on seeded marginals that put breakpoints on cell edges,
crowd many plateaus into one cell, stretch one plateau over many cells,
use zero values, values above 1, values that land cell averages exactly
on a rounding tie, prime denominators and grids with N + K up to 12.
_to_ratio must accept what Fraction(str(token).strip()) of the running
interpreter accepts, as that Fraction's numerator and denominator (two
ints, reduced, the denominator positive), and refuse the rest with the
reference's ParseError text.  parse_marginal_text must give the
breakpoints and values of the Fraction parser on seeded CSV and JSON
texts, or raise the same exception type with the same message.
"""

from __future__ import annotations

import json
import random
from bisect import bisect_left, bisect_right
from fractions import Fraction

import pytest

from crosscut.gridset import GridParams
from crosscut.ingest import ParseError, RawMarginal, _to_ratio, parse_marginal_text, quantize
from reference_ingest import reference_parse_marginal_text, reference_quantize, reference_to_fraction


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
            for parse in (_to_ratio, reference_to_fraction):
                with pytest.raises(ParseError) as info:
                    parse(token)
                assert str(info.value) == f"not a rational number: {token!r}"
        else:
            got = _to_ratio(token)
            assert type(got) is tuple and all(type(x) is int for x in got), token
            assert got == (want.numerator, want.denominator), token
            assert want == reference_to_fraction(token), token
            accepted += 1
    assert accepted >= 300


_UNICODE_DIGITS = ("\u0660\u0661\u0662\u0663\u0664\u0665\u0666\u0667\u0668\u0669", "\uff10\uff11\uff12\uff13\uff14\uff15\uff16\uff17\uff18\uff19")


def _decimal(x: Fraction):
    """x as a decimal string when 10**6 * x is an integer, else None."""
    for e in range(7):
        if (x * 10**e).denominator == 1:
            n = abs(x.numerator * 10**e // x.denominator)
            whole, frac = divmod(n, 10**e)
            sign = "-" if x < 0 else ""
            return f"{sign}{whole}.{frac:0{e}d}" if e else f"{sign}{whole}.0"
    return None


def _spell(rng: random.Random, x: Fraction, seen: dict, json_number: bool):
    """A token for x in one of the spellings a file may use; JSON rows
    may also hold x as a JSON number."""
    style = rng.choice(["fast", "fast", "unreduced", "decimal", "sign", "pad", "unicode", "number"])
    n, d = x.numerator, x.denominator
    plain = f"{n}" if d == 1 else f"{n}/{d}"
    if style == "unreduced":
        k = rng.randint(2, 9)
        token = f"{'0' * rng.randrange(3)}{n * k}/{d * k}"
    elif style == "decimal" and _decimal(x) is not None:
        token = _decimal(x)
        if rng.random() < 0.3:  # in exponent form
            token = f"{x * 1000}e-3" if (x * 1000).denominator == 1 else token
    elif style == "sign":
        token = ("+" if x >= 0 else "") + plain
    elif style == "pad":
        token = rng.choice([" ", "  ", "\t"]) + plain + rng.choice(["", " ", "\t "])
    elif style == "unicode":
        table = str.maketrans("0123456789", rng.choice(_UNICODE_DIGITS))
        token = plain.translate(table)
    elif style == "number" and json_number and (d == 1 or d & (d - 1) == 0):
        token = n if d == 1 else n / d  # a JSON int or an exactly held float
    else:
        style = "fast"
        token = plain
    seen[style] += 1
    return token


def _breakpoints(rng: random.Random) -> list[Fraction]:
    count = rng.choice([1, 1, 2, 3, 5, 8, 20])
    points = {Fraction(0)}
    while len(points) < count:
        den = rng.choice([2, 4, 8, 64, 3, 7, 10, 60, 1000])
        points.add(Fraction(rng.randrange(den), den))
    return sorted(points)


def _fault(rng: random.Random, rows: list, fmt: str, seen: dict) -> list:
    """rows with one fault put in, chosen at random; each kind counted."""
    kinds = ["zero denominator", "unsorted", "repeated", "breakpoint 1", "first not 0", "negative", "bad token"]
    if len(rows) < 2:
        kinds.remove("unsorted")
    kind = rng.choice(kinds)
    seen[kind] += 1
    rows = [list(r) for r in rows]
    i = rng.randrange(len(rows))
    if kind == "zero denominator":
        rows[i][rng.randrange(2)] = rng.choice(["1/0", "0/0", " 7/0", "-3/0"])
    elif kind == "unsorted":
        j = rng.randrange(1, len(rows))
        rows[j - 1][0], rows[j][0] = rows[j][0], rows[j - 1][0]
    elif kind == "repeated":
        rows.insert(i + 1, [rows[i][0], "1/2"])
    elif kind == "breakpoint 1":
        rows.append([rng.choice(["1", "2/2", "1.0", "5/4", "3"]), "1/3"])
    elif kind == "first not 0":
        if len(rows) > 1 and rng.random() < 0.5:
            del rows[0]
        else:
            rows[0][0] = rng.choice(["1/8", "0.5", "1/1000"])
    elif kind == "negative":
        rows[i][1] = rng.choice(["-1/3", "-0.5", "-2", " -7/9"])
    else:
        rows[i][rng.randrange(2)] = rng.choice(["abc", "", "1//2", "0x10", "1.2.3", "1/", "/2", "3 /4", "nan"])
    return rows


def _csv_text(rng: random.Random, rows: list, seen: dict) -> str:
    header = "breakpoint,value"
    lines = [[str(b), str(v)] for b, v in rows]
    shape = rng.choice(["plain"] * 6 + ["header case", "bad header", "short row", "long row", "header only", "empty", "blank lines"])
    seen[shape] += 1
    if shape == "header case":
        header = rng.choice([" Breakpoint , VALUE ", "BREAKPOINT,Value"])
    elif shape == "bad header":
        header = rng.choice(["breakpoint;value", "b,v", "breakpoint,value,extra", "value,breakpoint", "0,1"])
    elif shape == "short row":
        lines[rng.randrange(len(lines))] = [lines[0][0]]
    elif shape == "long row":
        lines[rng.randrange(len(lines))].append("1")
    elif shape == "header only":
        lines = []
    elif shape == "empty":
        return rng.choice(["", "\n", " , \n\n"])
    text = [header] + [",".join(line) for line in lines]
    if shape == "blank lines":
        for _ in range(3):
            text.insert(rng.randrange(1, len(text) + 1), rng.choice(["", " ", ",", " , "]))
    return "\n".join(text) + rng.choice(["\n", "", "\r\n"])


def _json_text(rng: random.Random, rows: list, seen: dict) -> str:
    shape = rng.choice(["plain"] * 6 + ["bad JSON", "not a list", "row not an object", "missing key", "empty list", "extra keys"])
    seen[shape] += 1
    data = [{"b": b, "v": v} for b, v in rows]
    if shape == "bad JSON":
        text = json.dumps(data)
        return text[: rng.randrange(len(text))]
    if shape == "not a list":
        return json.dumps(rng.choice([data[0], "0,1", 3, None]))
    if shape == "row not an object":
        data.insert(rng.randrange(len(data) + 1), rng.choice([[0, 1], "0", 1, None]))
    elif shape == "missing key":
        del data[rng.randrange(len(data))][rng.choice("bv")]
    elif shape == "empty list":
        data = []
    elif shape == "extra keys":
        data[rng.randrange(len(data))]["w"] = 1
    return json.dumps(data, indent=rng.choice([None, 1]))


def _outcome(parse, text: str, fmt: str):
    try:
        return parse(text, fmt)
    except ParseError as exc:
        return exc


def test_parse_marginal_text_matches_reference_on_seeded_texts():
    rng = random.Random(25_000)
    seen = dict.fromkeys(
        [
            "fast", "unreduced", "decimal", "sign", "pad", "unicode", "number",
            "zero denominator", "unsorted", "repeated", "breakpoint 1", "first not 0", "negative", "bad token",
            "plain", "header case", "bad header", "short row", "long row", "header only", "empty", "blank lines",
            "bad JSON", "not a list", "row not an object", "missing key", "empty list", "extra keys",
        ],
        0,
    )
    outcomes: dict[str, int] = {}
    for case in range(2400):
        fmt = "csv" if case % 2 else "json"
        points = _breakpoints(rng)
        values = [Fraction(rng.randrange(3 * den + 1), den) for den in (rng.choice([1, 2, 3, 8, 10, 97]) for _ in points)]
        rows = [
            [_spell(rng, b, seen, fmt == "json"), _spell(rng, v, seen, fmt == "json")] for b, v in zip(points, values)
        ]
        if rng.random() < 0.4:
            rows = _fault(rng, rows, fmt, seen)
        text = _csv_text(rng, rows, seen) if fmt == "csv" else _json_text(rng, rows, seen)
        want = _outcome(reference_parse_marginal_text, text, fmt)
        got = _outcome(parse_marginal_text, text, fmt)
        if isinstance(want, ParseError):
            assert type(got) is type(want) and str(got) == str(want), (text, got, want)
            key = str(want).split(":")[0] if ":" in str(want) else str(want)
        else:
            assert isinstance(got, RawMarginal), (text, got)
            assert (got.breakpoints, got.values) == want, text
            assert all(type(x) is Fraction for x in (*got.breakpoints, *got.values)), text
            key = "accepted"
        outcomes[key] = outcomes.get(key, 0) + 1
    assert min(seen.values()) >= 20, seen
    assert outcomes["accepted"] >= 700, outcomes
    for message in (
        "not a rational number", "first breakpoint must be 0", "breakpoints must be strictly increasing",
        "breakpoints must lie in [0, 1)", "negative value -1/3", "CSV header must be 'breakpoint,value'",
        "CSV row needs two fields", "empty CSV", "marginal has no rows", "bad JSON",
        "JSON marginal must be an array of objects", "JSON row needs 'b' and 'v'",
    ):
        assert outcomes.get(message, 0) >= 10, (message, outcomes)
