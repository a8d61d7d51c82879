"""Marginal-file parsing and grid quantization.

Marginals arrive as (breakpoint, value) rows, CSV with a
'breakpoint,value' header or a JSON array of {"b": ..., "v": ...}; both
accept decimal or rational strings and are parsed into exact Fractions.
A token of ASCII digits, optionally '/' and ASCII digits, is read as two
ints; every other token goes through Fraction's own parser, so what is
accepted and the error texts do not depend on the fast path.  A row's
value holds from its breakpoint to the next one (the last row holds to
1).

The core library works on dyadic grids only, so ingestion quantizes:
each width 2**-N interval gets the exact average of the raw function,
rounded to the nearest multiple of 2**-(N+K) with ties toward zero.  The
L1 and sup distances between the raw and quantized functions are computed
exactly and reported, never hidden.  Quantization runs on integers, each
cell on a scale of its own: the lcm of the denominators of the
breakpoints inside it and of the values that meet it.  Only the two
reported distances become Fractions.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from .feasibility import Partition
from .gridset import GridParams
from .stepfn import StepFunction


class ParseError(ValueError):
    """Input file is not a readable marginal or partition."""


class NegativeValue(ParseError):
    """Marginal values must be nonnegative."""


@dataclass(frozen=True)
class RawMarginal:
    """Exact rational step function on [0,1): breakpoints[i] starts the
    plateau with values[i]."""

    breakpoints: tuple[Fraction, ...]
    values: tuple[Fraction, ...]

    def __post_init__(self):
        if not self.breakpoints or self.breakpoints[0] != 0:
            raise ParseError("first breakpoint must be 0")
        if len(self.breakpoints) != len(self.values):
            raise ParseError("need one value per breakpoint")
        for a, b in zip(self.breakpoints, self.breakpoints[1:]):
            if not a < b:
                raise ParseError("breakpoints must be strictly increasing")
        if self.breakpoints[-1] >= 1:
            raise ParseError("breakpoints must lie in [0, 1)")
        for v in self.values:
            if v < 0:
                raise NegativeValue(f"negative value {v}")


@dataclass(frozen=True)
class QuantizationReport:
    """Exact distances between the raw marginal and its quantization."""

    l1_error: Fraction
    sup_error: Fraction


def _to_fraction(text) -> Fraction:
    token = str(text).strip()
    num, slash, den = token.partition("/")
    try:
        # ASCII digits, optionally over ASCII digits: skip Fraction's regex;
        # every other spelling keeps Fraction's own acceptance rules
        if num.isascii() and num.isdigit() and (not slash or den.isascii() and den.isdigit()):
            return Fraction(int(num), int(den) if slash else 1)
        return Fraction(token)
    except (ValueError, ZeroDivisionError) as exc:
        raise ParseError(f"not a rational number: {text!r}") from exc


def parse_marginal_text(text: str, fmt: str) -> RawMarginal:
    pairs = []
    if fmt == "json":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ParseError(f"bad JSON: {exc}") from exc
        if not isinstance(data, list):
            raise ParseError("JSON marginal must be an array of objects")
        for row in data:
            if not isinstance(row, dict) or "b" not in row or "v" not in row:
                raise ParseError(f"JSON row needs 'b' and 'v': {row!r}")
            pairs.append((_to_fraction(row["b"]), _to_fraction(row["v"])))
    elif fmt == "csv":
        reader = csv.reader(io.StringIO(text))
        rows = [r for r in reader if r and any(cell.strip() for cell in r)]
        if not rows:
            raise ParseError("empty CSV")
        header = [c.strip().lower() for c in rows[0]]
        if header != ["breakpoint", "value"]:
            raise ParseError("CSV header must be 'breakpoint,value'")
        for r in rows[1:]:
            if len(r) != 2:
                raise ParseError(f"CSV row needs two fields: {r!r}")
            pairs.append((_to_fraction(r[0]), _to_fraction(r[1])))
    else:
        raise ParseError(f"unknown marginal format {fmt!r}")
    if not pairs:
        raise ParseError("marginal has no rows")
    return RawMarginal(tuple(b for b, _ in pairs), tuple(v for _, v in pairs))


def load_marginal(path: str) -> RawMarginal:
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    if path.endswith(".json"):
        fmt = "json"
    elif path.endswith(".csv"):
        fmt = "csv"
    else:
        fmt = "json" if text.lstrip().startswith(("[", "{")) else "csv"
    return parse_marginal_text(text, fmt)


def load_partition(path: str) -> Partition:
    with open(path, "r", encoding="utf-8") as fh:
        tokens = fh.read().split()
    try:
        parts = tuple(int(t) for t in tokens)
    except ValueError as exc:
        raise ParseError(f"partition file must hold integers: {exc}") from exc
    if any(p < 0 for p in parts):
        raise ParseError("partition parts must be nonnegative")
    return Partition(parts)


def quantize(raw: RawMarginal, params: GridParams):
    """Snap a raw marginal to the dyadic grid.

    Returns (StepFunction, QuantizationReport).  The output is constant on
    each width 2**-N interval; values are interval averages rounded to the
    nearest multiple of 2**-(N+K), ties toward zero.

    One walk over the cells in exact integers.  Each breakpoint is placed
    once, as its cell and its offset r/q into that cell.  A cell's pieces
    then have integer widths over S, the lcm of the q of the breakpoints
    inside it, and integer values over V, the lcm of the denominators of
    the values that meet it, so T = sum(value * width) is an integer and
    the rounded average is one divmod of T << (N+K) by V*S.  Values are
    nonnegative, so a tie keeps the floor.  A piece's error |v - average|
    is an integer over V << (N+K): the cell's L1 error is one integer
    over (V*S) << (2N+K), added to a running sum over the lcm of those
    denominators, and the sup error is compared by cross-multiplication.
    The scales stay local to a cell, so a marginal with many distinct
    denominators never makes one huge common scale.
    """
    n, nk = params.depth, params.depth + params.subres
    values = [(v.numerator, v.denominator) for v in raw.values]
    # (cell, r, q): the breakpoint lies r/q of a cell width into its cell;
    # the end of [0, 1) closes the last plateau at the edge of cell 2**N
    cuts = [(*divmod(b.numerator << n, b.denominator), b.denominator) for b in raw.breakpoints[1:]]
    cuts.append((params.side, 0, 1))
    i = 0  # plateau holding the start of the current cell
    units: list[int] = []
    l1_num, l1_den = 0, 1
    sup_num, sup_den = 0, 1
    for j in range(params.side):
        k = i  # plateaus i..k meet the cell; cuts i..k-1 lie inside it
        while cuts[k][0] == j:
            k += 1
        s = lcm(*(q for _, _, q in cuts[i:k]))
        v = lcm(*(b for _, b in values[i : k + 1]))
        pieces, pos = [], 0
        for (a, b), (_, r, q) in zip(values[i : k + 1], cuts[i:k]):
            end = r * (s // q)
            pieces.append((a * (v // b), end - pos))
            pos = end
        a, b = values[k]
        pieces.append((a * (v // b), s - pos))
        den = v * s
        u, rem = divmod(sum(a * w for a, w in pieces) << nk, den)
        if 2 * rem > den:
            u += 1
        units.append(u)
        at = u * v
        errs = [(abs((a << nk) - at), w) for a, w in pieces]
        cell_l1, cell_den = sum(e * w for e, w in errs), den << (nk + n)
        total = lcm(l1_den, cell_den)
        l1_num = l1_num * (total // l1_den) + cell_l1 * (total // cell_den)
        l1_den = total
        top, top_den = max(e for e, _ in errs), v << nk
        if top * sup_den > sup_num * top_den:
            sup_num, sup_den = top, top_den
        i = k + 1 if cuts[k][:2] == (j + 1, 0) else k
    quantized = StepFunction.from_grid(units, n, nk)
    return quantized, QuantizationReport(Fraction(l1_num, l1_den), Fraction(sup_num, sup_den))
