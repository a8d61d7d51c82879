"""The Fraction quantizer and token parser that the integer ones in
crosscut.ingest replaced, kept as the references for them.

reference_quantize walks the cells and the raw plateaus once, cuts each
cell into the (value, width) pieces of the common refinement in exact
Fractions, rounds the cell average with Dyadic.round_fraction (ties
toward zero) and sums the L1 and sup errors piece by piece.

reference_to_fraction hands every token to Fraction(str(token).strip())
and turns its ValueError or ZeroDivisionError into a ParseError.

reference_parse_marginal_text is the parser that held a marginal as
Fractions from the token on: it reads the CSV or JSON rows, turns each
token into a Fraction with reference_to_fraction and checks the two
tuples with reference_check, which compares Fractions, in the order and
with the messages of the RawMarginal check.  It returns (breakpoints,
values) as tuples of Fractions.
"""

from __future__ import annotations

import csv
import io
import json
from fractions import Fraction

from crosscut.dyadic import Dyadic
from crosscut.ingest import NegativeValue, ParseError, QuantizationReport
from crosscut.stepfn import StepFunction


def reference_to_fraction(text) -> Fraction:
    try:
        return Fraction(str(text).strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise ParseError(f"not a rational number: {text!r}") from exc


def reference_check(breakpoints: tuple, values: tuple) -> None:
    """ParseError (NegativeValue for a negative value) unless breakpoints
    start at 0, increase strictly and stay below 1, with one nonnegative
    value each."""
    if not breakpoints or breakpoints[0] != 0:
        raise ParseError("first breakpoint must be 0")
    if len(breakpoints) != len(values):
        raise ParseError("need one value per breakpoint")
    for a, b in zip(breakpoints, breakpoints[1:]):
        if not a < b:
            raise ParseError("breakpoints must be strictly increasing")
    if breakpoints[-1] >= 1:
        raise ParseError("breakpoints must lie in [0, 1)")
    for v in values:
        if v < 0:
            raise NegativeValue(f"negative value {v}")


def reference_parse_marginal_text(text: str, fmt: str) -> tuple[tuple[Fraction, ...], tuple[Fraction, ...]]:
    """(breakpoints, values) of a CSV or JSON marginal text, as Fractions."""
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
            pairs.append((reference_to_fraction(row["b"]), reference_to_fraction(row["v"])))
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
            pairs.append((reference_to_fraction(r[0]), reference_to_fraction(r[1])))
    else:
        raise ParseError(f"unknown marginal format {fmt!r}")
    if not pairs:
        raise ParseError("marginal has no rows")
    breakpoints, values = tuple(b for b, _ in pairs), tuple(v for _, v in pairs)
    reference_check(breakpoints, values)
    return breakpoints, values


def reference_quantize(raw, params):
    """(StepFunction, QuantizationReport) of raw on the grid of params:
    cell averages rounded to the nearest multiple of 2**-(N+K), ties
    toward zero, with the exact L1 and sup distances."""
    nk = params.depth + params.subres
    cells = params.side
    ends = raw.breakpoints[1:] + (Fraction(1),)  # end of each raw plateau
    i = 0  # raw plateau holding the start of the current piece
    qvals: list[Dyadic] = []
    l1 = Fraction(0)
    sup = Fraction(0)
    for j in range(cells):
        pos, hi = Fraction(j, cells), Fraction(j + 1, cells)
        pieces = []
        while True:
            end = min(ends[i], hi)
            pieces.append((raw.values[i], end - pos))
            if ends[i] > hi:
                break
            i += 1
            if end == hi:
                break
            pos = end
        avg = sum(v * w for v, w in pieces) * cells
        q = Dyadic.round_fraction(avg, nk)
        qvals.append(q)
        qf = q.to_fraction()
        for v, w in pieces:
            err = abs(v - qf)
            l1 += err * w
            sup = max(sup, err)
    quantized = StepFunction.from_grid(qvals, params.depth)
    return quantized, QuantizationReport(l1_error=l1, sup_error=sup)
