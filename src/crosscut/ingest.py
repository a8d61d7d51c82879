"""Marginal-file parsing and grid quantization.

Marginals arrive as (breakpoint, value) rows, CSV with a
'breakpoint,value' header or a JSON array of {"b": ..., "v": ...}; both
accept decimal or rational strings and are parsed into exact Fractions.
A row's value holds from its breakpoint to the next one (the last row
holds to 1).

The core library works on dyadic grids only, so ingestion quantizes:
each width 2**-N interval gets the exact average of the raw function,
rounded to the nearest multiple of 2**-(N+K) with ties toward zero.  The
L1 and sup distances between the raw and quantized functions are computed
exactly and reported, never hidden.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass
from fractions import Fraction

from .dyadic import Dyadic
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
    try:
        return Fraction(str(text).strip())
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
    nearest multiple of 2**-(N+K), ties toward zero.  One walk over the
    cells and the raw plateaus cuts each cell into the (value, width)
    pieces of the common refinement, which give both its exact average
    and its exact error integrals.
    """
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
