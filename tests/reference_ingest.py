"""The Fraction quantizer and token parser that the integer ones in
crosscut.ingest replaced, kept as the references for them.

reference_quantize walks the cells and the raw plateaus once, cuts each
cell into the (value, width) pieces of the common refinement in exact
Fractions, rounds the cell average with Dyadic.round_fraction (ties
toward zero) and sums the L1 and sup errors piece by piece.

reference_to_fraction hands every token to Fraction(str(token).strip())
and turns its ValueError or ZeroDivisionError into a ParseError.
"""

from __future__ import annotations

from fractions import Fraction

from crosscut.dyadic import Dyadic
from crosscut.ingest import ParseError, QuantizationReport
from crosscut.stepfn import StepFunction


def reference_to_fraction(text) -> Fraction:
    try:
        return Fraction(str(text).strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise ParseError(f"not a rational number: {text!r}") from exc


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
