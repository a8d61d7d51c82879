"""Certificates, swap traces, and offline replay audits.

A reconstruction run records one SwapRecord per executed move and one
GenerationRecord per grid generation.  The trace is a replayable artifact,
not a log: audit_trace rebuilds the starting set and runs the swap
engine's own generation sweep on the recorded moves instead of searched
ones (gridset.ReplayState).  The replay re-derives every claimed quantity
from scratch, so the swap invariants (row sections preserved, the L1
error dropping by exactly the symmetric difference, prefix dominance
maintained) are checked rather than trusted; audit_trace then compares
the recorded summary with the replayed one.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Optional, Sequence, Union

from .dyadic import Dyadic
from .gridset import (
    GridParams,
    MalformedTrace,
    QuantizationError,
    ReplayState,
    ReplayViolation,
    SwapRecord,
    TraceSummary,
)
from .stepfn import StepFunction


@dataclass(frozen=True)
class AuditResult:
    ok: bool
    violation: Optional[str] = None
    record_index: Optional[int] = None

    def __bool__(self):
        return self.ok


def trace_lines(summary: TraceSummary) -> str:
    """Line-delimited swap records, one JSON object per executed swap."""
    out = []
    for r in summary.swaps:
        out.append(
            json.dumps(
                {
                    "gen": r.gen,
                    "band": r.band,
                    "donor": r.donor,
                    "receiver": r.receiver,
                    "l1_drop": str(r.l1_drop),
                    "sym_diff": str(r.sym_diff),
                },
                sort_keys=True,
            )
        )
    return "\n".join(out) + ("\n" if out else "")


def parse_trace(text: str) -> tuple[SwapRecord, ...]:
    """Records of trace_lines output; the four indices must be JSON
    integers and the two exact values strings."""
    records = []
    for lineno, line in enumerate(text.splitlines(), 1):
        if not line.strip():
            continue
        try:
            obj = json.loads(line)
            indices = [obj[key] for key in ("gen", "band", "donor", "receiver")]
            exact = [obj[key] for key in ("l1_drop", "sym_diff")]
            if any(type(v) is not int for v in indices):
                raise TypeError("gen, band, donor and receiver must be JSON integers")
            if any(not isinstance(v, str) for v in exact):
                raise TypeError("l1_drop and sym_diff must be strings")
            rec = SwapRecord(*indices, *(Dyadic.parse(v) for v in exact))
        except (KeyError, ValueError, TypeError, json.JSONDecodeError) as exc:
            raise MalformedTrace(f"line {lineno}: {exc}") from exc
        records.append(rec)
    return tuple(records)


def exact_text(value) -> str:
    """An exact value followed by its float approximation."""
    return f"{value} (~{float(value):.6g})"


def render_text(summary: TraceSummary) -> str:
    """Human-readable construction report."""
    lines = [
        f"feasibility: {summary.feasibility.verdict.value}",
        f"initial residual |f - v|_1: {exact_text(summary.initial_residual)}",
    ]
    for g in summary.generations:
        lines.append(
            f"generation {g.gen}: {g.swap_count} swaps, "
            f"residual {exact_text(g.residual_l1)}, set change {exact_text(g.sym_diff)}"
        )
    lines.append(f"final residual: {exact_text(summary.final_residual)}")
    total_moves = sum(g.swap_count for g in summary.generations)
    lines.append(f"total swaps: {total_moves}")
    return "\n".join(lines) + "\n"


def summary_dict(summary: TraceSummary) -> dict:
    """Machine-readable summary (JSON-serializable; exact values as strings)."""
    rep = summary.feasibility
    return {
        "feasibility": {
            "verdict": rep.verdict.value,
            "witness": None
            if rep.witness is None
            else {
                "point": str(rep.witness.point),
                "lhs": str(rep.witness.lhs),
                "rhs": str(rep.witness.rhs),
            },
        },
        "initial_residual": str(summary.initial_residual),
        "final_residual": str(summary.final_residual),
        "generations": [
            {
                "gen": g.gen,
                "swap_count": g.swap_count,
                "residual_l1": str(g.residual_l1),
                "sym_diff": str(g.sym_diff),
            }
            for g in summary.generations
        ],
        "swap_count": sum(g.swap_count for g in summary.generations),
    }


def audit_trace(
    trace: Union[TraceSummary, Sequence[SwapRecord]],
    f: StepFunction,
    g: StepFunction,
    params: GridParams,
) -> AuditResult:
    """Replay a trace from the initial hypograph set and verify every swap.

    The start is read off g's band values (gridset._Work.hypograph): the
    rows' masks and each column's full count and partial widths, with no
    cell grid built.  The replay is the engine's own generation sweep
    running the recorded moves (gridset.ReplayState), which checks, per
    executed swap, with exact arithmetic:
      * row cross sections and total measure unchanged,
      * the one-sided set differences equal the column integrals of the
        vertical-section changes,
      * the L1 error against f drops by exactly the symmetric difference,
        and both recorded values match the recomputed ones,
      * per column class, the move only shrinks the gap to f on the two
        touched columns, and every other column is as the previous swap
        left it: the replay keeps a copy of the column states, writes the
        two classes' new states into it and requires it to equal the
        state,
      * prefix dominance of f's rearrangement primitive is preserved.

    For a full TraceSummary, its generation list must be 1..N in order,
    each record equal to the replayed one (swap count, residual, boundary
    symmetric difference), and its initial and final residuals must be
    the replayed ones.  The telescoping bound then holds because
    TraceSummary enforces it on the replayed summary.  Returns the first
    violation, if any.
    """
    summary = trace if isinstance(trace, TraceSummary) else None
    records = trace.swaps if summary is not None else trace
    try:
        state = ReplayState.hypograph(params, g, f, records)
    except QuantizationError as exc:
        raise MalformedTrace(f"cannot rebuild initial state: {exc}") from exc

    if not state.dominated:
        return AuditResult(False, "initial prefix dominance fails", None)
    try:
        replayed = state.sweep(feasibility=None)
    except ReplayViolation as exc:
        return AuditResult(False, exc.violation, exc.record_index)
    if summary is None:
        return AuditResult(True)

    # the recorded generations are 1..N in order, each the replayed one
    listed = tuple(g_rec.gen for g_rec in summary.generations)
    if listed != tuple(range(1, params.depth + 1)):
        return AuditResult(False, f"generation list is not 1..{params.depth} in order", None)
    for g_rec, stats in zip(summary.generations, replayed.generations):
        for bad, what in (
            (g_rec.swap_count != stats.swap_count, "swap count mismatch"),
            (g_rec.residual_l1 != stats.residual_l1, "residual mismatch"),
            (g_rec.sym_diff != stats.sym_diff, "symmetric-difference mismatch"),
        ):
            if bad:
                return AuditResult(False, f"generation {g_rec.gen}: {what}", None)
    for bad, what in (
        (summary.final_residual != replayed.final_residual, "final residual mismatch"),
        (summary.initial_residual != replayed.initial_residual, "initial residual mismatch"),
    ):
        if bad:
            return AuditResult(False, what, None)
    return AuditResult(True)
