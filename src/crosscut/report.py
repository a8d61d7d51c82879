"""Certificates, swap traces, and offline replay audits.

A reconstruction run records one SwapRecord per executed move and one
GenerationRecord per grid generation.  The trace is a replayable artifact,
not a log: audit_trace rebuilds the starting set and re-derives every
claimed quantity from scratch, so the swap invariants (row sections
preserved, the L1 error dropping by exactly the symmetric difference,
prefix dominance maintained) are checked rather than trusted.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Optional, Sequence, Union

from .dyadic import Dyadic, ZERO
from .gridset import (
    GenerationRecord,
    GridParams,
    ReplayState,
    SwapMove,
    SwapRecord,
    TraceSummary,
    initial_set,
)
from .stepfn import StepFunction


class MalformedTrace(ValueError):
    """Trace cannot be replayed: bad syntax, indices, or ordering."""


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
    records = []
    for lineno, line in enumerate(text.splitlines(), 1):
        if not line.strip():
            continue
        try:
            obj = json.loads(line)
            rec = SwapRecord(
                gen=int(obj["gen"]),
                band=int(obj["band"]),
                donor=int(obj["donor"]),
                receiver=int(obj["receiver"]),
                l1_drop=Dyadic.parse(obj["l1_drop"]),
                sym_diff=Dyadic.parse(obj["sym_diff"]),
            )
        except (KeyError, ValueError, TypeError, json.JSONDecodeError) as exc:
            raise MalformedTrace(f"line {lineno}: {exc}") from exc
        records.append(rec)
    return tuple(records)


def _fmt(d: Dyadic) -> str:
    return f"{d} (~{float(d):.6g})"


def render_text(summary: TraceSummary) -> str:
    """Human-readable construction report."""
    lines = [
        f"feasibility: {summary.feasibility.verdict.value}",
        f"initial residual |f - v|_1: {_fmt(summary.initial_residual)}",
    ]
    for g in summary.generations:
        lines.append(
            f"generation {g.gen}: {g.swap_count} swaps, "
            f"residual {_fmt(g.residual_l1)}, set change {_fmt(g.sym_diff)}"
        )
    lines.append(f"final residual: {_fmt(summary.final_residual)}")
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

    Checks, per executed swap, with exact arithmetic:
      * row cross sections and total measure unchanged,
      * the one-sided set differences equal the column integrals of the
        vertical-section changes,
      * the L1 error against f drops by exactly the symmetric difference,
        and both recorded values match the recomputed ones,
      * per column class, the move only shrinks the gap to f on the two
        touched columns and leaves every other column unchanged,
      * prefix dominance of f's rearrangement primitive is preserved.

    For a full TraceSummary, per-generation aggregates (swap counts,
    residuals, boundary symmetric differences, the telescoping bound) are
    re-derived as well.  Returns the first violation, if any.
    """
    summary: Optional[TraceSummary] = None
    if isinstance(trace, TraceSummary):
        summary = trace
        records = summary.swaps
    else:
        records = tuple(trace)

    try:
        state = ReplayState(params, initial_set(g, params).fill, f)
    except Exception as exc:
        raise MalformedTrace(f"cannot rebuild initial state: {exc}") from exc

    initial_residual = state.residual_dyadic()
    if not state.majorized():
        return AuditResult(False, "initial prefix dominance fails", None)

    gen_stats: dict[int, GenerationRecord] = {}
    open_gen: Optional[int] = None
    count = 0
    gen_start_fill = state.snapshot_fill()

    for idx, rec in enumerate(records):
        if open_gen is not None and rec.gen < open_gen:
            raise MalformedTrace(f"record {idx}: generation order decreases")
        if rec.gen > params.depth:
            raise MalformedTrace(f"record {idx}: generation beyond grid depth")
        if open_gen is not None and rec.gen != open_gen:
            gen_stats[open_gen] = state.generation_record(open_gen, count, gen_start_fill)
            gen_start_fill = state.snapshot_fill()
            count = 0
        open_gen = rec.gen
        try:
            move = SwapMove(rec.gen, rec.band, rec.donor, rec.receiver)
        except ValueError as exc:
            raise MalformedTrace(f"record {idx}: {exc}") from exc

        replayed, problem = state.verify_and_apply(move)
        if problem is not None:
            return AuditResult(False, problem, idx)
        if rec.sym_diff != replayed.sym_diff:
            return AuditResult(
                False,
                f"recorded symmetric difference {rec.sym_diff} != "
                f"replayed {replayed.sym_diff}",
                idx,
            )
        if rec.l1_drop != replayed.l1_drop:
            return AuditResult(
                False,
                f"recorded L1 drop {rec.l1_drop} != replayed {replayed.l1_drop}",
                idx,
            )
        count += 1

    if open_gen is not None:
        gen_stats[open_gen] = state.generation_record(open_gen, count, gen_start_fill)

    if summary is not None:
        sym_total = ZERO
        last_res = initial_residual
        for g_rec in summary.generations:
            stats = gen_stats.get(g_rec.gen, GenerationRecord(g_rec.gen, 0, last_res, ZERO))
            if g_rec.swap_count != stats.swap_count:
                return AuditResult(
                    False, f"generation {g_rec.gen}: swap count mismatch", None
                )
            if g_rec.residual_l1 != stats.residual_l1:
                return AuditResult(
                    False, f"generation {g_rec.gen}: residual mismatch", None
                )
            if g_rec.residual_l1 > last_res:
                return AuditResult(
                    False, f"generation {g_rec.gen}: residual increased", None
                )
            if g_rec.sym_diff != stats.sym_diff:
                return AuditResult(
                    False,
                    f"generation {g_rec.gen}: symmetric-difference mismatch",
                    None,
                )
            sym_total = sym_total + g_rec.sym_diff
            last_res = g_rec.residual_l1
        if summary.final_residual != state.residual_dyadic():
            return AuditResult(False, "final residual mismatch", None)
        if summary.initial_residual != initial_residual:
            return AuditResult(False, "initial residual mismatch", None)
        if sym_total > initial_residual:
            return AuditResult(False, "telescoping bound violated", None)

    return AuditResult(True)
