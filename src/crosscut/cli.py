"""Command-line interface.

Commands:
  check           feasibility verdict for a discrete or continuous pair
  realize-matrix  build a 0/1 matrix with prescribed row/column sums
  realize-set     build a plane set with prescribed cross sections
  verify          recompute and check the cross sections of a saved set
  render          plot a marginal with its rearrangement and distribution

Exit codes encode verdicts for scripting: 0 feasible / success,
1 infeasible / mismatch, 2 error.  Everything is deterministic, so
identical inputs produce byte-identical outputs.
"""

from __future__ import annotations

import argparse
import json
import sys

from .feasibility import FeasibilityReport, check_gale_ryser, check_hlp
from .gridset import (
    GridParams,
    InfeasibleInput,
    QuantizationError,
    horizontal_section,
    reconstruct,
    vertical_section,
)
from .ingest import ParseError, QuantizationReport, load_marginal, load_partition, quantize
from .matrices import (
    InfeasibleMargins,
    InstanceTooLarge,
    brute_force_realize,
    col_sums,
    row_sums,
    ryser_construct,
    swap_construct,
)
from .netpbm import MAX_IMAGE_SUBRES, set_from_image, set_to_image, write_pbm
from .report import render_text, summary_dict, trace_lines
from .stepfn import l1_distance, rearrange
from .svgplot import distribution_points, render_curves, step_points


def _fmt(value) -> str:
    return f"{value} (~{float(value):.6g})"


def _print_report(report: FeasibilityReport, point_label: str) -> None:
    print(f"verdict: {report.verdict.value}")
    if report.totals is not None:
        print(f"totals: {_fmt(report.totals[0])} vs {_fmt(report.totals[1])}")
    if report.witness is not None:
        w = report.witness
        print(
            f"witness: {point_label}={w.point} lhs={_fmt(w.lhs)} rhs={_fmt(w.rhs)}"
        )


def _print_quant(name: str, rep: QuantizationReport) -> None:
    print(
        f"quantized {name}: l1 error {_fmt(rep.l1_error)}, "
        f"sup error {_fmt(rep.sup_error)}"
    )


def _quantized_pair(f_path: str, g_path: str, params: GridParams):
    rawf = load_marginal(f_path)
    rawg = load_marginal(g_path)
    fq, frep = quantize(rawf, params)
    gq, grep = quantize(rawg, params)
    _print_quant("f", frep)
    _print_quant("g", grep)
    return fq, gq


def _cmd_check(args) -> int:
    if args.discrete:
        p = load_partition(args.left)
        q = load_partition(args.right)
        report = check_gale_ryser(p, q)
        _print_report(report, "m")
    else:
        params = GridParams(args.depth, args.subres)
        fq, gq = _quantized_pair(args.left, args.right, params)
        report = check_hlp(fq, gq)
        _print_report(report, "t")
    return 0 if report.feasible else 1


def _cmd_realize_matrix(args) -> int:
    p = load_partition(args.p_file)
    q = load_partition(args.q_file)
    try:
        a = swap_construct(p, q) if args.method == "swap" else ryser_construct(p, q)
    except InfeasibleMargins as exc:
        _print_report(exc.report, "m")
        return 1
    if args.verify_oracle:
        witness = brute_force_realize(p, q)
        if witness is None:
            print("oracle disagrees: exhaustive search found no matrix",
                  file=sys.stderr)
            return 2
        print("oracle: exhaustive search confirms a realization exists")
    print(f"rows: {' '.join(str(s) for s in row_sums(a))}")
    print(f"cols: {' '.join(str(s) for s in col_sums(a))}")
    if args.output.endswith(".pbm"):
        content = write_pbm(a.entries)
    else:
        content = a.to_text()
    with open(args.output, "w", encoding="utf-8") as fh:
        fh.write(content)
    print(f"wrote {args.output}")
    return 0


def _cmd_realize_set(args) -> int:
    params = GridParams(args.depth, args.subres)
    if params.subres > MAX_IMAGE_SUBRES:
        raise ValueError(f"set images hold K <= {MAX_IMAGE_SUBRES}; got K={params.subres}")
    fq, gq = _quantized_pair(args.f_file, args.g_file, params)
    try:
        e, summary = reconstruct(fq, gq, params)
    except InfeasibleInput as exc:
        _print_report(exc.report, "t")
        return 1
    with open(args.output, "w", encoding="utf-8") as fh:
        fh.write(set_to_image(e))
    sys.stdout.write(render_text(summary))
    print(f"wrote {args.output}")
    if args.trace:
        with open(args.trace, "w", encoding="utf-8") as fh:
            fh.write(trace_lines(summary))
        print(f"wrote {args.trace}")
    if args.summary:
        with open(args.summary, "w", encoding="utf-8") as fh:
            json.dump(summary_dict(summary), fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"wrote {args.summary}")
    if args.svg:
        v = vertical_section(e)
        ymax = max(1.0, float(fq.max_value()), float(v.max_value()))
        svg = render_curves(
            [
                ("target f", step_points(fq)),
                ("achieved v", step_points(v)),
                ("marginal g", step_points(gq)),
            ],
            title="cross sections",
            y_max=ymax,
        )
        with open(args.svg, "w", encoding="utf-8") as fh:
            fh.write(svg)
        print(f"wrote {args.svg}")
    return 0


def _cmd_verify(args) -> int:
    with open(args.set_file, "r", encoding="utf-8") as fh:
        e = set_from_image(fh.read(), args.subres)
    params = e.params
    print(f"grid: depth {params.depth}, subres {params.subres}")
    fq, gq = _quantized_pair(args.f_file, args.g_file, params)
    v = vertical_section(e)
    h = horizontal_section(e)
    self_check = check_hlp(v, h)
    print(f"cross-section self-check: {self_check.verdict.value}")
    h_exact = h == gq
    print(f"horizontal section equals quantized g: {h_exact}")
    print(f"residual |f - v|_1: {_fmt(l1_distance(fq, v))}")
    ok = h_exact and self_check.feasible
    return 0 if ok else 1


def _cmd_render(args) -> int:
    params = GridParams(args.depth, args.subres)
    raw = load_marginal(args.f_file)
    fq, rep = quantize(raw, params)
    _print_quant("f", rep)
    fstar = rearrange(fq)
    ymax = max(1.0, float(fq.max_value()))
    xmax = max(1.0, float(fq.max_value()))
    svg = render_curves(
        [
            ("marginal", step_points(fq)),
            ("rearrangement", step_points(fstar)),
            ("distribution", distribution_points(fq)),
        ],
        title="marginal / rearrangement / distribution",
        x_max=xmax,
        y_max=ymax,
    )
    with open(args.output, "w", encoding="utf-8") as fh:
        fh.write(svg)
    print(f"wrote {args.output}")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="crosscut",
        description="Realize binary matrices and plane sets from prescribed "
        "cross sections, exactly.",
    )
    sub = top.add_subparsers(dest="command", required=True)

    c = sub.add_parser("check", help="feasibility verdict for a marginal pair")
    mode = c.add_mutually_exclusive_group(required=True)
    mode.add_argument("--discrete", action="store_true",
                      help="inputs are partition files")
    mode.add_argument("--continuous", action="store_true",
                      help="inputs are marginal files (csv/json)")
    c.add_argument("left")
    c.add_argument("right")
    c.add_argument("-N", dest="depth", type=int, default=None,
                   help="grid depth (continuous mode)")
    c.add_argument("-K", dest="subres", type=int, default=None,
                   help="sub-resolution exponent (continuous mode)")
    c.set_defaults(func=_cmd_check)

    m = sub.add_parser("realize-matrix",
                       help="construct a 0/1 matrix with given margins")
    m.add_argument("p_file")
    m.add_argument("q_file")
    m.add_argument("-o", "--output", required=True,
                   help=".pbm for an image, anything else for text rows")
    m.add_argument("--method", choices=("greedy", "swap"), default="greedy")
    m.add_argument("--verify-oracle", action="store_true",
                   help="cross-check with exhaustive search (small instances)")
    m.set_defaults(func=_cmd_realize_matrix)

    s = sub.add_parser("realize-set",
                       help="construct a plane set with given cross sections")
    s.add_argument("f_file")
    s.add_argument("g_file")
    s.add_argument("-N", dest="depth", type=int, required=True)
    s.add_argument("-K", dest="subres", type=int, default=0)
    s.add_argument("-o", "--output", required=True,
                   help="PGM output (PBM when K=0)")
    s.add_argument("--trace", help="write one JSON record per executed swap")
    s.add_argument("--summary", help="write a machine-readable JSON summary")
    s.add_argument("--svg", help="write an SVG overlay of target and result")
    s.set_defaults(func=_cmd_realize_set)

    v = sub.add_parser("verify",
                       help="recompute a saved set's cross sections and check them")
    v.add_argument("set_file")
    v.add_argument("f_file")
    v.add_argument("g_file")
    v.add_argument("-K", dest="subres", type=int, default=None,
                   help="sub-resolution override for PGM files without a K comment")
    v.set_defaults(func=_cmd_verify)

    r = sub.add_parser("render",
                       help="SVG of a marginal, its rearrangement and distribution")
    r.add_argument("f_file")
    r.add_argument("-o", "--output", required=True)
    r.add_argument("-N", dest="depth", type=int, default=6)
    r.add_argument("-K", dest="subres", type=int, default=8)
    r.set_defaults(func=_cmd_render)
    return top


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.command == "check" and not args.discrete:
        if args.depth is None or args.subres is None:
            print("check --continuous requires -N and -K", file=sys.stderr)
            return 2
    try:
        return args.func(args)
    except (ParseError, QuantizationError, InstanceTooLarge, OSError,
            ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
