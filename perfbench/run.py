#!/usr/bin/env python3
"""Benchmark for crosscut: end-to-end metrics, or per-layer metrics from a
traced run, for one workload.

Run from the repository root (the program is imported from ./src):

    python3 perfbench/run.py --workload deep-ramp --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --self-test

Every run is one process and one thread in a closed loop: each operation
starts when the previous one ends, and rounds of operations are run whole
until --seconds have passed.  The last line of standard output is one
JSON object with "correct", "attempted", "failed" and "metrics".  See
perfbench/README.md for the workloads and the metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import tracemalloc
from time import perf_counter

WORKLOADS = ("deep-ramp", "small-batch", "cli-files")
SETUP_REPEATS = 9
# share of a traced run's time spent untraced, for trace.overhead_ms
UNTRACED_SHARE = 0.35

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "op/s",
    "op_ms.p50": "ms",
    "op_ms.p90": "ms",
    "solve_ms.p50": "ms",
    "certify_ms.p50": "ms",
    "matrix_ms.p50": "ms",
    "peak_rss_mb": "MB",
}

# per-layer time metrics: name -> span labels whose inclusive times add up
LAYER_SPANS = {
    "gridset.reconstruct_self_ms": None,  # self time, see layer_metrics
    "gridset.initial_set_ms": ("gridset.initial_set",),
    "gridset.sections_ms": ("gridset.vertical_section", "gridset.horizontal_section"),
    "report.audit_trace_ms": ("report.audit_trace",),
    "report.trace_lines_ms": ("report.trace_lines",),
    "report.parse_trace_ms": ("report.parse_trace",),
    "report.summary_dict_ms": ("report.summary_dict",),
    "report.render_text_ms": ("report.render_text",),
    "ingest.load_marginal_ms": ("ingest.load_marginal",),
    "ingest.quantize_ms": ("ingest.quantize",),
    "ingest.load_partition_ms": ("ingest.load_partition",),
    "feasibility.check_hlp_ms": ("feasibility.check_hlp",),
    "feasibility.check_gale_ryser_ms": ("feasibility.check_gale_ryser",),
    "matrices.ryser_construct_ms": ("matrices.ryser_construct",),
    "matrices.swap_construct_ms": ("matrices.swap_construct",),
    "netpbm.write_ms": ("netpbm.write",),
    "netpbm.read_ms": ("netpbm.read",),
    "svgplot.render_curves_ms": ("svgplot.render_curves",),
    "stepfn.l1_distance_ms": ("stepfn.l1_distance",),
    "stepfn.rearrange_ms": ("stepfn.rearrange",),
    "cli.check_ms": ("cli.check",),
    "cli.realize_set_ms": ("cli.realize_set",),
    "cli.verify_ms": ("cli.verify",),
    "cli.render_ms": ("cli.render",),
    "cli.realize_matrix_ms": ("cli.realize_matrix",),
}
GENERATIONS = range(1, 8)
COUNTS = (
    ["gridset.swaps"]
    + [f"gridset.swaps.g{n}" for n in GENERATIONS]
    + ["gridset.searches", "ingest.breakpoints", "matrices.moves", "netpbm.bytes"]
)


def make_workload(name):
    import workloads

    return {
        "deep-ramp": workloads.DeepRamp,
        "small-batch": workloads.SmallBatch,
        "cli-files": workloads.CliFiles,
    }[name]()


def run_rounds(wl, state, rec, seconds: float, setup=None, setups: int = 0, speed=None) -> None:
    """Whole rounds from round 0 until `seconds` have passed (at least one).

    `setups` calls of `setup` are spread evenly over the run, between
    rounds, so that set-up time is sampled over the same minutes as the
    operations.  With `speed`, calibration samples are taken before the
    first round, after every round and, by a Recorder given the same
    `speed`, after every operation (see calibrate.py)."""
    start = perf_counter()
    if speed is not None:
        speed.begin()
    r = done = 0
    while True:
        wl.run_round(state, r, rec)
        rec.round_ends.append(len(rec.op_s))
        r += 1
        if speed is not None:
            speed.keep_up()
        while done < setups and perf_counter() >= start + seconds * (done + 1) / (setups + 1):
            setup()
            done += 1
        if perf_counter() >= start + seconds:
            break
    for _ in range(setups - done):
        setup()
    if speed is not None:
        speed.sample()


def median_ms(values):
    return statistics.median(values) * 1000.0 if values else 0.0


def end_to_end(rec, setups, speed) -> dict:
    """The end-to-end metrics, every time scaled to the reference machine
    speed by the calibration samples near it; `setups` holds (middle,
    seconds) of each timed set-up.  A part (solve, certify, matrix) is the
    median over rounds of its mean per operation in the round: a round has
    a fixed make-up, so its mean holds still where the median of a mix of
    small and large problems would jump between them."""

    def scaled(timed):
        return [s * speed.scale_at(mid) for mid, s in timed]

    def part_ms(name):
        by_round: dict[int, list[float]] = {}
        for mid, s, r in rec.parts.get(name, []):
            by_round.setdefault(r, []).append(s * speed.scale_at(mid))
        return median_ms([statistics.fmean(v) for v in by_round.values()])

    ops = scaled(zip(rec.op_mid, rec.op_s))
    p90 = statistics.quantiles(ops, n=10, method="inclusive")[8] if len(ops) > 1 else ops[0]
    values = {
        "setup_s": statistics.median(scaled(setups)),
        "ops_per_s": len(ops) / sum(ops),
        "op_ms.p50": median_ms(ops),
        "op_ms.p90": p90 * 1000.0,
        "solve_ms.p50": part_ms("solve"),
        "certify_ms.p50": part_ms("certify"),
        "matrix_ms.p50": part_ms("matrix"),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    return {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}


def layer_metrics(traced, setup_record, untraced, peak_alloc, calib_ms) -> dict:
    """Medians over the traced records (operations, plus one traced
    set-up) in which a layer is called; counts over the first round."""
    records = traced.records + [setup_record]
    values = {}

    def over(records_, fn):
        vals = [fn(r) for r in records_]
        vals = [v for v in vals if v is not None]
        return statistics.median(vals) * 1000.0 if vals else 0.0

    for name, labels in LAYER_SPANS.items():
        if labels is None:
            continue
        values[name] = over(
            records,
            lambda r, ls=labels: sum(r["incl"].get(lb, 0.0) for lb in ls) if any(lb in r["calls"] for lb in ls) else None,
        )
    solved = [r for r in records if "gridset.reconstruct" in r["calls"]]
    values["gridset.reconstruct_self_ms"] = over(solved, lambda r: r["self"]["gridset.reconstruct"])
    for n in GENERATIONS:
        values[f"gridset.gen_ms.g{n}"] = over(solved, lambda r, n=n: r["extra"].get(f"gridset.gen.g{n}", 0.0))
    values["gridset.tail_ms"] = over(solved, lambda r: r["extra"].get("gridset.tail", 0.0))
    values["report.replay_swap_ms"] = over(
        records,
        lambda r: r["incl"]["report.replay_swap"] / r["calls"]["report.replay_swap"] if "report.replay_swap" in r["calls"] else None,
    )
    first = traced.records[: traced.round_ends[0]]
    for name in COUNTS:
        values[name] = sum(r["counts"].get(name, 0) for r in first)
    op_ms = median_ms(traced.op_s)
    values["trace.op_ms"] = op_ms
    values["trace.overhead_ms"] = op_ms - median_ms(untraced.op_s)
    values["trace.unattributed_ms"] = median_ms([r["op_s"] - r["covered"] for r in traced.records])
    values["trace.attributed_pct"] = 100.0 * sum(r["covered"] for r in traced.records) / sum(traced.op_s)
    values["mem.peak_alloc_mb"] = peak_alloc / (1024.0 * 1024.0)
    values["machine.calib_ms"] = calib_ms
    return {k: {"value": v, "unit": unit_of(k)} for k, v in values.items()}


def unit_of(name: str) -> str:
    if name in COUNTS:
        return "count"
    if name.endswith("_mb"):
        return "MB"
    if name.endswith("_pct"):
        return "%"
    return "ms"


def self_time_table(traced) -> str:
    """Mean self time per operation by span; with the unattributed rest
    the rows add up to the mean traced operation time."""
    n = len(traced.records)
    totals: dict[str, float] = {}
    for r in traced.records:
        for label, s in r["self"].items():
            totals[label] = totals.get(label, 0.0) + s
    op = sum(traced.op_s) / n
    rest = sum(r["op_s"] - r["covered"] for r in traced.records) / n
    lines = [f"self time per operation over {n} traced operations (mean ms, share):"]
    for label, s in sorted(totals.items(), key=lambda kv: -kv[1]):
        lines.append(f"  {label:32s} {1000 * s / n:10.3f}  {100 * s / n / op:5.1f}%")
    lines.append(f"  {'(unattributed)':32s} {1000 * rest:10.3f}  {100 * rest / op:5.1f}%")
    lines.append(f"  {'traced operation':32s} {1000 * op:10.3f}")
    return "\n".join(lines)


def run(name: str, seed: int, seconds: float, trace: bool) -> dict:
    import calibrate
    import tracing
    from workloads import Recorder

    wl = make_workload(name)
    setup_times = []

    def timed_setup():
        t0 = perf_counter()
        prepared = wl.prepare(seed)
        t1 = perf_counter()
        setup_times.append(((t0 + t1) / 2, t1 - t0))
        return prepared

    state = timed_setup()
    recorders = [Recorder()]
    try:
        wl.expect(state, recorders[0])
        if not trace:
            speed = calibrate.Speed()
            rec = Recorder(speed=speed)
            recorders.append(rec)
            run_rounds(wl, state, rec, seconds, lambda: discard(wl, timed_setup()), SETUP_REPEATS - 1, speed)
            metrics = end_to_end(rec, setup_times, speed)
            print(
                f"unscaled op_ms.p50 {median_ms(rec.op_s):.3f}, calibration loop "
                f"{speed.raw_ms():.4f} ms (reference {calibrate.REFERENCE_MS} ms)",
                file=sys.stderr,
            )
        else:
            speed = calibrate.Speed()
            untraced = Recorder(speed=speed)
            recorders.append(untraced)
            run_rounds(wl, state, untraced, seconds * UNTRACED_SHARE, speed=speed)
            tracer = tracing.Tracer()
            tracer.install()
            try:
                setup_rec = Recorder(tracer)
                t0 = setup_rec.start()
                extra = wl.prepare(seed)
                setup_rec.finish(t0)
                discard(wl, extra)
                traced = Recorder(tracer)
                recorders.append(traced)
                run_rounds(wl, state, traced, seconds * (1 - UNTRACED_SHARE))
            finally:
                tracer.uninstall()
            mem = Recorder()
            recorders.append(mem)
            tracemalloc.start()
            try:
                wl.run_round(state, 0, mem)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            metrics = layer_metrics(traced, setup_rec.records[0], untraced, peak, speed.raw_ms())
            print(self_time_table(traced), file=sys.stderr)
    finally:
        discard(wl, state)
    errors = [e for r in recorders for e in r.errors]
    failures = [f for r in recorders for f in r.failures]
    for line in sorted(set(failures)):
        print(f"failed: {line}", file=sys.stderr)
    for line in errors[:20]:
        print(f"CHECK FAILED: {line}", file=sys.stderr)
    return {
        "correct": not errors,
        "attempted": sum(r.attempted for r in recorders),
        "failed": sum(r.failed for r in recorders),
        "metrics": metrics,
    }


def discard(wl, state) -> None:
    if hasattr(wl, "discard"):
        wl.discard(state)


def self_test() -> int:
    """One round of every workload, untraced and traced, plus the oracle
    tests; exits 1 on any failed check."""
    import test_oracles

    for name, fn in sorted(vars(test_oracles).items()):
        if name.startswith("test_") and callable(fn):
            fn()
    print("oracle tests: ok")
    ok = True
    for name in WORKLOADS:
        for trace in (False, True):
            result = run(name, seed=1, seconds=0.0, trace=trace)
            ok &= result["correct"]
            print(
                f"{name} trace={int(trace)}: correct={result['correct']} "
                f"attempted={result['attempted']} failed={result['failed']} "
                f"metrics={len(result['metrics'])}"
            )
    return 0 if ok else 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true",
                    help="one round of every workload with all checks, then exit")
    args = ap.parse_args(argv)
    src = os.path.join(os.getcwd(), "src")
    if not os.path.isfile(os.path.join(src, "crosscut", "__init__.py")):
        print("perfbench: src/crosscut not found; run from the repository root", file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    import crosscut

    if not os.path.abspath(crosscut.__file__).startswith(os.path.abspath(src) + os.sep):
        print(f"perfbench: crosscut imported from {crosscut.__file__}, not {src}", file=sys.stderr)
        return 2
    if args.self_test:
        return self_test()
    if args.workload is None:
        ap.error("--workload is required")
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
