"""Per-layer spans for the traced run, recorded from outside the program.

The tracer wraps crosscut's public functions at every module attribute
that names them, so a call is caught where the caller looks the name up
(crosscut.gridset.check_hlp, crosscut.cli.quantize, ...).  Each span adds
its duration to its label's inclusive time and, minus the time of the
spans nested in it, to its self time; the self times of one operation
sum to the part of the operation that the spans cover.  reconstruct gets
its public on_swap callback, which times each generation from outside.
Nothing in src/ is changed and nothing is recorded outside an operation.
"""

from __future__ import annotations

import sys
import time

import oracles

perf = time.perf_counter


def _count_breakpoints(tracer, args, kwargs, result):
    tracer.count("ingest.breakpoints", len(result.breakpoints))


def _count_written(tracer, args, kwargs, result):
    tracer.count("netpbm.bytes", len(result))


def _count_read(tracer, args, kwargs, result):
    tracer.count("netpbm.bytes", len(args[0]))


def _count_moves(tracer, args, kwargs, result):
    p, q = args[0], args[1]
    tracer.count("matrices.moves", oracles.swap_moves(list(p.parts), list(q.parts)))


# (module, attribute, span label, hook run after a successful call)
SPANS = (
    ("ingest", "load_marginal", "ingest.load_marginal", _count_breakpoints),
    ("ingest", "load_partition", "ingest.load_partition", None),
    ("ingest", "quantize", "ingest.quantize", None),
    ("feasibility", "check_hlp", "feasibility.check_hlp", None),
    ("feasibility", "check_gale_ryser", "feasibility.check_gale_ryser", None),
    ("gridset", "initial_set", "gridset.initial_set", None),
    ("gridset", "vertical_section", "gridset.vertical_section", None),
    ("gridset", "horizontal_section", "gridset.horizontal_section", None),
    ("gridset", "ReplayState.verify_and_apply", "report.replay_swap", None),
    ("report", "audit_trace", "report.audit_trace", None),
    ("report", "trace_lines", "report.trace_lines", None),
    ("report", "parse_trace", "report.parse_trace", None),
    ("report", "summary_dict", "report.summary_dict", None),
    ("report", "render_text", "report.render_text", None),
    ("matrices", "ryser_construct", "matrices.ryser_construct", None),
    ("matrices", "swap_construct", "matrices.swap_construct", _count_moves),
    ("netpbm", "write_pbm", "netpbm.write", _count_written),
    ("netpbm", "write_pgm", "netpbm.write", _count_written),
    ("netpbm", "read_netpbm", "netpbm.read", _count_read),
    ("svgplot", "render_curves", "svgplot.render_curves", None),
    ("stepfn", "l1_distance", "stepfn.l1_distance", None),
    ("stepfn", "rearrange", "stepfn.rearrange", None),
)

CLI_COMMANDS = ("check", "realize-set", "verify", "render", "realize-matrix")


class Tracer:
    """Span and count totals of the current operation."""

    def __init__(self):
        self.recording = False
        self._stack: list[list[float]] = []
        self._patches: list[tuple[object, str, object]] = []
        self.begin()

    def begin(self) -> None:
        self.incl: dict[str, float] = {}
        self.self_: dict[str, float] = {}
        self.calls: dict[str, int] = {}
        self.counts: dict[str, int] = {}
        self.extra: dict[str, float] = {}
        self.covered = 0.0
        self.last_end: dict[str, float] = {}

    def snapshot(self) -> dict:
        return {
            "incl": self.incl,
            "self": self.self_,
            "calls": self.calls,
            "counts": self.counts,
            "extra": self.extra,
            "covered": self.covered,
        }

    def count(self, name: str, n: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + n

    def add_time(self, name: str, seconds: float) -> None:
        self.extra[name] = self.extra.get(name, 0.0) + seconds

    # -- wrappers ---------------------------------------------------------

    def span(self, label, fn, after=None):
        tracer = self

        def wrapped(*args, **kwargs):
            if not tracer.recording:
                return fn(*args, **kwargs)
            frame = [0.0]
            tracer._stack.append(frame)
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf()
                tracer._stack.pop()
                dur = t1 - t0
                tracer.incl[label] = tracer.incl.get(label, 0.0) + dur
                tracer.self_[label] = tracer.self_.get(label, 0.0) + dur - frame[0]
                tracer.calls[label] = tracer.calls.get(label, 0) + 1
                tracer.last_end[label] = t1
                if tracer._stack:
                    tracer._stack[-1][0] += dur
                else:
                    tracer.covered += dur
            if after is not None:
                after(tracer, args, kwargs, result)
            return result

        wrapped.__wrapped__ = fn
        return wrapped

    def _reconstruct(self, fn):
        """reconstruct with the on_swap callback timing each generation:
        a swap's gap since the previous swap (or since initial_set
        returned) goes to its generation, the rest to the tail."""
        tracer = self
        spanned = self.span("gridset.reconstruct", fn)

        def reconstruct(f, g, params, on_swap=None):
            if not tracer.recording:
                return fn(f, g, params, on_swap)
            start = perf()
            last = [None]

            def since_last() -> float:
                if last[0] is not None:
                    return last[0]
                return max(start, tracer.last_end.get("gridset.initial_set", start))

            def hook(rec):
                now = perf()
                tracer.add_time(f"gridset.gen.g{rec.gen}", now - since_last())
                tracer.count("gridset.swaps")
                tracer.count(f"gridset.swaps.g{rec.gen}")
                last[0] = now
                if on_swap is not None:
                    on_swap(rec)

            result = spanned(f, g, params, hook)
            tracer.add_time("gridset.tail", tracer.last_end["gridset.reconstruct"] - since_last())
            return result

        reconstruct.__wrapped__ = fn
        return reconstruct

    def _counted(self, name, fn):
        tracer = self

        def counted(*args, **kwargs):
            if tracer.recording:
                tracer.count(name)
            return fn(*args, **kwargs)

        return counted

    def _cli_main(self, fn):
        spans = {cmd: self.span(f"cli.{cmd.replace('-', '_')}", fn) for cmd in CLI_COMMANDS}

        def main(argv=None):
            wrapped = spans.get(argv[0]) if argv else None
            return (wrapped or fn)(argv)

        return main

    # -- installation -------------------------------------------------------

    def _patch_everywhere(self, original, replacement) -> None:
        for name, module in list(sys.modules.items()):
            if name != "crosscut" and not name.startswith("crosscut."):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._patches.append((module, attr, original))
                    setattr(module, attr, replacement)

    def _patch_attr(self, owner, attr, replacement) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def install(self) -> None:
        from crosscut import cli, gridset  # cli imports every module it calls

        for mod_name, attr, label, after in SPANS:
            module = sys.modules[f"crosscut.{mod_name}"]
            if "." in attr:
                cls_name, meth = attr.split(".")
                owner = getattr(module, cls_name)
                self._patch_attr(owner, meth, self.span(label, getattr(owner, meth), after))
            else:
                original = getattr(module, attr)
                self._patch_everywhere(original, self.span(label, original, after))
        original = gridset.reconstruct
        self._patch_everywhere(original, self._reconstruct(original))
        # a count only: the swap search is a private method, read 0 if renamed
        work = getattr(gridset, "_Work", None)
        if work is not None and hasattr(work, "find_first"):
            self._patch_attr(work, "find_first", self._counted("gridset.searches", work.find_first))
        self._patch_attr(cli, "main", self._cli_main(cli.main))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)
