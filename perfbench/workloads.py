"""The three workloads: input generation, the timed operations, and the
checks of every operation's outputs against the oracles.

Each workload builds its inputs in prepare() (timed as set-up), lets the
oracles derive what the outputs must satisfy in expect() (untimed), and
runs whole rounds of operations in run_round().  Operations call crosscut
through module attributes (gridset.reconstruct, cli.main, ...), so the
traced run's wrappers see them.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import shutil
import tempfile
import xml.etree.ElementTree as ET
from fractions import Fraction
from time import perf_counter as clock

from crosscut import cli, feasibility, gridset, ingest, matrices, report
from crosscut.dyadic import Dyadic
from crosscut.stepfn import StepFunction

import oracles as o

F = Fraction


def frac(d: Dyadic) -> Fraction:
    return F(d.num, 1 << d.exp)


def cell_values(fn: StepFunction, cells: int):
    """Values of a program step function on `cells` uniform cells, read
    from its breakpoints; ValueError if it is not constant on a cell."""
    bps = [frac(b) for b in fn.breakpoints]
    vals = [frac(v) for v in fn.values]
    out, i = [], 0
    for j in range(cells):
        lo, hi = F(j, cells), F(j + 1, cells)
        while bps[i + 1] <= lo:
            i += 1
        if bps[i + 1] < hi:
            raise ValueError(f"not constant on cell {j}")
        out.append(vals[i])
    return out


class Instance:
    """One continuous problem: program inputs plus what the oracles say."""

    def __init__(self, f_cols, g_cols, depth, subres, label):
        self.label = label
        self.params = gridset.GridParams(depth, subres)
        nk = depth + subres
        self.f = StepFunction.from_grid([Dyadic.from_fraction(v) for v in f_cols], depth)
        self.g = StepFunction.from_grid([Dyadic.from_fraction(v) for v in g_cols], depth)
        self.f_cols, self.g_cols = list(f_cols), list(g_cols)
        self.g_units = [int(v * (1 << nk)) for v in g_cols]
        self.oracle = None

    def expect(self):
        if self.oracle is None:
            self.oracle = o.prefix_test(o.grid_pieces(self.f_cols), o.grid_pieces(self.g_cols))
        return self.oracle


class Recorder:
    """Operation times, failures and check results of one phase."""

    def __init__(self, tracer=None, speed=None):
        self.tracer = tracer
        # calibration samples are taken after operations (see calibrate.py)
        self.speed = speed
        self.op_s: list[float] = []
        # middle of each operation, for the calibration nearest in time
        self.op_mid: list[float] = []
        # name -> (middle of the operation, seconds, round)
        self.parts: dict[str, list[tuple[float, float, int]]] = {}
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.errors: list[str] = []
        self.records: list[dict] = []
        self.round_ends: list[int] = []

    def start(self) -> float:
        if self.tracer is not None:
            self.tracer.begin()
            self.tracer.recording = True
        return clock()

    def finish(self, t0: float, **parts: float) -> None:
        elapsed = clock() - t0
        mid = t0 + elapsed / 2
        if self.tracer is not None:
            self.tracer.recording = False
            rec = self.tracer.snapshot()
            rec["op_s"] = elapsed
            self.records.append(rec)
        self.op_s.append(elapsed)
        self.op_mid.append(mid)
        for name, seconds in parts.items():
            self.parts.setdefault(name, []).append((mid, seconds, len(self.round_ends)))
        if self.speed is not None:
            self.speed.keep_up()

    def attempt(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(what)

    def check(self, cond: bool, what: str) -> bool:
        if not cond:
            self.errors.append(what)
        return cond


# -- shared checks -------------------------------------------------------------


def check_verdict(rec, label, rep, oracle):
    verdict, witness, totals = oracle
    rec.check(rep.verdict.value == verdict, f"{label}: verdict {rep.verdict.value} != oracle {verdict}")
    rec.check(
        tuple(frac(t) if isinstance(t, Dyadic) else t for t in rep.totals) == totals,
        f"{label}: totals differ from the oracle's",
    )
    if witness is not None:
        w = rep.witness
        got = None if w is None else tuple(frac(v) if isinstance(v, Dyadic) else v for v in (w.point, w.lhs, w.rhs))
        rec.check(got == witness, f"{label}: witness {got} != oracle {witness}")


def check_construction(rec, inst, e, summary, audit):
    """Sections, residuals, the swap trace and the audit of one run."""
    label, p = inst.label, inst.params
    cap = p.sub_per_cell
    fill = [list(row) for row in e.fill]
    rec.check(e.params == p, f"{label}: grid parameters changed")
    rec.check(o.row_units(fill) == inst.g_units, f"{label}: horizontal section differs from g")
    counts = o.column_counts(fill, cap)
    residual = o.l1_residual(inst.f_cols, counts, p.depth, cap)
    rec.check(frac(summary.final_residual) == residual, f"{label}: final residual != oracle L1 distance")
    chain = [frac(summary.initial_residual)] + [frac(g.residual_l1) for g in summary.generations]
    rec.check(all(a >= b for a, b in zip(chain, chain[1:])), f"{label}: residual increased")
    swaps = [(s.gen, s.band, s.donor, s.receiver) for s in summary.swaps]
    try:
        per_swap, per_gen, initial, final_fill = o.replay(inst.g_units, inst.f_cols, swaps, p.depth, p.subres)
    except ValueError as exc:
        rec.check(False, f"{label}: trace does not replay: {exc}")
        return
    rec.check(initial == chain[0], f"{label}: initial residual != oracle")
    rec.check(final_fill == fill, f"{label}: replayed trace ends in another set")
    got = [(frac(s.l1_drop), frac(s.sym_diff)) for s in summary.swaps]
    rec.check(got == per_swap, f"{label}: recorded swap quantities differ from the replay")
    last = initial
    for g in summary.generations:
        n, res, sym = per_gen.get(g.gen, (0, last, F(0)))
        rec.check(
            (g.swap_count, frac(g.residual_l1), frac(g.sym_diff)) == (n, res, sym),
            f"{label}: generation {g.gen} record differs from the replay",
        )
        last = res
    rec.check(audit.ok, f"{label}: audit_trace rejected the program's own trace: {audit.violation}")


def check_matrix(rec, label, a, p, q):
    rows, cols = o.matrix_margins([list(r) for r in a.entries])
    rec.check(rows == sorted(p, reverse=True), f"{label}: row sums differ")
    rec.check(cols == sorted(q, reverse=True), f"{label}: column sums differ")


def solve_continuous(rec, inst):
    """check_hlp + reconstruct + audit_trace; returns the summary."""
    oracle = inst.expect()
    t0 = rec.start()
    try:
        rep = feasibility.check_hlp(inst.f, inst.g)
        e, summary = gridset.reconstruct(inst.f, inst.g, inst.params)
        t1 = clock()
        audit = report.audit_trace(summary, inst.f, inst.g, inst.params)
    except Exception as exc:  # a failed operation, counted and reported
        rec.finish(t0)
        rec.attempt(False, f"{inst.label}: {type(exc).__name__}: {exc}")
        return None
    t2 = clock()
    rec.finish(t0, solve=t1 - t0, certify=t2 - t1)
    rec.attempt(True, inst.label)
    check_verdict(rec, inst.label, rep, oracle)
    check_construction(rec, inst, e, summary, audit)
    return summary


def solve_matrix(rec, label, p, q):
    """check_gale_ryser + ryser_construct + swap_construct on margins that
    the oracle finds feasible."""
    oracle = o.gale_ryser(p, q)
    pp, qq = feasibility.Partition(tuple(p)), feasibility.Partition(tuple(q))
    t0 = rec.start()
    try:
        rep = feasibility.check_gale_ryser(pp, qq)
        greedy = matrices.ryser_construct(pp, qq)
        moved = matrices.swap_construct(pp, qq)
    except Exception as exc:
        rec.finish(t0)
        rec.attempt(False, f"{label}: {type(exc).__name__}: {exc}")
        return
    rec.finish(t0, matrix=clock() - t0)
    rec.attempt(True, label)
    check_verdict(rec, label, rep, oracle)
    check_matrix(rec, f"{label} greedy", greedy, p, q)
    check_matrix(rec, f"{label} swap", moved, p, q)


# -- deep-ramp ------------------------------------------------------------------


class DeepRamp:
    """The ROADMAP baseline: f = g = (1 - x)/2 from a 256-step raw marginal,
    at N=7, K=4, plus its discrete shadow (whole cells per band) as a
    2**N-row Gale-Ryser instance.  Does not depend on the seed."""

    depth, subres, steps = 7, 4, 256

    def prepare(self, seed):
        breaks = tuple(F(j, self.steps) for j in range(self.steps))
        vals = tuple((1 - (b + F(1, self.steps) / 2)) / 2 for b in breaks)
        raw = ingest.RawMarginal(breaks, vals)
        params = gridset.GridParams(self.depth, self.subres)
        fq, frep = ingest.quantize(raw, params)
        gq, grep = ingest.quantize(raw, params)
        return {"raw": raw, "quantized": ((fq, frep), (gq, grep))}

    def expect(self, state, rec):
        raw = state["raw"]
        pieces = o.raw_pieces(raw.breakpoints, raw.values)
        side = 1 << self.depth
        unit = F(1, 1 << (self.depth + self.subres))
        avgs = o.cell_averages(pieces, side)
        cols = []
        for name, (fn, qrep) in zip("fg", state["quantized"]):
            q = cell_values(fn, side)
            rec.check(all(abs(a - b) <= unit for a, b in zip(q, avgs)), f"quantized {name}: cell off by more than one sub-unit")
            rec.check((qrep.l1_error, qrep.sup_error) == o.quantization_errors(pieces, q), f"quantized {name}: reported errors differ from the oracle's")
            cols.append(q)
        f_cols, g_cols = cols
        state["instance"] = inst = Instance(f_cols, g_cols, self.depth, self.subres, "deep-ramp")
        rec.check(inst.expect()[0] == "feasible", "deep-ramp: oracle finds the quantized ramp infeasible")
        # discrete shadow: full cells per band and per column
        state["shadow"] = ([int(v * side) for v in g_cols], [int(v * side) for v in f_cols])

    def run_round(self, state, r, rec):
        inst = state["instance"]
        p, q = state["shadow"]
        oracle = inst.expect()
        shadow_oracle = o.gale_ryser(p, q)
        pp, qq = feasibility.Partition(tuple(p)), feasibility.Partition(tuple(q))
        t0 = rec.start()
        try:
            rep = feasibility.check_hlp(inst.f, inst.g)
            e, summary = gridset.reconstruct(inst.f, inst.g, inst.params)
            t1 = clock()
            audit = report.audit_trace(summary, inst.f, inst.g, inst.params)
            t2 = clock()
            mrep = feasibility.check_gale_ryser(pp, qq)
            greedy = matrices.ryser_construct(pp, qq)
            moved = matrices.swap_construct(pp, qq)
        except Exception as exc:
            rec.finish(t0)
            rec.attempt(False, f"deep-ramp: {type(exc).__name__}: {exc}")
            return
        t3 = clock()
        rec.finish(t0, solve=t1 - t0, certify=t2 - t1, matrix=t3 - t2)
        rec.attempt(True, "deep-ramp")
        outputs = (rep, e, summary, audit, mrep, greedy, moved)
        # the input is the same every round: the first operation is checked
        # against the oracles, every later one must equal it exactly
        if "verified" in state:
            rec.check(outputs == state["verified"], "deep-ramp: outputs differ from the oracle-checked first operation")
            return
        errors = len(rec.errors)
        check_verdict(rec, "deep-ramp", rep, oracle)
        check_construction(rec, inst, e, summary, audit)
        check_verdict(rec, "deep-ramp shadow", mrep, shadow_oracle)
        check_matrix(rec, "deep-ramp shadow greedy", greedy, p, q)
        check_matrix(rec, "deep-ramp shadow swap", moved, p, q)
        if len(rec.errors) == errors:
            state["verified"] = outputs


# -- small-batch ------------------------------------------------------------------


def composition(rng, total, parts, cap):
    """Random parts in 0..cap summing to total (total <= parts * cap)."""
    out = []
    for i in range(parts):
        rest = parts - i - 1
        lo, hi = max(0, total - rest * cap), min(cap, total)
        v = rng.randint(lo, hi)
        out.append(v)
        total -= v
    rng.shuffle(out)
    return out


def random_set_sections(rng, depth, subres):
    """Column and band sums (in sub-units) of a random set: each band a
    random width laid out as full cells and one partial, cells permuted."""
    side, cap = 1 << depth, 1 << subres
    fill = []
    for _ in range(side):
        full, rem = divmod(rng.randint(0, side * cap), cap)
        row = [cap] * full + ([rem] if rem else [])
        row += [0] * (side - len(row))
        rng.shuffle(row)
        fill.append(row)
    cols = [sum(fill[i][j] for i in range(side)) for j in range(side)]
    return cols, o.row_units(fill)


class SmallBatch:
    """A seeded stream of small exact problems in fixed-make-up rounds."""

    # (N, K) of the feasible continuous problems of a round; odd K: the
    # sections of a random set, even K: constant f against a random g
    FEASIBLE = [(n, k) for n in (3, 4, 5) for k in (1, 2, 3, 4)]
    # infeasible continuous problems: (N, K, kind)
    INFEASIBLE = [(3, 2, "norm"), (3, 2, "majorization"), (4, 2, "majorization"), (5, 2, "majorization")]
    # recorded quantity altered in the traces of the deepest solved problems
    ALTERED = ("l1_drop", "sym_diff", "l1_drop")
    # (rows, columns, density of ones) of the feasible matrix problems
    MATRIX_SIZES = [(8, 8, 0.3), (16, 16, 0.7), (24, 24, 0.5), (32, 32, 0.4), (40, 40, 0.6)]
    MATRIX_BAD = [(20, 20, "norm"), (20, 20, "majorization")]
    PREPARED = 8

    def prepare(self, seed):
        return {"seed": seed, "rounds": {r: self.make_round(seed, r) for r in range(self.PREPARED)}}

    def expect(self, state, rec):
        pass  # each problem's oracle verdict is derived as it is generated

    def make_round(self, seed, r):
        rng = random.Random(f"small-batch:{seed}:{r}")
        feasible = []
        for n, k in self.FEASIBLE:
            nk = n + k
            side = 1 << n
            if k % 2:
                cols, rows = random_set_sections(rng, n, k)
                f_cols = [F(c, 1 << nk) for c in cols]
                g_cols = [F(u, 1 << nk) for u in rows]
                label = f"set N={n} K={k}"
            else:
                s = rng.randint(1, (1 << nk) - 1)
                g_cols = [F(u, 1 << nk) for u in composition(rng, s * side, side, 1 << nk)]
                f_cols = [F(s, 1 << nk)] * side
                label = f"flat N={n} K={k}"
            feasible.append(Instance(f_cols, g_cols, n, k, f"r{r} {label}"))
        infeasible = []
        for n, k, kind in self.INFEASIBLE:
            nk, side = n + k, 1 << n
            for _ in range(1000):
                total = rng.randint(1, side * (1 << nk) - 1)
                fu = composition(rng, total + (kind == "norm"), side, 1 << nk)
                gu = composition(rng, total, side, 1 << nk)
                inst = Instance([F(u, 1 << nk) for u in fu], [F(u, 1 << nk) for u in gu], n, k, f"r{r} infeasible {kind} N={n}")
                if inst.expect()[0] == f"infeasible_{kind}":
                    break
            else:
                raise RuntimeError(f"no infeasible_{kind} pair found")
            infeasible.append(inst)
        mats = []
        for rows, ncols, density in self.MATRIX_SIZES:
            a = [[1 if rng.random() < density else 0 for _ in range(ncols)] for _ in range(rows)]
            p, q = o.matrix_margins(a)
            mats.append((f"r{r} matrix {rows}x{ncols}", p, q))
        bad = []
        for rows, ncols, kind in self.MATRIX_BAD:
            while True:
                a = [[rng.randint(0, 1) for _ in range(ncols)] for _ in range(rows)]
                p, _ = o.matrix_margins(a)
                if kind == "norm":
                    q = composition(rng, sum(p) + 1, ncols, rows)
                    break
                # conjugate of p with one unit moved forward: a prefix sum
                # of q then exceeds the conjugate's
                q = (o.conjugate(p) + [0] * ncols)[:ncols]
                i = next((i for i, c in enumerate(q) if c < rows), ncols)
                j = max((j for j, c in enumerate(q) if c > 0), default=-1)
                if i < j:
                    q[i] += 1
                    q[j] -= 1
                    rng.shuffle(q)
                    break
            if o.gale_ryser(p, q)[0] != f"infeasible_{kind}":
                raise RuntimeError(f"margins meant to be infeasible_{kind} are not")
            bad.append((f"r{r} margins {kind}", p, q))
        return {"rng": rng, "feasible": feasible, "infeasible": infeasible, "matrices": mats, "bad": bad}

    def run_round(self, state, r, rec):
        rnd = state["rounds"].pop(r, None) or self.make_round(state["seed"], r)
        solved = [(inst, solve_continuous(rec, inst)) for inst in rnd["feasible"]]
        for inst in rnd["infeasible"]:
            self.refuse(rec, inst)
        with_swaps = [(inst, s) for inst, s in reversed(solved) if s is not None and s.swaps]
        for (inst, summary), which in zip(with_swaps, self.ALTERED):
            self.altered(rec, rnd["rng"], inst, summary, which)
        for label, p, q in rnd["matrices"]:
            solve_matrix(rec, label, p, q)
        for label, p, q in rnd["bad"]:
            self.refuse_margins(rec, label, p, q)

    def refuse(self, rec, inst):
        oracle = inst.expect()
        t0 = rec.start()
        try:
            rep = feasibility.check_hlp(inst.f, inst.g)
            try:
                gridset.reconstruct(inst.f, inst.g, inst.params)
                raised = None
            except gridset.InfeasibleInput as exc:
                raised = exc
        except Exception as exc:
            rec.finish(t0)
            rec.attempt(False, f"{inst.label}: {type(exc).__name__}: {exc}")
            return
        rec.finish(t0)
        rec.attempt(True, inst.label)
        check_verdict(rec, inst.label, rep, oracle)
        rec.check(raised is not None, f"{inst.label}: reconstruct accepted an infeasible pair")
        if raised is not None:
            check_verdict(rec, f"{inst.label} (reconstruct)", raised.report, oracle)

    def altered(self, rec, rng, inst, summary, which):
        """Audit the trace with one recorded quantity changed by a tiny
        dyadic amount; the audit must stop at that record."""
        lines = report.trace_lines(summary).splitlines()
        idx = rng.randrange(len(lines))
        obj = json.loads(lines[idx])
        p = inst.params
        obj[which] = str(F(obj[which]) + F(1, 1 << (2 * p.depth + p.subres + 1)))
        lines[idx] = json.dumps(obj, sort_keys=True)
        text = "\n".join(lines) + "\n"
        label = f"{inst.label} altered {which} at {idx}"
        t0 = rec.start()
        try:
            records = report.parse_trace(text)
            audit = report.audit_trace(records, inst.f, inst.g, p)
        except Exception as exc:
            rec.finish(t0)
            rec.attempt(False, f"{label}: {type(exc).__name__}: {exc}")
            return
        rec.finish(t0)
        rec.attempt(True, label)
        rec.check(not audit.ok and audit.record_index == idx, f"{label}: audit returned {audit}")

    def refuse_margins(self, rec, label, p, q):
        oracle = o.gale_ryser(p, q)
        pp, qq = feasibility.Partition(tuple(p)), feasibility.Partition(tuple(q))
        t0 = rec.start()
        try:
            rep = feasibility.check_gale_ryser(pp, qq)
            try:
                matrices.ryser_construct(pp, qq)
                raised = None
            except matrices.InfeasibleMargins as exc:
                raised = exc
        except Exception as exc:
            rec.finish(t0)
            rec.attempt(False, f"{label}: {type(exc).__name__}: {exc}")
            return
        rec.finish(t0)
        rec.attempt(True, label)
        check_verdict(rec, label, rep, oracle)
        rec.check(raised is not None, f"{label}: ryser_construct built a matrix for infeasible margins")


# -- cli-files ----------------------------------------------------------------------


def split_cells(rng, averages, pieces_per_cell=5):
    """Raw marginal whose average over each cell is exactly the given
    value: each cell cut into equal pieces (non-dyadic cut points) whose
    values deviate from the average by multiples of a non-dyadic unit,
    summing to zero.  The denominators do not depend on the seed, so
    neither does the cost of exact arithmetic on the pieces."""
    cells = len(averages)
    unit = F(1, 3 << 14)
    out = []
    for j, avg in enumerate(averages):
        devs = [rng.randint(-6, 6) for _ in range(pieces_per_cell - 1)]
        devs.append(-sum(devs))
        for i, d in enumerate(devs):
            out.append((F(j, cells) + F(i, cells * pieces_per_cell), avg + d * unit))
    return out


def write_marginal(path, rows):
    if path.endswith(".json"):
        text = json.dumps([{"b": b, "v": v} for b, v in rows])
    else:
        text = "breakpoint,value\n" + "".join(f"{b},{v}\n" for b, v in rows)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def read_netpbm(path):
    """(magic, width, height, maxval, rows, comments) of a P1/P2 text file."""
    tokens, comments = [], []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line, hash_, comment = line.partition("#")
            if hash_:
                comments.append(comment.strip())
            tokens += line.split()
    magic, width, height = tokens[0], int(tokens[1]), int(tokens[2])
    head = 3 if magic == "P1" else 4
    maxval = 1 if magic == "P1" else int(tokens[3])
    vals = [int(t) for t in tokens[head:]]
    if len(vals) != width * height:
        raise ValueError("sample count does not match the header")
    return magic, width, height, maxval, [vals[i * width:(i + 1) * width] for i in range(height)], comments


def decode_set(path, subres):
    """Fill grid (bands bottom-up) of a set image whose pixels store
    round(maxval * fill / 2**K): each pixel must map back to one fill."""
    magic, width, height, maxval, rows, comments = read_netpbm(path)
    cap = 1 << subres
    table = {}
    for w in range(cap + 1):
        table.setdefault((2 * maxval * w + cap) // (2 * cap), []).append(w)
    fill = []
    for r in range(height - 1, -1, -1):
        row = []
        for p in rows[r]:
            ws = table.get(p, [])
            if len(ws) != 1:
                raise ValueError(f"pixel {p} does not name one fill")
            row.append(ws[0])
        fill.append(row)
    return fill, comments


def exact_value(text, key):
    """The exact value printed after `key` as 'a/b (~float)'."""
    for line in text.splitlines():
        if key in line:
            return F(line.split(key, 1)[1].split()[0])
    raise ValueError(f"no line with {key!r}")


def quant_errors(text, name):
    for line in text.splitlines():
        if line.startswith(f"quantized {name}:"):
            l1 = F(line.split("l1 error ", 1)[1].split()[0])
            sup = F(line.split("sup error ", 1)[1].split()[0])
            return l1, sup
    raise ValueError(f"no quantization line for {name}")


class CliFiles:
    """One operation is a session of in-process crosscut.cli.main calls on
    seeded marginal and partition files, plus the two fixed-input
    commands that fail today because of named faults."""

    depth, subres, breaks_per_cell = 6, 4, 5

    def prepare(self, seed):
        rng = random.Random(f"cli-files:{seed}")
        base = os.path.join(os.getcwd(), ".perfbench_tmp")
        os.makedirs(base, exist_ok=True)
        d = tempfile.mkdtemp(prefix="cli-", dir=base)
        # the cell averages are the ramp (1 - x)/2 whatever the seed, so the
        # constructions do the same work on every seed; the seed picks the
        # raw pieces inside each cell
        cells = 1 << self.depth
        f_avg = [(1 - F(2 * j + 1, 2 * cells)) / 2 for j in range(cells)]
        g_avg = list(f_avg)
        f_rows = split_cells(rng, f_avg, self.breaks_per_cell)
        g_rows = split_cells(rng, g_avg, self.breaks_per_cell)
        # the margins are the ramp's whole cells per band and per column,
        # written in a seeded order
        p, q = [int(v * cells) for v in g_avg], [int(v * cells) for v in f_avg]
        rng.shuffle(p)
        rng.shuffle(q)
        files = {k: os.path.join(d, k) for k in ("f.csv", "g.json", "p.txt", "q.txt", "lossy_f.csv", "lossy_g.csv", "flip_f.csv", "flip_g.csv")}
        write_marginal(files["f.csv"], [(str(b), str(v)) for b, v in f_rows])
        write_marginal(files["g.json"], [(str(b), str(v)) for b, v in g_rows])
        for key, parts in (("p.txt", p), ("q.txt", q)):
            with open(files[key], "w", encoding="utf-8") as fh:
                fh.write(" ".join(map(str, parts)) + "\n")
        # fixed inputs, independent of the seed
        ramp = [(f"{j}/32", f"{63 - 2 * j}/128") for j in range(32)]
        write_marginal(files["lossy_f.csv"], ramp)
        write_marginal(files["lossy_g.csv"], ramp)
        write_marginal(files["flip_f.csv"], [("0", "1/3")])
        write_marginal(files["flip_g.csv"], [("0", "2/3"), ("1/2", "0")])
        # read the seeded marginals back once, as a check of the files
        loaded = (ingest.load_marginal(files["f.csv"]), ingest.load_marginal(files["g.json"]))
        return {"dir": d, "files": files, "raw": (f_rows, g_rows), "loaded": loaded, "avg": (f_avg, g_avg), "margins": (p, q)}

    def discard(self, state):
        shutil.rmtree(state["dir"], ignore_errors=True)
        with contextlib.suppress(OSError):  # other runs may still use it
            os.rmdir(os.path.dirname(state["dir"]))

    def expect(self, state, rec):
        f_rows, g_rows = state["raw"]
        f_avg, g_avg = state["avg"]
        for rows, raw in zip(state["raw"], state["loaded"]):
            rec.check(list(zip(raw.breakpoints, raw.values)) == rows, "cli-files: a marginal file reads back differently")
        cells = 1 << self.depth
        fp = o.raw_pieces([b for b, _ in f_rows], [v for _, v in f_rows])
        gp = o.raw_pieces([b for b, _ in g_rows], [v for _, v in g_rows])
        rec.check(o.cell_averages(fp, cells) == f_avg and o.cell_averages(gp, cells) == g_avg, "cli-files: raw cell averages off the grid")
        state["errors"] = {"f": o.quantization_errors(fp, f_avg), "g": o.quantization_errors(gp, g_avg)}
        state["raw_verdict"] = o.prefix_test(fp, gp)[0]
        state["instance"] = inst = Instance(f_avg, g_avg, self.depth, self.subres, "cli-files")
        rec.check(inst.expect()[0] == "feasible", "cli-files: quantized pair infeasible by construction error")
        state["flip_raw"] = o.prefix_test(o.raw_pieces([F(0)], [F(1, 3)]), o.raw_pieces([F(0), F(1, 2)], [F(2, 3), F(0)]))[0]

    def run_cli(self, argv):
        out, err = io.StringIO(), io.StringIO()
        t0 = clock()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception as exc:
            code = f"{type(exc).__name__}: {exc}"
        return code, out.getvalue(), err.getvalue(), clock() - t0

    def run_round(self, state, r, rec):
        fl = state["files"]
        d = state["dir"]
        out = {k: os.path.join(d, k) for k in ("set.pgm", "t.jsonl", "s.json", "s.svg", "plot.svg", "m.pbm", "lossy.pgm")}
        n, k = str(self.depth), str(self.subres)
        session = [
            ("check", ["check", "--continuous", fl["f.csv"], fl["g.json"], "-N", n, "-K", k]),
            ("realize-set", ["realize-set", fl["f.csv"], fl["g.json"], "-N", n, "-K", k, "-o", out["set.pgm"], "--trace", out["t.jsonl"], "--summary", out["s.json"], "--svg", out["s.svg"]]),
            ("verify", ["verify", out["set.pgm"], fl["f.csv"], fl["g.json"]]),
            ("render", ["render", fl["f.csv"], "-o", out["plot.svg"]]),
            ("realize-matrix", ["realize-matrix", fl["p.txt"], fl["q.txt"], "-o", out["m.pbm"], "--method", "swap"]),
            ("lossy realize-set", ["realize-set", fl["lossy_f.csv"], fl["lossy_g.csv"], "-N", "5", "-K", "9", "-o", out["lossy.pgm"]]),
            ("lossy verify", ["verify", out["lossy.pgm"], fl["lossy_f.csv"], fl["lossy_g.csv"]]),
            ("flip check", ["check", "--continuous", fl["flip_f.csv"], fl["flip_g.csv"], "-N", "3", "-K", "4"]),
        ]
        for path in out.values():
            if os.path.exists(path):
                os.remove(path)
        results = {}
        t0 = rec.start()
        for label, argv in session:
            results[label] = self.run_cli(argv)
        rec.finish(
            t0,
            solve=results["realize-set"][3],
            certify=results["verify"][3],
            matrix=results["realize-matrix"][3],
            **{f"cmd {lbl}": res[3] for lbl, res in results.items()},
        )
        for label, _ in session:
            code, stdout, stderr, _ = results[label]
            ok = code == 0
            rec.attempt(ok, f"{label}: exit {code} {stderr.strip()[:120]}")
            if ok:
                try:
                    self.check_command(state, label, stdout, out, rec)
                except (ValueError, KeyError, IndexError, OSError, ET.ParseError) as exc:
                    rec.check(False, f"{label}: output unreadable: {exc}")

    def check_command(self, state, label, stdout, out, rec):
        inst = state["instance"]
        errors = state["errors"]
        if label == "check":
            verdict = stdout.split("verdict: ", 1)[1].split()[0]
            rec.check(verdict == inst.expect()[0], f"check: verdict {verdict} != oracle")
            rec.check(not (state["raw_verdict"] == "feasible" and verdict.startswith("infeasible")), "check: raw-feasible pair called infeasible")
            for name in "fg":
                rec.check(quant_errors(stdout, name) == errors[name], f"check: quantization errors of {name} differ from the oracle's")
        elif label == "realize-set":
            self.check_realized(state, stdout, out, rec)
        elif label == "verify":
            rec.check("horizontal section equals quantized g: True" in stdout, "verify: horizontal section mismatch")
            rec.check("cross-section self-check: feasible" in stdout, "verify: self-check failed")
            rec.check(exact_value(stdout, "residual |f - v|_1: ") == state["residual"], "verify: residual differs from the oracle's")
        elif label == "render":
            rec.check(quant_errors(stdout, "f") == errors["f"], "render: quantization errors differ from the oracle's")
            rec.check(len(ET.parse(out["plot.svg"]).getroot().findall(".//{http://www.w3.org/2000/svg}polyline")) == 3, "render: expected three curves")
        elif label == "realize-matrix":
            p, q = state["margins"]
            magic, width, height, _, rows, _ = read_netpbm(out["m.pbm"])
            rs, cs = o.matrix_margins(rows)
            rec.check(magic == "P1" and rs == sorted(p, reverse=True) and cs == sorted(q, reverse=True), "realize-matrix: margins differ")
        elif label == "lossy realize-set":
            magic, width, height, maxval, _, _ = read_netpbm(out["lossy.pgm"])
            rec.check((magic, width, height) == ("P2", 32, 32), "lossy realize-set: unexpected image header")
        elif label == "lossy verify":
            rec.check("horizontal section equals quantized g: True" in stdout, "lossy verify: mismatch")
        elif label == "flip check":
            verdict = stdout.split("verdict: ", 1)[1].split()[0]
            rec.check(not (state["flip_raw"] == "feasible" and verdict.startswith("infeasible")), "flip check: raw-feasible pair called infeasible")

    def check_realized(self, state, stdout, out, rec):
        inst = state["instance"]
        p = inst.params
        fill, comments = decode_set(out["set.pgm"], p.subres)
        rec.check(f"K={p.subres}" in comments, "realize-set: set file lacks its K comment")
        rec.check(o.row_units(fill) == inst.g_units, "realize-set: horizontal section differs from quantized g")
        counts = o.column_counts(fill, p.sub_per_cell)
        residual = o.l1_residual(inst.f_cols, counts, p.depth, p.sub_per_cell)
        state["residual"] = residual
        with open(out["s.json"], encoding="utf-8") as fh:
            summary = json.load(fh)
        rec.check(F(summary["final_residual"]) == residual, "realize-set: summary residual != oracle L1 distance")
        rec.check(exact_value(stdout, "final residual: ") == residual, "realize-set: printed residual != oracle")
        swaps, recorded = [], []
        with open(out["t.jsonl"], encoding="utf-8") as fh:
            for line in fh:
                obj = json.loads(line)
                swaps.append((obj["gen"], obj["band"], obj["donor"], obj["receiver"]))
                recorded.append((F(obj["l1_drop"]), F(obj["sym_diff"])))
        per_swap, per_gen, initial, final_fill = o.replay(inst.g_units, inst.f_cols, swaps, p.depth, p.subres)
        rec.check(recorded == per_swap and final_fill == fill, "realize-set: trace does not replay to the written set")
        rec.check(F(summary["initial_residual"]) == initial, "realize-set: initial residual != oracle")
        rec.check(summary["swap_count"] == len(swaps), "realize-set: swap count differs from the trace")
        last = initial
        for g in summary["generations"]:
            n, res, sym = per_gen.get(g["gen"], (0, last, F(0)))
            rec.check(
                (g["swap_count"], F(g["residual_l1"]), F(g["sym_diff"])) == (n, res, sym) and res <= last,
                f"realize-set: generation {g['gen']} differs from the replay",
            )
            last = res
        ET.parse(out["s.svg"])
