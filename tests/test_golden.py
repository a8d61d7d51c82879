"""Golden outputs: the swap trace, the summary JSON and the set image of
fixed reconstructions must stay byte-identical.

Each case runs `crosscut realize-set` in-process on marginal CSV files and
compares the three files it writes with the ones stored under
tests/golden/<case>/.  The same run is also rebuilt through the library
and its full trace must pass audit_trace.  The cases are the three
families of scripts/residual_sweep.py at N=6 and at N=7, K=4, and twenty
seeded rand_feasible_pair instances at N <= 4.

To rewrite the stored outputs after a deliberate behaviour change:
    PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

import importlib.util
import pathlib
import random
import sys
from fractions import Fraction

import pytest

from conftest import rand_feasible_pair
from crosscut import GridParams, audit_trace, reconstruct
from crosscut.cli import main
from crosscut.ingest import RawMarginal, quantize
from crosscut.report import trace_lines

HERE = pathlib.Path(__file__).resolve().parent
GOLDEN = HERE / "golden"
SWEEP = HERE.parent / "scripts" / "residual_sweep.py"


def _sweep_module():
    spec = importlib.util.spec_from_file_location("residual_sweep", SWEEP)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def _raw(fn) -> RawMarginal:
    return RawMarginal(
        tuple(b.to_fraction() for b in fn.breakpoints[:-1]),
        tuple(v.to_fraction() for v in fn.values),
    )


def cases() -> dict:
    """name -> (raw f, raw g, GridParams)."""
    sweep = _sweep_module()
    families = {
        "flat": (sweep.flat(Fraction(1, 3)), sweep.flat(Fraction(1, 3))),
        "ramp": (sweep.ramp(), sweep.ramp()),
        "two_level": (sweep.two_level(), sweep.flat(Fraction(5, 16))),
    }
    out = {}
    for prefix, depth in (("sweep", 6), ("sweep7", 7)):
        for family, (f, g) in families.items():
            out[f"{prefix}_{family}"] = (f, g, GridParams(depth, 4))
    for seed in range(20):
        rng = random.Random(7000 + seed)
        params = GridParams(rng.randint(1, 4), rng.randint(0, 3))
        f, g = rand_feasible_pair(rng, params)
        out[f"rand_{seed:02d}"] = (_raw(f), _raw(g), params)
    return out


CASES = cases()


def _csv(raw: RawMarginal) -> str:
    rows = "".join(f"{b},{v}\n" for b, v in zip(raw.breakpoints, raw.values))
    return "breakpoint,value\n" + rows


def _image_name(params: GridParams) -> str:
    return "set.pbm" if params.subres == 0 else "set.pgm"


def run_cli(name: str, workdir: pathlib.Path) -> dict:
    """Output file name -> bytes written by realize-set for one case."""
    raw_f, raw_g, params = CASES[name]
    (workdir / "f.csv").write_text(_csv(raw_f))
    (workdir / "g.csv").write_text(_csv(raw_g))
    names = (_image_name(params), "trace.jsonl", "summary.json")
    paths = [str(workdir / n) for n in names]
    argv = [
        "realize-set", str(workdir / "f.csv"), str(workdir / "g.csv"),
        "-N", str(params.depth), "-K", str(params.subres),
        "-o", paths[0], "--trace", paths[1], "--summary", paths[2],
    ]
    if main(argv) != 0:
        raise RuntimeError(f"realize-set failed on case {name}")
    return {n: pathlib.Path(p).read_bytes() for n, p in zip(names, paths)}


@pytest.mark.parametrize("name", sorted(CASES))
def test_outputs_match_golden_and_audit(name, tmp_path, capsys):
    got = run_cli(name, tmp_path)
    for fname, data in got.items():
        assert data == (GOLDEN / name / fname).read_bytes(), f"{name}/{fname} differs"

    raw_f, raw_g, params = CASES[name]
    fq, _ = quantize(raw_f, params)
    gq, _ = quantize(raw_g, params)
    _, summary = reconstruct(fq, gq, params)
    assert trace_lines(summary).encode() == got["trace.jsonl"]
    assert audit_trace(summary, fq, gq, params).ok


def test_golden_cases_exercise_swaps():
    traces = [(GOLDEN / n / "trace.jsonl").read_text() for n in CASES]
    assert sum(1 for t in traces if t) >= 10


if __name__ == "__main__":
    import tempfile

    for case in sorted(CASES):
        with tempfile.TemporaryDirectory() as tmp:
            outputs = run_cli(case, pathlib.Path(tmp))
        target = GOLDEN / case
        target.mkdir(parents=True, exist_ok=True)
        for fname, data in outputs.items():
            (target / fname).write_bytes(data)
        print(f"wrote {target}", file=sys.stderr)
