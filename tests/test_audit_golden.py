"""Golden audit outcomes: what audit_trace says about fixed traces and
about altered copies of them must stay the same.

The cases are sixty seeded rand_feasible_pair instances at N <= 4, K <= 3
and the three families of scripts/residual_sweep.py at N=6, K=4.  Each
case's summary and its bare records are audited as they are, and so is a
fixed list of alterations: one record's gen, band, donor or receiver
shifted by -1 and +1, its l1_drop or sym_diff raised by 2**-9, the record
dropped or duplicated, the records shuffled, its gen set to 0, and an
extra record appended at generation N or N+1 (each of these on the bare
records and on the summary), plus, on the summary only, one generation's
swap_count raised by 1, each generation record dropped in turn and the
last swap removed.  An outcome is stored as [ok, violation, record_index],
or as {"malformed": <text>} when audit_trace raises MalformedTrace.

To rewrite the stored outcomes after a deliberate behaviour change:
    PYTHONPATH=src python tests/test_audit_golden.py
"""

from __future__ import annotations

import importlib.util
import json
import pathlib
import random
from dataclasses import replace
from fractions import Fraction

import pytest

from conftest import rand_feasible_pair
from crosscut import GridParams, MalformedTrace, SwapRecord, audit_trace, reconstruct
from crosscut.dyadic import Dyadic
from crosscut.gridset import ReplayState
from crosscut.ingest import quantize

HERE = pathlib.Path(__file__).resolve().parent
GOLDEN = HERE / "golden" / "audit_outcomes.json"
SWEEP = HERE.parent / "scripts" / "residual_sweep.py"
EPS = Dyadic(1, 9)


def _sweep_module():
    spec = importlib.util.spec_from_file_location("residual_sweep", SWEEP)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def _ramp(n: int):
    """The 2**n-step ramp of scripts/residual_sweep.py, quantized at depth
    n and K=4, with its grid."""
    params = GridParams(n, 4)
    return quantize(_sweep_module().ramp(1 << n), params)[0], params


def cases() -> dict:
    """name -> (f, g, GridParams), both marginals already on the grid."""
    sweep = _sweep_module()
    params = GridParams(6, 4)
    out = {}
    for name, raw_f, raw_g in (
        ("sweep_flat", sweep.flat(Fraction(1, 3)), sweep.flat(Fraction(1, 3))),
        ("sweep_ramp", sweep.ramp(), sweep.ramp()),
        ("sweep_two_level", sweep.two_level(), sweep.flat(Fraction(5, 16))),
    ):
        out[name] = (quantize(raw_f, params)[0], quantize(raw_g, params)[0], params)
    for seed in range(60):
        rng = random.Random(9100 + seed)
        params = GridParams(rng.randint(1, 4), rng.randint(0, 3))
        f, g = rand_feasible_pair(rng, params)
        out[f"rand_{seed:02d}"] = (f, g, params)
    return out


CASES = cases()


def traces(name: str) -> dict:
    """Mutation name -> the TraceSummary or record tuple to audit."""
    f, g, params = CASES[name]
    _, summary = reconstruct(f, g, params)
    rng = random.Random(name)
    recs = summary.swaps
    out = {"summary": summary, "records": recs}

    def both(label, records):
        out[label] = records
        out[label + "@summary"] = replace(summary, swaps=records)

    if recs:
        i = rng.randrange(len(recs))
        r = recs[i]

        def at_i(new):
            return recs[:i] + (new,) + recs[i + 1 :]

        for field in ("gen", "band", "donor", "receiver"):
            for step in (-1, 1):
                both(f"{field}{step:+d}", at_i(replace(r, **{field: getattr(r, field) + step})))
        both("l1_drop+eps", at_i(replace(r, l1_drop=r.l1_drop + EPS)))
        both("sym_diff+eps", at_i(replace(r, sym_diff=r.sym_diff + EPS)))
        both("dropped", recs[:i] + recs[i + 1 :])
        both("duplicated", recs[: i + 1] + recs[i:])
        shuffled = list(recs)
        rng.shuffle(shuffled)
        both("shuffled", tuple(shuffled))
        both("gen=0", at_i(replace(r, gen=0)))
        out["last_swap_removed@summary"] = replace(summary, swaps=recs[:-1])
    n = params.depth
    both("extra_at_N", recs + (SwapRecord(n, 1, 1, 2, EPS, EPS),))
    both("extra_at_N+1", recs + (SwapRecord(n + 1, 1, 1, 2, EPS, EPS),))
    j = rng.randrange(n)
    gens = summary.generations
    bumped = replace(gens[j], swap_count=gens[j].swap_count + 1)
    out["swap_count+1@summary"] = replace(
        summary, generations=gens[:j] + (bumped,) + gens[j + 1 :]
    )
    for j in range(n):
        out[f"gen{j + 1}_dropped@summary"] = replace(summary, generations=gens[:j] + gens[j + 1 :])
    return out


def outcomes(name: str) -> dict:
    """"<case>/<mutation>" -> the audit outcome, JSON-ready."""
    f, g, params = CASES[name]
    out = {}
    for label, trace in traces(name).items():
        try:
            res = audit_trace(trace, f, g, params)
        except MalformedTrace as exc:
            out[f"{name}/{label}"] = {"malformed": str(exc)}
        else:
            out[f"{name}/{label}"] = [res.ok, res.violation, res.record_index]
    return out


def _dump(data: dict) -> str:
    body = ",\n".join(f" {json.dumps(k)}: {json.dumps(v)}" for k, v in sorted(data.items()))
    return "{\n" + body + "\n}\n"


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("name", sorted(CASES))
def test_audit_outcomes_match_golden(name, golden):
    got = outcomes(name)
    want = {k: v for k, v in golden.items() if k.split("/")[0] == name}
    assert got == want
    assert got[f"{name}/summary"] == [True, None, None]
    assert got[f"{name}/records"] == [True, None, None]


def test_golden_outcomes_cover_every_kind(golden):
    assert len(golden) >= 60 * 20
    values = list(golden.values())
    assert any(isinstance(v, dict) for v in values)
    failures = [v for v in values if isinstance(v, list) and not v[0]]
    assert any(v[2] is not None for v in failures)
    assert any(v[2] is None for v in failures)


def _cut_short():
    """The 64-step ramp at N=6, K=4, its full run, and the summary that
    replaying only the first 30 of its 61 swaps returns."""
    f, params = _ramp(6)
    _, full = reconstruct(f, f, params)
    cut = ReplayState.hypograph(params, f, f, full.swaps[:30]).sweep(full.feasibility)
    return f, params, full, cut


def test_a_run_cut_short_replays_to_a_worse_residual():
    _, _, full, cut = _cut_short()
    assert (len(full.swaps), str(full.final_residual)) == (61, "539/32768")
    assert (len(cut.swaps), str(cut.final_residual)) == (30, "971/32768")


@pytest.mark.xfail(
    strict=True,
    reason="audit_trace checks each recorded swap, not that each generation "
    "ran until no swappable move was left, so a run cut short passes",
)
def test_audit_rejects_a_run_cut_short():
    f, params, _, cut = _cut_short()
    assert not audit_trace(cut, f, f, params).ok


if __name__ == "__main__":
    import sys

    data = {}
    for case in sorted(CASES):
        data.update(outcomes(case))
    GOLDEN.write_text(_dump(data))
    print(f"wrote {GOLDEN} ({len(data)} outcomes)", file=sys.stderr)
