"""Residuals, trace serialization, and the replay audit."""

import random
from dataclasses import replace

import pytest

from conftest import rand_feasible_pair
from crosscut import (
    GridParams,
    MalformedTrace,
    StepFunction,
    SwapRecord,
    audit_trace,
    reconstruct,
    vertical_section,
)
from crosscut.dyadic import Dyadic
from crosscut.gridset import initial_set
from crosscut.report import parse_trace, render_text, summary_dict, trace_lines
from crosscut.stepfn import l1_distance

D = Dyadic


def ramp(depth: int) -> StepFunction:
    cells = 1 << depth
    return StepFunction.from_grid(
        [D(2 * cells - 1 - 2 * j, depth + 2) for j in range(cells)], depth
    )


def run_fixture():
    f = ramp(3)
    params = GridParams(3, 2)
    return f, params, reconstruct(f, f, params)


# ---------------------------------------------------------------------------
# residual


def test_residual_zero_on_exact_realization():
    one = StepFunction.constant(1)
    e = initial_set(one, GridParams(2, 1))
    assert l1_distance(vertical_section(e), one) == D(0)


def test_residual_of_hypograph_is_distance_to_distribution():
    # the starting set's vertical section is the distribution function of
    # g, so the residual is the direct integral of |f - lambda_g|
    from fractions import Fraction

    from conftest import fn_as_fracs, oracle_distribution

    f = ramp(3)
    params = GridParams(3, 2)
    e0 = initial_set(f, params)
    triples = fn_as_fracs(f)
    sub = params.sub_total
    expected = Fraction(0)
    for m in range(sub):
        x = Fraction(m, sub)
        fx = next(v for lo, hi, v in triples if lo <= x < hi)
        expected += abs(fx - oracle_distribution(triples, x)) * Fraction(1, sub)
    assert l1_distance(vertical_section(e0), f).to_fraction() == expected
    assert expected > 0


# ---------------------------------------------------------------------------
# trace round trip


def test_trace_lines_parse_back():
    f, params, (e, summary) = run_fixture()
    text = trace_lines(summary)
    assert parse_trace(text) == summary.swaps
    assert parse_trace("") == ()


def test_parse_trace_rejects_garbage():
    with pytest.raises(MalformedTrace):
        parse_trace("not json\n")
    with pytest.raises(MalformedTrace):
        parse_trace('{"gen": 1}\n')


GOOD_LINE = '{"band": 1, "donor": 1, "gen": 1, "l1_drop": "1/4", "receiver": 2, "sym_diff": "1/4"}'


def test_parse_trace_rejects_non_integer_indices():
    # a float, a bool and a string used to pass through int()
    bad = GOOD_LINE.replace('"gen": 1', '"gen": 1.9').replace('"band": 1', '"band": true')
    bad = bad.replace('"donor": 1', '"donor": "2"')
    assert parse_trace(GOOD_LINE) == (SwapRecord(1, 1, 1, 2, D(1, 2), D(1, 2)),)
    for text in (bad, GOOD_LINE.replace('"receiver": 2', '"receiver": 2.0')):
        with pytest.raises(MalformedTrace, match="line 2: .*JSON integers"):
            parse_trace(GOOD_LINE + "\n" + text + "\n")


def test_parse_trace_rejects_numeric_exact_values():
    # a number used to escape as AttributeError from Dyadic.parse
    for text in (
        GOOD_LINE.replace('"1/4", "receiver"', '0.5, "receiver"'),
        GOOD_LINE.replace('"sym_diff": "1/4"', '"sym_diff": 1'),
    ):
        with pytest.raises(MalformedTrace, match="line 2: .*must be strings"):
            parse_trace(GOOD_LINE + "\n" + text + "\n")


def test_render_text_and_summary_dict():
    f, params, (e, summary) = run_fixture()
    text = render_text(summary)
    assert "final residual" in text and "generation 1" in text
    d = summary_dict(summary)
    assert d["feasibility"]["verdict"] == "feasible"
    assert d["swap_count"] == sum(g.swap_count for g in summary.generations)
    assert d["initial_residual"] == str(summary.initial_residual)


# ---------------------------------------------------------------------------
# audit


def test_audit_passes_on_fresh_runs():
    f, params, (e, summary) = run_fixture()
    result = audit_trace(summary, f, f, params)
    assert result.ok and result.violation is None


def test_audit_accepts_bare_record_sequences():
    f, params, (e, summary) = run_fixture()
    assert audit_trace(summary.swaps, f, f, params).ok


def test_audit_passes_on_empty_trace():
    one = StepFunction.constant(1)
    params = GridParams(2, 0)
    _, summary = reconstruct(one, one, params)
    assert summary.swaps == ()
    assert audit_trace(summary, one, one, params).ok


def test_audit_flags_corrupted_l1_drop():
    f, params, (e, summary) = run_fixture()
    assert summary.swaps, "fixture must execute at least one swap"
    idx = len(summary.swaps) // 2
    bad = replace(summary.swaps[idx], l1_drop=summary.swaps[idx].l1_drop + 1)
    records = summary.swaps[:idx] + (bad,) + summary.swaps[idx + 1 :]
    result = audit_trace(records, f, f, params)
    assert not result.ok
    assert result.record_index == idx
    assert "L1 drop" in result.violation


def test_audit_flags_corrupted_sym_diff():
    f, params, (e, summary) = run_fixture()
    bad = replace(summary.swaps[0], sym_diff=summary.swaps[0].sym_diff + D(1, 5))
    records = (bad,) + summary.swaps[1:]
    result = audit_trace(records, f, f, params)
    assert not result.ok and result.record_index == 0


def test_audit_flags_injected_foreign_move():
    # an arbitrary move on top of a finished run is almost never a legal swap
    f, params, (e, summary) = run_fixture()
    fake = SwapRecord(3, 1, 1, 2, D(0), D(0))
    result = audit_trace(summary.swaps + (fake,), f, f, params)
    assert not result.ok
    assert result.record_index == len(summary.swaps)


def test_audit_flags_corrupted_generation_aggregate():
    f, params, (e, summary) = run_fixture()
    firing = next(g for g in summary.generations if g.swap_count)
    bad_gen = replace(firing, swap_count=firing.swap_count + 1)
    gens = tuple(
        bad_gen if g.gen == firing.gen else g for g in summary.generations
    )
    result = audit_trace(replace(summary, generations=gens), f, f, params)
    assert not result.ok and "swap count" in result.violation


def test_audit_requires_every_generation_in_order():
    # the N=4 ramp swaps in generation 3; dropping its record, swapping two
    # records or listing one twice must all fail, with render_text then
    # disagreeing with the swap records
    f = ramp(4)
    params = GridParams(4, 4)
    _, summary = reconstruct(f, f, params)
    gens = summary.generations
    assert gens[2].swap_count == 2
    for altered in (
        gens[:2] + gens[3:],
        (gens[1], gens[0]) + gens[2:],
        gens[:1] + gens,
        gens + (gens[-1],),
    ):
        result = audit_trace(replace(summary, generations=altered), f, f, params)
        assert not result.ok
        assert result.violation == "generation list is not 1..4 in order"


def test_audit_rejects_malformed_generation_order():
    f = ramp(4)
    params = GridParams(4, 4)
    _, summary = reconstruct(f, f, params)
    gens = {r.gen for r in summary.swaps}
    assert len(gens) >= 2, "fixture must swap in two generations"
    records = (summary.swaps[-1], summary.swaps[0])
    assert records[0].gen > records[1].gen
    with pytest.raises(MalformedTrace):
        audit_trace(records, f, f, params)


def test_audit_rejects_generation_beyond_depth():
    f, params, (e, summary) = run_fixture()
    deep = SwapRecord(params.depth + 1, 1, 1, 2, D(0), D(0))
    with pytest.raises(MalformedTrace):
        audit_trace((deep,), f, f, params)


def test_audit_rejects_g_off_the_grid():
    # ramp(4) changes value every 1/16, between the 1/8 bands of N=3
    f, params, (e, summary) = run_fixture()
    with pytest.raises(MalformedTrace, match="cannot rebuild initial state"):
        audit_trace(summary, f, ramp(4), params)


def test_audit_does_not_relabel_engine_faults():
    f, params, _ = run_fixture()
    with pytest.raises(TypeError):
        audit_trace(None, f, f, params)


def test_trace_summary_rejects_inconsistent_aggregates():
    f, params, (e, summary) = run_fixture()
    firing = next(g for g in summary.generations if g.swap_count)
    worse = replace(firing, residual_l1=summary.initial_residual + 1)
    gens = tuple(worse if g.gen == firing.gen else g for g in summary.generations)
    with pytest.raises(ValueError):
        replace(summary, generations=gens)
    with pytest.raises(ValueError):
        replace(
            summary,
            generations=tuple(
                replace(g, sym_diff=g.sym_diff + 1) for g in summary.generations
            ),
        )


def test_audit_random_corpus():
    rng = random.Random(4242)
    for _ in range(10):
        params = GridParams(rng.randint(1, 3), rng.randint(0, 2))
        f, g = rand_feasible_pair(rng, params)
        _, summary = reconstruct(f, g, params)
        assert audit_trace(summary, f, g, params).ok
