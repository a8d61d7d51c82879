"""The engine's swap search against the scalar reference scan.

tests/reference_search.py keeps the cell-by-cell search on a cell grid
of its own.  The engine must make the same moves in the same order,
generation by generation, with the same exact records and the same set,
on hypograph starts and on arbitrary sets whose rows have the
hypograph's shape.
"""

from __future__ import annotations

import random

import pytest

from conftest import rand_feasible_pair, rand_shaped_set
from crosscut import DyadicSet, GridParams, StepFunction, reconstruct
from crosscut.dyadic import Dyadic
from crosscut.gridset import SwapMove, _Work, initial_set, is_swappable, optimize_generation
from crosscut.ingest import quantize
from reference_search import ReferenceWork, section_dominates
from test_golden import CASES


def assert_same_sweep(f, g, params):
    fill = initial_set(g, params).fill
    fast, ref = _Work(params, fill, f), ReferenceWork(params, fill, f)
    assert fast.dominated and section_dominates(ref, ref.vu)
    swaps = 0
    for gen in range(1, params.depth + 1):
        got, want = [], []
        gen_fast = fast.run_generation(gen, got.append)
        gen_ref = ref.run_generation(gen, want.append)
        assert got == want, f"generation {gen}"
        assert gen_fast == gen_ref, f"generation {gen}"
        assert fast.to_set() == ref.to_set() == ref.grid_set(), f"generation {gen}"
        assert fast.vu == ref.vu, f"generation {gen}"
        swaps += len(got)
    return swaps


@pytest.mark.parametrize("chunk", range(10))
def test_search_matches_reference_on_random_pairs(chunk):
    swaps = 0
    for seed in range(chunk * 21, chunk * 21 + 21):
        rng = random.Random(31_000 + seed)
        params = GridParams(rng.randint(1, 5), rng.randint(0, 3))
        f, g = rand_feasible_pair(rng, params)
        swaps += assert_same_sweep(f, g, params)
    assert swaps > 0


def _ramp7():
    raw_f, raw_g, params = CASES["sweep7_ramp"]
    return quantize(raw_f, params)[0], quantize(raw_g, params)[0], params


def test_search_matches_reference_on_ramp_n7():
    assert assert_same_sweep(*_ramp7()) == 138


def test_find_first_is_called_once_per_search(monkeypatch):
    # perfbench counts gridset.searches by wrapping _Work.find_first; a
    # search that bypassed it would read 0 there
    calls = []
    original = _Work.find_first

    def counted(self, gen):
        calls.append(gen)
        return original(self, gen)

    monkeypatch.setattr(_Work, "find_first", counted)
    f, g, params = _ramp7()
    _, summary = reconstruct(f, g, params)
    assert len(calls) == len(summary.swaps) + params.depth == 145


def _candidates(params):
    for gen in range(1, params.depth + 1):
        top = 1 << gen
        for band in range(1, top + 1):
            for j in range(1, top + 1):
                for k in range(1, top + 1):
                    if j != k:
                        yield SwapMove(gen, band, j, k)


def assert_same_predicates(e: DyadicSet, f: StepFunction):
    fast, ref = _Work(e.params, e.fill, f), ReferenceWork(e.params, e.fill, f)
    for move in _candidates(e.params):
        args = (move.gen, move.band, move.donor, move.receiver)
        assert fast._proper_subset(*args) == ref._proper_subset(*args), move
        assert fast.swappable(move) == ref.swappable(move), move
    assert fast.to_set() == ref.to_set() == ref.grid_set() and fast.vu == ref.vu
    if fast.dominated:
        for move in _candidates(e.params):
            assert is_swappable(e, f, move) == ref.swappable(move), move
    for gen in range(1, e.params.depth + 1):
        ref_gen = ReferenceWork(e.params, e.fill, f)
        ref_gen.run_generation(gen)
        assert optimize_generation(e, f, gen) == ref_gen.grid_set(), gen


def _targets(rng, e: DyadicSet):
    """A constant target the set's section dominates, and a random one."""
    p = e.params
    nk = p.depth + p.subres
    rand = StepFunction.from_grid(
        [Dyadic(rng.randrange((1 << nk) + 1), nk) for _ in range(p.side)], p.depth
    )
    return StepFunction.constant(e.measure()), rand


@pytest.mark.parametrize("seed", range(40))
def test_predicates_match_reference_on_arbitrary_sets(seed):
    rng = random.Random(47_000 + seed)
    params = GridParams(rng.randint(1, 3), rng.randint(1, 2))
    e = rand_shaped_set(rng, params)
    for f in _targets(rng, e):
        assert_same_predicates(e, f)

