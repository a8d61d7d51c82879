"""The band scan grouped by block against the pairwise scan.

_Work._contained_pairs tests a band's blocks, not its (donor, receiver)
pairs.  PairwiseWork (tests/reference_search.py) keeps the scan that
tests every pair; the engine must yield the same pairs in the same order,
and so make the same moves, records and sets, on the deep ramps, on
random feasible pairs and on arbitrary sets whose rows have the
hypograph's shape.
"""

from __future__ import annotations

import random

import pytest

from conftest import rand_feasible_pair, rand_shaped_set
from crosscut import GridParams, gridset, reconstruct
from crosscut.gridset import _Work, initial_set, optimize_generation
from crosscut.ingest import quantize
from crosscut.matrices import _bits
from reference_search import PairwiseWork
from test_golden import _sweep_module
from test_search_reference import _targets


def _ramp(steps: int, depth: int):
    raw = _sweep_module().ramp(steps)
    params = GridParams(depth, 4)
    q = quantize(raw, params)[0]
    return q, q, params


def assert_same_as_pairwise(f, g, params) -> int:
    """Runs generations 1..N on the engine and on PairwiseWork from the
    hypograph of g; the moves, records, generation records, sets and
    sections must agree.  Returns the number of swaps."""
    fill = initial_set(g, params).fill
    fast, ref = _Work(params, fill, f), PairwiseWork(params, fill, f)
    swaps = 0
    for gen in range(1, params.depth + 1):
        got, want = [], []
        assert fast.run_generation(gen, got.append) == ref.run_generation(gen, want.append), gen
        assert got == want, f"generation {gen}"
        swaps += len(got)
    assert fast.to_set() == ref.to_set() and fast.vu == ref.vu
    return swaps


# the 2**N-step ramp at N=8 is the 256-step ramp at N=8; at N=9 they differ
@pytest.mark.parametrize("steps, depth, swaps", [(256, 8, 297), (256, 9, 586), (512, 9, 586)])
def test_ramps_match_pairwise(steps, depth, swaps):
    assert assert_same_as_pairwise(*_ramp(steps, depth)) == swaps


@pytest.mark.parametrize("chunk", range(4))
def test_random_pairs_match_pairwise(chunk):
    swaps = 0
    for seed in range(chunk * 40, chunk * 40 + 40):
        rng = random.Random(83_000 + seed)
        params = GridParams(rng.randint(1, 5), rng.randint(0, 3))
        swaps += assert_same_as_pairwise(*rand_feasible_pair(rng, params), params)
    assert swaps > 0


@pytest.mark.parametrize("seed", range(30))
def test_optimize_generation_matches_pairwise_on_arbitrary_sets(seed):
    rng = random.Random(89_000 + seed)
    params = GridParams(rng.randint(1, 4), rng.randint(1, 3))
    for e in [rand_shaped_set(rng, params) for _ in range(3)]:
        for f in _targets(rng, e):
            for gen in range(1, params.depth + 1):
                ref = PairwiseWork(params, e.fill, f)
                ref.run_generation(gen)
                assert optimize_generation(e, f, gen) == ref.to_set(), gen


def _classes(rng, top: int, disjoint: bool) -> tuple[int, int]:
    """Random donor and receiver class masks, bit c - 1 for class c;
    disjoint, as the search's are, or each a random subset."""
    if disjoint:
        side = [rng.randrange(3) for _ in range(top)]
        return tuple(sum(1 << c for c in range(top) if side[c] == s) for s in (0, 1))
    return tuple(sum(1 << (c - 1) for c in rng.sample(range(1, top + 1), rng.randint(0, top))) for _ in range(2))


@pytest.mark.parametrize("seed", range(30))
def test_band_scans_yield_the_pairwise_pairs_in_order(seed):
    # every band of every generation: the same pairs, donor-major,
    # receivers ascending, with disjoint masks, as the search's are, and
    # with masks that share classes, which no scan pairs with themselves
    rng = random.Random(97_000 + seed)
    params = GridParams(rng.randint(1, 4), rng.randint(1, 3))
    f = rand_feasible_pair(rng, params)[0]
    for e, disjoint in ((rand_shaped_set(rng, params), False), (rand_shaped_set(rng, params), True)):
        fast, ref = _Work(params, e.fill, f), PairwiseWork(params, e.fill, f)
        for gen in range(1, params.depth + 1):
            top = 1 << gen
            for band in range(1, top + 1):
                donors, receivers = _classes(rng, top, disjoint)
                got = list(fast._contained_pairs(gen, band, donors, receivers))
                assert got == list(ref._contained_pairs(gen, band, donors, receivers)), (gen, band)


def test_band_scans_test_each_distinct_block_pair_once_on_ramp_n9(monkeypatch):
    # a band scan tests each distinct donor block once against each
    # distinct receiver block, and merging the fitting groups costs what
    # it yields; at generation N it tests nothing per class.  The pairwise
    # scan made 4,042,633 tests at generation 9 alone.
    tests = [0]
    scans: list[list[int]] = []  # gen, donor blocks, receiver blocks, tests, pairs
    block_fits, contained_pairs = gridset._block_fits, _Work._contained_pairs

    def counted_fits(*masks):
        tests[0] += 1
        return block_fits(*masks)

    def counted_scan(self, gen, band, donors, receivers):
        span = self.side >> gen
        rows = range((band - 1) * span, band * span)
        low = (1 << span) - 1

        def blocks(classes):
            at = [c * span for c in _bits(classes)]
            return len({tuple((m[r] >> a) & low for m in (self.full, self.nonempty) for r in rows) for a in at})

        scan = [gen, blocks(donors), blocks(receivers), 0, 0]
        scans.append(scan)
        start = tests[0]
        for pair in contained_pairs(self, gen, band, donors, receivers):
            scan[4] += 1
            scan[3] = tests[0] - start
            yield pair
        scan[3] = tests[0] - start

    monkeypatch.setattr(gridset, "_block_fits", counted_fits)
    monkeypatch.setattr(_Work, "_contained_pairs", counted_scan)
    f, g, params = _ramp(256, 9)
    _, summary = reconstruct(f, g, params)
    assert len(summary.swaps) == 586
    for gen, donor_blocks, receiver_blocks, made, pairs in scans:
        assert made <= donor_blocks * receiver_blocks + pairs, (gen, donor_blocks, receiver_blocks, made, pairs)
    last = [made for gen, *_, made, _ in scans if gen == params.depth]
    assert len(last) > 500 and not any(last)
    print(len(last), len(scans), sum(made for *_, made, _ in scans), sum(d * r for _, d, r, *_ in scans), max(s[1]*s[2] for s in scans))
    assert 0 < sum(made for *_, made, _ in scans) < 20_000
