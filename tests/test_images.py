"""Set <-> image conversion: orientation, lossless fills, determinism."""

import random

import pytest

from conftest import rand_dyadic_set
from crosscut import GridParams, vertical_section
from crosscut.dyadic import Dyadic
from crosscut.gridset import DyadicSet, SwapMove, horizontal_section, swap
from crosscut.netpbm import fill_from_pixel, pixel_from_fill, set_from_image, set_to_image


def test_round_trip_is_identity_for_small_subres():
    rng = random.Random(1234)
    for k in range(17):
        for _ in range(6):
            params = GridParams(rng.randint(1, 4), k)
            e = rand_dyadic_set(rng, params)
            back = set_from_image(set_to_image(e))
            assert back == e


def test_pgm_maxval_must_match_k():
    e = DyadicSet(GridParams(1, 9), ((0, 512), (256, 1)))
    text = set_to_image(e)
    assert "\n512\n" in text
    with pytest.raises(ValueError):
        set_from_image(text.replace("\n512\n", "\n255\n"))
    with pytest.raises(ValueError):
        set_from_image("P2\n# K=3\n2 2\n8\n0 8 4 1\n")
    with pytest.raises(ValueError):
        set_to_image(DyadicSet(GridParams(1, 17), ((0, 0), (0, 0))))


def test_bottom_band_lands_on_the_last_image_row():
    params = GridParams(2, 0)
    fill = ((1, 1, 1, 1), (0, 0, 0, 0), (0, 0, 0, 0), (0, 0, 0, 0))
    text = set_to_image(DyadicSet(params, fill))
    rows = [ln for ln in text.splitlines() if ln and not ln.startswith(("P", "#"))]
    body = rows[1:]  # first remaining line is the dimensions
    assert body[-1] == "1 1 1 1"
    assert body[0] == "0 0 0 0"


def test_k_comment_restores_subresolution():
    params = GridParams(2, 3)
    e = DyadicSet(params, tuple(tuple(3 for _ in range(4)) for _ in range(4)))
    text = set_to_image(e)
    assert "# K=3" in text
    assert set_from_image(text).params == params
    # override wins over the comment
    assert set_from_image(text, override_subres=3).params == params


def test_rejects_non_square_and_odd_sizes():
    with pytest.raises(ValueError):
        set_from_image("P1\n2 4\n0 0\n0 0\n0 0\n0 0\n")
    with pytest.raises(ValueError):
        set_from_image("P1\n3 3\n0 0 0\n0 0 0\n0 0 0\n")


def test_image_write_is_deterministic():
    rng = random.Random(9)
    e = rand_dyadic_set(rng, GridParams(3, 2))
    assert set_to_image(e) == set_to_image(e)


# ---------------------------------------------------------------------------
# structural swap properties, for arbitrary (not necessarily swappable) moves


def test_swap_is_an_involution_and_preserves_rows():
    rng = random.Random(345)
    for _ in range(80):
        params = GridParams(rng.randint(1, 4), rng.randint(0, 3))
        e = rand_dyadic_set(rng, params)
        gen = rng.randint(1, params.depth)
        top = 1 << gen
        pair = rng.sample(range(1, top + 1), 2)
        move = SwapMove(gen, rng.randint(1, top), pair[0], pair[1])
        e2 = swap(e, move)
        assert swap(e2, move) == e
        assert horizontal_section(e2) == horizontal_section(e)
        assert e2.measure() == e.measure()
        assert vertical_section(e2).integral() == e.measure()
        # only the two touched column classes may change
        span = params.side >> gen
        touched = set()
        for cls in (move.donor, move.receiver):
            touched.update(range((cls - 1) * span, cls * span))
        for j in range(params.side):
            if j not in touched:
                col_a = [e.fill[i][j] for i in range(params.side)]
                col_b = [e2.fill[i][j] for i in range(params.side)]
                assert col_a == col_b


def test_pixel_quantization_rounds_to_nearest():
    assert pixel_from_fill(0, 8) == 0
    assert pixel_from_fill(8, 8) == 255
    assert pixel_from_fill(1, 8) == 32  # 255/8 = 31.875 rounds up
    assert pixel_from_fill(4, 8) == 128  # 127.5 rounds half up



def test_image_samples_are_the_per_cell_mappings():
    # a 16 x 16 grid holds every fill and every gray level up to K = 7,
    # so the lookup tables are read at each entry; beyond, a sample
    rng = random.Random(77)
    for k in range(17):
        cap = 1 << k
        top = max(255, cap)
        fills = [min(w, cap) for w in range(256)] if k < 8 else [rng.randint(0, cap) for _ in range(256)]
        grid = tuple(tuple(fills[r * 16 : (r + 1) * 16]) for r in range(16))
        text = set_to_image(DyadicSet(GridParams(4, k), grid))
        # after the magic, the K comment, the size and, for PGM, maxval
        samples = [int(t) for t in text.split()[6 if k else 5 :]]
        assert samples == [pixel_from_fill(w, cap) if k else w for row in reversed(grid) for w in row]
        if k:
            levels = list(range(256)) if k < 8 else [rng.randint(0, top) for _ in range(256)]
            body = "\n".join(" ".join(map(str, levels[r * 16 : (r + 1) * 16])) for r in range(16))
            back = set_from_image(f"P2\n# K={k}\n16 16\n{top}\n{body}\n")
            want = [fill_from_pixel(p, cap) for p in levels]
            assert [w for row in reversed(back.fill) for w in row] == want
