"""Plain PBM/PGM text round trips."""

import pytest

from crosscut.netpbm import (
    fill_from_pixel,
    pixel_from_fill,
    read_netpbm,
    write_pbm,
    write_pgm,
)


def test_pbm_round_trip():
    bits = [[1, 0, 1], [0, 1, 1]]
    text = write_pbm(bits, comments=["K=0"])
    magic, w, h, maxval, rows, comments = read_netpbm(text)
    assert (magic, w, h, maxval) == ("P1", 3, 2, 1)
    assert rows == bits
    assert comments == ["K=0"]


def test_pgm_round_trip():
    pixels = [[0, 128], [255, 7]]
    text = write_pgm(pixels, comments=["K=3"])
    magic, w, h, maxval, rows, comments = read_netpbm(text)
    assert (magic, w, h, maxval) == ("P2", 2, 2, 255)
    assert rows == pixels
    assert comments == ["K=3"]


def test_read_rejects_bad_input():
    with pytest.raises(ValueError):
        read_netpbm("P5\n1 1\n255\n")
    with pytest.raises(ValueError):
        read_netpbm("P2\n2 2\n255\n0 0 0\n")  # missing a sample
    with pytest.raises(ValueError):
        read_netpbm("P2\n1 1\n255\n999\n")  # above maxval
    with pytest.raises(ValueError):
        read_netpbm("")


def test_write_is_deterministic():
    pixels = [[3, 1], [4, 1]]
    assert write_pgm(pixels) == write_pgm(pixels)


def test_pixel_mapping_is_lossless_up_to_k7():
    for k in range(8):
        cap = 1 << k
        for w in range(cap + 1):
            assert fill_from_pixel(pixel_from_fill(w, cap), cap) == w
