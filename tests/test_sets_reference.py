"""DyadicSet, the set images and the sections against the tuple-grid code
in tests/reference_sets.py.

On seeded general sets, whose rows may hold several partial cells, at N
in 1..6 and K in {0, 1, 4, 7, 8, 9, 15}, and on the engine's own sets:
set_to_image must write the reference's bytes, set_from_image must read
back a set equal to the one written, with the reference's grid as its
fill and the same hash, and both sections must equal the reference's.
Images that set_to_image does not write, every gray level and other
layouts of the same samples, must read as the reference reads them, and
malformed ones must raise the reference's exception type and message.
"""

from __future__ import annotations

import random

import pytest

from crosscut.dyadic import Dyadic
from crosscut.gridset import DyadicSet, GridParams, horizontal_section, reconstruct, vertical_section
from crosscut.ingest import quantize
from crosscut.netpbm import set_from_image, set_to_image
from reference_sets import (
    reference_check,
    reference_horizontal_section,
    reference_set_from_image,
    reference_set_to_image,
    reference_vertical_section,
)

SUBRES = (0, 1, 4, 7, 8, 9, 15)


def _row(rng: random.Random, side: int, cap: int) -> tuple[int, ...]:
    style = rng.randrange(5)
    if style == 0:  # any fill in any cell: several partial cells
        return tuple(rng.randint(0, cap) for _ in range(side))
    if style == 1:  # full, empty and a few partial cells
        row = [rng.choice((0, cap)) for _ in range(side)]
        for _ in range(rng.randint(1, 3)):
            row[rng.randrange(side)] = rng.randint(1, max(1, cap - 1))
        return tuple(row)
    if style == 2:  # the hypograph's shape
        full = rng.randint(0, side)
        row = [cap] * full + ([rng.randint(1, cap - 1)] if full < side and cap > 1 else [])
        return tuple(row + [0] * (side - len(row)))
    return tuple([rng.choice((0, cap))] * side)  # all full or all empty


def _random_set(rng: random.Random, depth: int, subres: int):
    params = GridParams(depth, subres)
    side, cap = params.side, params.sub_per_cell
    return params, tuple(_row(rng, side, cap) for _ in range(side))


def _cases():
    rng = random.Random(2026)
    for depth in range(1, 7):
        for subres in SUBRES:
            for _ in range(3 if depth < 6 else 1):
                yield _random_set(rng, depth, subres)


def _outcome(read, *args):
    try:
        params, fill = read(*args)
    except Exception as exc:  # the type and the text are compared
        return type(exc), str(exc)
    return params, fill


def _new(text, override=None):
    e = set_from_image(text, override)
    return e.params, e.fill


def test_general_sets_write_read_and_cut_as_the_reference():
    count = partial_rows = 0
    for params, fill in _cases():
        reference_check(params, fill)
        e = DyadicSet(params, fill)
        assert e.fill == fill and e.params == params
        text = set_to_image(e)
        assert text == reference_set_to_image(params, fill)
        back = set_from_image(text)
        assert back == e and hash(back) == hash(e)
        assert back.fill == fill == reference_set_from_image(text)[1]
        v, h = vertical_section(back), horizontal_section(back)
        assert v == vertical_section(e) == reference_vertical_section(params, fill)
        assert h == horizontal_section(e) == reference_horizontal_section(params, fill)
        assert str(v) == str(reference_vertical_section(params, fill))
        total = sum(map(sum, fill))
        assert e.measure() == back.measure() == Dyadic(total, 2 * params.depth + params.subres)
        count += 1
        cap = params.sub_per_cell
        partial_rows += sum(sum(0 < w < cap for w in row) > 1 for row in fill)
    assert count == 5 * 3 * len(SUBRES) + len(SUBRES)
    assert partial_rows > 200  # rows of several partial cells are common


def test_equal_grids_give_equal_sets_and_hashes():
    rng = random.Random(5)
    for params, fill in _cases():
        e, same = DyadicSet(params, fill), DyadicSet(params, tuple(map(tuple, fill)))
        assert e == same and hash(e) == hash(same)
        # one cell changed is another set
        i, j = rng.randrange(params.side), rng.randrange(params.side)
        row = list(fill[i])
        row[j] = (row[j] + 1) % (params.sub_per_cell + 1)
        other = DyadicSet(params, fill[:i] + (tuple(row),) + fill[i + 1 :])
        assert other != e and other.fill != fill
        assert DyadicSet(GridParams(params.depth, params.subres + 1), fill) != e


def _ramp(steps: int, params: GridParams):
    from fractions import Fraction

    from crosscut.ingest import RawMarginal

    breaks = tuple(Fraction(j, steps) for j in range(steps))
    raw = RawMarginal(breaks, tuple((1 - (b + Fraction(1, steps) / 2)) / 2 for b in breaks))
    return quantize(raw, params)[0]


@pytest.mark.parametrize("depth,subres", [(4, 0), (5, 4), (6, 4), (5, 9), (4, 15)])
def test_engine_sets_write_read_and_cut_as_the_reference(depth, subres):
    params = GridParams(depth, subres)
    f = _ramp(1 << depth, params)
    e, _ = reconstruct(f, f, params)
    fill = e.fill
    reference_check(params, fill)
    text = set_to_image(e)
    assert text == reference_set_to_image(params, fill)
    back = set_from_image(text)
    assert back == e and hash(back) == hash(e) and back == DyadicSet(params, fill)
    assert back.fill == fill
    assert vertical_section(back) == vertical_section(e) == reference_vertical_section(params, fill)
    assert horizontal_section(back) == reference_horizontal_section(params, fill)


def _samples(rng: random.Random, subres: int, side: int):
    cap = 1 << subres
    top = 1 if subres == 0 else max(255, cap)
    return [[rng.randint(0, top) for _ in range(side)] for _ in range(side)], top


def test_every_gray_level_reads_as_the_reference():
    # images set_to_image never writes: any sample up to maxval, so each
    # gray level below K = 8 maps to its nearest fill
    rng = random.Random(31)
    for subres in SUBRES:
        for depth in (1, 3, 4):
            rows, top = _samples(rng, subres, 1 << depth)
            body = "\n".join(" ".join(map(str, r)) for r in rows)
            if subres == 0:
                text = f"P1\n{1 << depth} {1 << depth}\n{body}\n"
            else:
                text = f"P2\n# K={subres}\n{1 << depth} {1 << depth}\n{top}\n{body}\n"
            want = reference_set_from_image(text)
            assert _new(text) == want
            assert set_from_image(text) == DyadicSet(*want)
            # a PBM read at another K: its ones are full cells
            if subres == 0:
                for k in (3, 8):
                    assert _outcome(_new, text, k) == _outcome(reference_set_from_image, text, k)


def _layouts(rng: random.Random, magic: str, header: list[str], comments: list[str], samples: list[int]):
    """The same image in other layouts: all on one line, one token per
    line, random line breaks, comments between tokens, CRLF and tabs."""
    tokens = [magic, *header, *map(str, samples)]
    yield " ".join(tokens) + "\n"
    yield "\n".join(tokens)
    out = [tokens[0]]
    for c in comments:
        out.append(f"# {c}")
    line: list[str] = []
    for t in tokens[1:]:
        line.append(t)
        if rng.random() < 0.2:
            out.append(" ".join(line) + (f"  # note {len(out)}" if rng.random() < 0.3 else ""))
            line = []
        if rng.random() < 0.05:
            out.append("")
    out.append(" ".join(line))
    yield "\n".join(out) + "\n"
    yield "\r\n".join(out) + "\r\n"
    yield "\n".join(o.replace(" ", "\t ") for o in out)
    # a comment in the middle of a sample line
    mid = len(tokens) // 2
    yield f"{' '.join(tokens[:mid])} # {' '.join(comments)}\n{' '.join(tokens[mid:])}\n"


def test_other_layouts_read_as_the_reference():
    rng = random.Random(47)
    seen = 0
    for subres in (0, 2, 7, 9, 15):
        for depth in (1, 2, 3):
            side = 1 << depth
            rows, top = _samples(rng, subres, side)
            samples = [s for r in rows for s in r]
            if subres == 0:
                magic, header, comments = "P1", [str(side), str(side)], ["K=0"]
            else:
                magic, header, comments = "P2", [str(side), str(side), str(top)], [f"K={subres}"]
            for text in _layouts(rng, magic, header, comments, samples):
                for override in (None, subres):
                    got = _outcome(_new, text, override)
                    assert got == _outcome(reference_set_from_image, text, override)
                seen += 1
    assert seen == 5 * 3 * 6


MALFORMED = [
    "",
    "# only a comment\n",
    "\n\n",
    "P5\n2 2\n255\n0 0 0 0\n",
    "P3\n2 2\n255\n0 0 0 0\n",
    "p2\n# K=1\n2 2\n255\n0 0 0 0\n",
    "P2\n",
    "P2\n2\n",
    "P2\n2 2\n",
    "P1\n2\n",
    "P1 2\n",
    "P2\n# K=1\n2 2\n255\n0 0 0\n",  # a sample short
    "P2\n# K=1\n2 2\n255\n0 0 0 0 0\n",  # a sample over
    "P1\n2 2\n0 1 1\n",
    "P1\n2 2\n0 1 1 0\n1\n",
    "P2\n# K=1\n2 2\n255\n0 0 256 0\n",  # above maxval
    "P2\n# K=1\n2 2\n255\n0 -1 0 0\n",  # below 0
    "P1\n2 2\n0 2 1 0\n",
    "P2\n# K=9\n2 2\n512\n0 513 0 0\n",
    "P2\n# K=1\n2 2\n255\n0 x 0 0\n",  # not an int
    "P2\n# K=1\n2 2\n255\n0 1.5 0 0\n",
    "P2\n# K=1\nx 2\n255\n0 0 0 0\n",
    "P2\n# K=1\n2 2\nmax\n0 0 0 0\n",
    "P1\n2 2\n0 0 0 0x1\n",
    "P2\n# K=1\n2 2\n255\n0 x 0\n",  # not an int and a sample short
    "P2\n# K=1\n2 2\n255\n0 999 0\n",  # above maxval and a sample short
    "P2\n# K=1\n2 4\n255\n0 0\n0 0\n0 0\n0 999\n",  # not square and above maxval
    "P1\n2 4\n0 0\n0 0\n0 0\n0 0\n",  # not square
    "P1\n4 2\n0 0 0 0\n0 0 0 0\n",
    "P1\n3 3\n0 0 0\n0 0 0\n0 0 0\n",  # not a power of two
    "P1\n1 1\n1\n",  # side 1
    "P1\n0 0\n",
    "P2\n2 2\n255\n0 0 0 0\n",  # no K comment
    "P2\n# K=3\n2 2\n8\n0 8 4 1\n",  # wrong maxval
    "P2\n# K=3\n2 2\n256\n0 8 4 1\n",
    "P2\n# K=9\n2 2\n255\n0 8 4 1\n",
    "P2\n# K=8\n2 2\n255\n0 8 4 1\n",
    "P2\n# K=x\n2 2\n255\n0 0 0 0\n",  # K not an int
    "P2\n# K=\n2 2\n255\n0 0 0 0\n",
    "P2\n# K=-1\n2 2\n255\n0 0 0 0\n",  # K out of range
    "P2\n# K=40\n2 2\n255\n0 0 0 0\n",
    "P1\n# K=40\n2 2\n0 0 0 0\n",
    "P1\n# K=x\n2 2\n0 0 0 0\n",
    "P1\n# K=1\n2 2\n0 0 0 0\n# K=2\n",  # the last K comment wins
    "P2\n# K=2\n2 2\n255\n0 # K=1\n255 64\n0\n",  # comments between samples
    "P2\n# K=1\n2 2 255 0 255 128 127\n",  # samples on the header line
    "P2\n# K=1\n2 2\n255\n0\n255\n128\n127\n",  # one sample a line
    "P2 # K=1\n2 2\n255\n\n\n0 255\n\n128 127\n\n",
    "P2\r\n# K=1\r\n2 2\r\n255\r\n0 255\r\n128 127\r\n",
    "P1\n# K=0\n4 4\n0101\n1 0 1 0\n0 1 0 1\n1 0 1 0\n",  # digits run together
    "P2\n# K=1\n2 2\n255\n0 0255 +3 0\n",  # samples int() reads, spelled otherwise
    "P2\n# K=9\n2 2\n512\n0 0512 +3 0\n",
    "P2\n# K=9\n2 2\n512\n0 512\n-0 256\n",
    "P1\n2 2\n00 1\n1 0\n",
]


@pytest.mark.parametrize("text", MALFORMED)
def test_malformed_and_unusual_images_read_as_the_reference(text):
    for override in (None, 0, 1, 8):
        assert _outcome(_new, text, override) == _outcome(reference_set_from_image, text, override)
