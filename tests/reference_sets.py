"""The tuple-grid set code that the row form of crosscut.gridset.DyadicSet
replaced, kept as the reference for it.

A set is (params, fill): fill[i][j] sub-units of content in the cell at
band i (bottom-up), column j (left to right), a tuple of 2**N tuples of
2**N ints.

reference_check is DyadicSet's per-cell check of such a grid.
reference_set_to_image writes the grid cell by cell through a gray-level
table, and reference_set_from_image reads an image as one list of all its
tokens, converts and range-checks every sample, and maps each through a
table back to a fill; both carry their own copies of the netpbm text
format and the gray-level maps, for K <= 15.  reference_vertical_section
reads each cell column as the staircase of crosscut.columns, and
reference_horizontal_section sums each band row; both build the
StepFunction with the checked public constructor.
"""

from __future__ import annotations

from crosscut.dyadic import ONE, Dyadic
from crosscut.gridset import GridParams
from crosscut.stepfn import StepFunction


def reference_check(params: GridParams, fill) -> None:
    """ValueError unless fill is a side x side grid of ints in 0..2**K."""
    side, cap = params.side, params.sub_per_cell
    if len(fill) != side:
        raise ValueError("fill grid has wrong number of bands")
    for row in fill:
        if len(row) != side:
            raise ValueError("fill grid has wrong number of columns")
        for w in row:
            if not isinstance(w, int) or not 0 <= w <= cap:
                raise ValueError(f"cell fill {w} outside 0..{cap}")


def _maxval(cap: int) -> int:
    return max(255, cap)


def _pixel(w: int, cap: int) -> int:
    top = _maxval(cap)
    return (2 * top * w + cap) // (2 * cap)


def _fill(p: int, cap: int) -> int:
    top = _maxval(cap)
    return (2 * p * cap + top) // (2 * top)


def _text(magic: str, rows, header: tuple[str, ...], comments) -> str:
    rows = [list(r) for r in rows]
    size = f"{len(rows[0]) if rows else 0} {len(rows)}"
    lines = [magic, *(f"# {c}" for c in comments), size, *header]
    lines.extend(" ".join(map(str, r)) for r in rows)
    return "\n".join(lines) + "\n"


def reference_set_to_image(params: GridParams, fill) -> str:
    """PBM of a K=0 set, else PGM of gray levels, with a 'K=<k>' comment;
    image rows run top-down, band 0 at the bottom."""
    cap = params.sub_per_cell
    comment = f"K={params.subres}"
    if params.subres == 0:
        return _text("P1", reversed(fill), (), [comment])
    pixel = [_pixel(w, cap) for w in range(cap + 1)]
    pixels = [[pixel[w] for w in row] for row in reversed(fill)]
    return _text("P2", pixels, (str(_maxval(cap)),), [comment])


def _read(text: str):
    tokens: list[str] = []
    comments: list[str] = []
    for line in text.splitlines():
        if "#" in line:
            line, _, comment = line.partition("#")
            comments.append(comment.strip())
        tokens.extend(line.split())
    if not tokens:
        raise ValueError("empty image file")
    magic = tokens[0]
    if magic == "P1":
        header_len = 3
        maxval = 1
    elif magic == "P2":
        header_len = 4
    else:
        raise ValueError(f"unsupported netpbm format {magic!r}")
    try:
        width, height = int(tokens[1]), int(tokens[2])
        if magic == "P2":
            maxval = int(tokens[3])
        values = [int(t) for t in tokens[header_len:]]
    except (IndexError, ValueError) as exc:
        raise ValueError(f"malformed {magic} file: {exc}") from exc
    if len(values) != width * height:
        raise ValueError(f"expected {width * height} samples, found {len(values)}")
    if any(v < 0 or v > maxval for v in values):
        raise ValueError("sample outside 0..maxval")
    rows = [values[i * width : (i + 1) * width] for i in range(height)]
    return magic, width, height, maxval, rows, comments


def reference_set_from_image(text: str, override_subres=None):
    """(params, fill) of an image, with the errors of the tuple-grid
    reader in its order; override_subres replaces the K comment."""
    magic, width, height, maxval, rows, comments = _read(text)
    if width != height or width & (width - 1) or width < 2:
        raise ValueError("image must be square with a power-of-two side >= 2")
    depth = width.bit_length() - 1
    subres = None
    for c in comments:
        if c.startswith("K="):
            subres = int(c[2:])
    if override_subres is not None:
        subres = override_subres
    if magic == "P1":
        params = GridParams(depth, 0 if subres is None else subres)
        fill_of = (0, params.sub_per_cell)
    else:
        if subres is None:
            raise ValueError("PGM lacks a 'K=' comment; pass -K to supply the sub-resolution")
        params = GridParams(depth, subres)
        cap = params.sub_per_cell
        if maxval != _maxval(cap):
            raise ValueError(f"expected a PGM with maxval {_maxval(cap)} for K={subres}")
        fill_of = [_fill(x, cap) for x in range(maxval + 1)]
    fill = tuple(tuple(fill_of[p] for p in row) for row in reversed(rows))
    reference_check(params, fill)
    return params, fill


def reference_vertical_section(params: GridParams, fill) -> StepFunction:
    """v_E(x): per cell column, its full count plus the number of its
    partial widths above each sub-column."""
    subs = params.sub_per_cell
    starts, heights = [], []
    base = 0
    for col in zip(*fill):
        widths = sorted(w for w in col if 0 < w < subs)
        h, at = col.count(subs) + len(widths), 0
        for w in (*widths, subs):
            if w > at and (not heights or heights[-1] != h):
                starts.append(base + at)
                heights.append(h)
            h, at = h - 1, w
        base += subs
    exp = params.depth + params.subres
    return StepFunction(
        (*(Dyadic(m, exp) for m in starts), ONE), tuple(Dyadic(h, params.depth) for h in heights)
    )


def reference_horizontal_section(params: GridParams, fill) -> StepFunction:
    """h_E(y): each band row's sum, with only the changes kept."""
    exp = params.depth
    units = [sum(row) for row in fill]
    keep = [i for i in range(len(units)) if not i or units[i] != units[i - 1]]
    return StepFunction(
        (*(Dyadic(i, exp) for i in keep), ONE),
        tuple(Dyadic(units[i], params.depth + params.subres) for i in keep),
    )
