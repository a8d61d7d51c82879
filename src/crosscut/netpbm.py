"""Plain-text netpbm reading and writing (PBM P1 and PGM P2), and the
image form of a DyadicSet.

Text variants are used on purpose: outputs are byte-stable and diffable
in tests.  Comments written directly after the magic number survive a
round trip, which lets image files carry their own grid metadata.
"""

from __future__ import annotations

from .gridset import DyadicSet, GridParams


def write_pbm(bits, comments=()) -> str:
    """P1 image from rows of 0/1 ints; 1 renders black."""
    rows = [list(r) for r in bits]
    height = len(rows)
    width = len(rows[0]) if rows else 0
    lines = ["P1"]
    lines.extend(f"# {c}" for c in comments)
    lines.append(f"{width} {height}")
    for r in rows:
        lines.append(" ".join(str(int(b)) for b in r))
    return "\n".join(lines) + "\n"


def write_pgm(pixels, maxval: int = 255, comments=()) -> str:
    """P2 image from rows of ints in [0, maxval]."""
    rows = [list(r) for r in pixels]
    height = len(rows)
    width = len(rows[0]) if rows else 0
    lines = ["P2"]
    lines.extend(f"# {c}" for c in comments)
    lines.append(f"{width} {height}")
    lines.append(str(maxval))
    for r in rows:
        lines.append(" ".join(str(int(p)) for p in r))
    return "\n".join(lines) + "\n"


def _tokens_and_comments(text: str):
    tokens: list[str] = []
    comments: list[str] = []
    for line in text.splitlines():
        if "#" in line:
            line, _, comment = line.partition("#")
            comments.append(comment.strip())
        tokens.extend(line.split())
    return tokens, comments


def read_netpbm(text: str):
    """Parse P1 or P2 text into (magic, width, height, maxval, rows, comments).

    maxval is 1 for P1.  Raises ValueError on anything else.
    """
    tokens, comments = _tokens_and_comments(text)
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
        raise ValueError(
            f"expected {width * height} samples, found {len(values)}"
        )
    if any(v < 0 or v > maxval for v in values):
        raise ValueError("sample outside 0..maxval")
    rows = [values[i * width : (i + 1) * width] for i in range(height)]
    return magic, width, height, maxval, rows, comments


MAX_IMAGE_SUBRES = 16  # netpbm samples go up to maxval 65535


def image_maxval(cap: int) -> int:
    """PGM maxval of a set image with cells of cap sub-units: 255 up to
    K = 7, and cap itself from K = 8 on, so that pixels are the fills."""
    if cap > 1 << MAX_IMAGE_SUBRES:
        raise ValueError(f"set images hold K <= {MAX_IMAGE_SUBRES} only")
    return max(255, cap)


def pixel_from_fill(w: int, cap: int) -> int:
    """Gray level of a cell holding w of cap sub-units."""
    # round(maxval * w / cap); w >= 0, so halves round up
    top = image_maxval(cap)
    return (2 * top * w + cap) // (2 * cap)


def fill_from_pixel(p: int, cap: int) -> int:
    """Nearest cell fill for gray level p; inverts pixel_from_fill for K <= 16."""
    top = image_maxval(cap)
    return (2 * p * cap + top) // (2 * top)


def set_to_image(e: DyadicSet) -> str:
    """PBM of a K=0 set, else PGM of gray levels, with a 'K=<k>' comment;
    lossless for K <= 16, ValueError beyond."""
    cap = e.params.sub_per_cell
    side = e.params.side
    comment = f"K={e.params.subres}"
    # image rows run top-down; band 0 sits at the bottom of the square
    if e.params.subres == 0:
        bits = [
            [e.fill[side - 1 - r][c] for c in range(side)] for r in range(side)
        ]
        return write_pbm(bits, comments=[comment])
    pixels = [
        [pixel_from_fill(e.fill[side - 1 - r][c], cap) for c in range(side)]
        for r in range(side)
    ]
    return write_pgm(pixels, maxval=image_maxval(cap), comments=[comment])


def set_from_image(text: str, override_subres=None) -> DyadicSet:
    """Set read back from set_to_image output; override_subres replaces
    the K comment, which a PGM without one needs."""
    magic, width, height, maxval, rows, comments = read_netpbm(text)
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
        if subres is None:
            subres = 0
        params = GridParams(depth, subres)
        cap = params.sub_per_cell
        fill = tuple(
            tuple(cap * rows[height - 1 - i][j] for j in range(width))
            for i in range(height)
        )
        return DyadicSet(params, fill)
    if subres is None:
        raise ValueError(
            "PGM lacks a 'K=' comment; pass -K to supply the sub-resolution"
        )
    params = GridParams(depth, subres)
    cap = params.sub_per_cell
    if maxval != image_maxval(cap):
        raise ValueError(f"expected a PGM with maxval {image_maxval(cap)} for K={subres}")
    fill = tuple(
        tuple(fill_from_pixel(rows[height - 1 - i][j], cap) for j in range(width))
        for i in range(height)
    )
    return DyadicSet(params, fill)
