"""Plain-text netpbm reading and writing (PBM P1 and PGM P2), and the
image form of a DyadicSet.

Text variants are used on purpose: outputs are byte-stable and diffable
in tests.  Comments written directly after the magic number survive a
round trip, which lets image files carry their own grid metadata.

A set image goes to and from the set's rows (gridset.DyadicSet) one
image line at a time, with no grid of cells between: the writer maps a
row's full-mask digits to pixel tokens and patches its partial pixels
in, and the reader turns each line's samples into the row's full and
nonempty masks by comparing them with the least gray level of a full
and of a nonempty cell, then reads the fills of its partial cells.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import chain

from .gridset import DyadicSet, GridParams
from .matrices import _bits, _digits, _mask

MAX_IMAGE_SUBRES = 15  # a cell of 2**K sub-units has 2**K + 1 levels; PGM maxval < 65536
MAX_PGM_MAXVAL = 65535


def _write(magic: str, samples, header: tuple[str, ...], comments) -> str:
    """The text image: magic number, comments, size, the header lines
    after it, then one line of samples per row.  A row is a sequence of
    ints or its line of text, the samples separated by single spaces.
    The last, empty line gives the final newline without a second copy
    of the text."""
    lines = [r if isinstance(r, str) else " ".join(map(str, map(int, r))) for r in samples]
    size = f"{lines[0].count(' ') + 1 if lines and lines[0] else 0} {len(lines)}"
    return "\n".join([magic, *(f"# {c}" for c in comments), size, *header, *lines, ""])


def write_pbm(bits, comments=()) -> str:
    """P1 image from rows of 0/1 ints (or their text lines); 1 renders black."""
    return _write("P1", bits, (), comments)


def write_pgm(pixels, maxval: int = 255, comments=()) -> str:
    """P2 image from rows of ints in [0, maxval] (or their text lines)."""
    return _write("P2", pixels, (str(maxval),), comments)


def _parse(text: str):
    """(magic, width, height, maxval, comments, rows) of P1 or P2 text.

    The header and the comments are read at once, and rows is a generator
    of the image rows, top-down, each its samples as bytes or as a list
    of ints, converted line by line (_rows).  Errors are raised in this
    order: an empty file, an unknown magic number, a malformed header,
    each when met; a token that is not an int, when its line is read;
    then, once the lines are read, a wrong sample count and last a sample
    outside 0..maxval.  Rows stop at the first line holding such a
    sample."""
    lines = text.splitlines()
    comments: list[str] = []
    for i, line in enumerate(lines):
        if "#" in line:
            lines[i], _, comment = line.partition("#")
            comments.append(comment.strip())
    head: list[str] = []
    at = 0
    while len(head) < 4 and at < len(lines):
        head += lines[at].split()
        at += 1
    if not head:
        raise ValueError("empty image file")
    magic = head[0]
    if magic == "P1":
        header_len = 3
        maxval = 1
    elif magic == "P2":
        header_len = 4
    else:
        raise ValueError(f"unsupported netpbm format {magic!r}")
    try:
        width, height = int(head[1]), int(head[2])
        if magic == "P2":
            maxval = int(head[3])
    except (IndexError, ValueError) as exc:
        raise ValueError(f"malformed {magic} file: {exc}") from exc
    words = chain((head[header_len:],), map(str.split, lines[at:]))
    return magic, width, height, maxval, comments, _rows(words, magic, width, height, maxval)


@lru_cache(maxsize=16)
def _spellings(maxval: int) -> dict[str, int]:
    """The samples 0..maxval by their decimal digits, as the writers spell
    them."""
    return {str(v): v for v in range(maxval + 1)}


def _rows(words, magic: str, width: int, height: int, maxval: int):
    """The image rows of the sample words, line by line (_parse).  A line
    spelled as the writers spell samples is read through a table, each
    sample in range by construction, into bytes below maxval 256; any
    other line is read by int() and range-checked with one min and max.
    A line of width samples is a row when no samples are pending from
    lines before; other layouts are cut into rows of width samples."""
    spelled = (_spellings(maxval) if 0 <= maxval <= MAX_PGM_MAXVAL else {}).__getitem__
    pack = bytes if maxval < 256 else list
    count, clean = 0, True
    pending: list[int] = []
    for line in words:
        try:
            values = pack(map(spelled, line))
        except KeyError:
            try:
                values = [*map(int, line)]
            except ValueError as exc:
                raise ValueError(f"malformed {magic} file: {exc}") from exc
            clean = clean and min(values) >= 0 and max(values) <= maxval
        count += len(values)
        if not (clean and values):
            continue
        if not pending and len(values) == width:
            yield values
        elif width > 0:
            pending += values
            cut = len(pending) - len(pending) % width
            for i in range(0, cut, width):
                yield pending[i : i + width]
            del pending[:cut]
    if count != width * height:
        raise ValueError(f"expected {width * height} samples, found {count}")
    if not clean:
        raise ValueError("sample outside 0..maxval")
    if width == 0:
        yield from ([] for _ in range(height))


def read_netpbm(text: str):
    """Parse P1 or P2 text into (magic, width, height, maxval, rows, comments).

    maxval is 1 for P1.  Raises ValueError on anything else.
    """
    magic, width, height, maxval, comments, rows = _parse(text)
    return magic, width, height, maxval, [*map(list, rows)], comments


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
    """Nearest cell fill for gray level p; inverts pixel_from_fill for K <= 15."""
    top = image_maxval(cap)
    return (2 * p * cap + top) // (2 * top)


@lru_cache(maxsize=None)
def _pixels(subres: int):
    """The gray level of each fill 0..2**K; from K = 8 on pixels are the
    fills, and the table is a range."""
    cap = 1 << subres
    if image_maxval(cap) == cap:
        return range(cap + 1)
    return [pixel_from_fill(w, cap) for w in range(cap + 1)]


@lru_cache(maxsize=None)
def _levels(magic: str, subres: int):
    """How set_from_image reads the samples of a set image: the fill of
    each sample (a range where pixels are the fills), the least sample of
    a full and of a nonempty cell, the fill growing with the sample, and,
    where samples fit in a byte, the tables that translate them to the
    binary digit of a full and of a nonempty cell."""
    cap = 1 << subres
    if magic == "P1":
        fills = (0, cap)
    else:
        top = image_maxval(cap)
        fills = range(top + 1) if top == cap else [fill_from_pixel(p, cap) for p in range(top + 1)]
    full_from, nonempty_from = fills.index(cap), next(p for p, w in enumerate(fills) if w)
    if len(fills) > 256:
        return fills, full_from, nonempty_from, None
    tables = tuple(bytes(b"01"[p >= least] for p in range(256)) for least in (full_from, nonempty_from))
    return fills, full_from, nonempty_from, tables


def set_to_image(e: DyadicSet) -> str:
    """PBM of a K=0 set, else PGM of gray levels, with a 'K=<k>' comment;
    lossless for K <= 15, ValueError beyond.

    Each image line is written from its row: the full mask's digits, '1'
    for a full cell, spaced and then mapped to the full cell's gray level
    in one replace, with the pixel of each partial cell put in its place."""
    p = e.params
    side, subres = p.side, p.subres
    maxval = image_maxval(p.sub_per_cell)
    pixels = _pixels(subres)
    full = str(pixels[-1]) if subres else "1"
    lines = []
    # image rows run top-down; band 0 sits at the bottom of the square
    for f, parts in zip(reversed(e.full), reversed(e.partials)):
        digits, pieces, at = _digits(f, side), [], 0
        for j, w in parts:
            if j > at:
                pieces.append(" ".join(digits[at:j]).replace("1", full))
            pieces.append(str(pixels[w]))
            at = j + 1
        if at < side:
            pieces.append(" ".join(digits[at:]).replace("1", full))
        lines.append(" ".join(pieces))
    comments = [f"K={subres}"]
    if subres == 0:
        return write_pbm(lines, comments=comments)
    return write_pgm(lines, maxval=maxval, comments=comments)


def _layout(magic: str, width: int, height: int, maxval: int, comments, override_subres):
    """The grid of a set image and how its samples read, (params,
    *_levels(magic, K)), or ValueError for an image that holds no set."""
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
        return (params, *_levels(magic, params.subres))
    if maxval > MAX_PGM_MAXVAL:
        raise ValueError(f"PGM maxval {maxval} is above {MAX_PGM_MAXVAL}, the most netpbm allows")
    if subres is None:
        raise ValueError("PGM lacks a 'K=' comment; pass -K to supply the sub-resolution")
    params = GridParams(depth, subres)
    cap = params.sub_per_cell
    if maxval != image_maxval(cap):
        raise ValueError(f"expected a PGM with maxval {image_maxval(cap)} for K={subres}")
    return (params, *_levels(magic, subres))


def set_from_image(text: str, override_subres=None) -> DyadicSet:
    """Set read back from set_to_image output; override_subres replaces
    the K comment, which a PGM without one needs.

    The image is read line by line into the rows of the set.  A cell is
    full from one gray level on and nonempty from another, so a row's
    masks are its samples compared with the two, through a translation
    table where the samples fit in a byte (K <= 7 and PBM); only its
    partial cells are read one by one.  The errors of the file come
    before those of the set, as read_netpbm raises them."""
    magic, width, height, maxval, comments, rows = _parse(text)
    try:
        params, fills, full_from, nonempty_from, tables = _layout(magic, width, height, maxval, comments, override_subres)
    except ValueError:
        for _ in rows:  # an error of the file itself comes first
            pass
        raise
    full, nonempty, partials = [], [], []
    for row in rows:
        if tables:
            # the digits run from column 0, so the reversal puts it lowest
            samples = bytes(row)  # most rows are bytes already
            f, ne = int(samples.translate(tables[0])[::-1], 2), int(samples.translate(tables[1])[::-1], 2)
        else:
            f, ne = _mask(map(full_from.__le__, row)), _mask(map(nonempty_from.__le__, row))
        full.append(f)
        nonempty.append(ne)
        partials.append(tuple((j, fills[row[j]]) for j in _bits(ne & ~f)))
    # image rows run top-down, bands bottom-up
    return DyadicSet._of_rows(params, tuple(full[::-1]), tuple(nonempty[::-1]), tuple(partials[::-1]))
