"""Construction of 0/1 matrices with prescribed row and column sums.

Three independent routes, kept deliberately separate so they can
cross-check each other:

  * ryser_construct: the classical greedy fill (fast path),
  * swap_construct: starts from the left-aligned maximal matrix and moves
    single ones from surplus columns to deficit columns, the discrete
    shadow of the plane-set swapping construction,
  * brute_force_realize: exhaustive search oracle for small instances.

All three succeed exactly on the pairs accepted by check_gale_ryser.

A BinaryMatrix holds each row as an int mask, bit c for column c, from
construction to output, and derives its entries.  The constructors cost
what their moves cost.  The greedy keeps the rows in buckets by
remaining need and writes each column to a given bit, so
realize_exact_margins runs it on unsorted margins with no permutation
afterwards.  swap_construct walks its rows in one loop: it reads a row's
donor and receiver columns off its masks by lowest set bit in place,
probes each (donor, receiver) pair with one _ColumnSums.try_move call,
and after a move resumes at the first row the last walk found holding a
pair.

The row codec (_digits, _flags and _mask, between a mask and its 0/1
cells) serves gridset's row masks as well, and the set-bit walk (_bits)
serves those alone.

Both swap engines, swap_construct here and gridset's plane-set sweep,
ask one question before a move: do the sorted sums v still weakly
majorize the target f?  Both answer it at thresholds, the form of weak
majorization in Marshall, Olkin and Arnold, Inequalities: Theory of
Majorization and Its Applications, ch. 4.  Let v be integers in 0..top
and f nonnegative, of one length, and Phi_x(c) = sum_i (x_i - c)^+.  The
sorted prefix sums P of v bound those F of f exactly when Phi_f(c) <=
Phi_v(c) at every integer height c in 0..top.

  * Necessity: with k = #{f > c}, Phi_f(c) = F(k) - kc <= P(k) - kc <=
    Phi_v(c).
  * Sufficiency: for each k let c be the k-th largest v, an integer
    height; then F(k) <= kc + Phi_f(c) <= kc + Phi_v(c) = P(k).

_ThresholdSlack holds the slacks Phi_v(c) - Phi_f(c), c = 0..top, in one
int of fixed-width fields, through the field codec (_pack, _ones and
_unpack, between a list of digits and such an int); _phi gives Phi of
integer values.  A move changes Phi_v at the heights it touches and
nowhere else, so its change is one packed int, a probe adds it and reads
every field's sign at once, and the probe is exact from any state,
dominated or not.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate, combinations
from typing import Iterable, Optional, Sequence

from .feasibility import FeasibilityReport, Partition, check_gale_ryser, counts_above

BRUTE_FORCE_CELL_LIMIT = 20


class InstanceTooLarge(ValueError):
    """Raised when a brute-force instance exceeds the exhaustive-scan bound."""


class InfeasibleMargins(ValueError):
    """Raised by constructors on margins that fail the Gale-Ryser test."""

    def __init__(self, report: FeasibilityReport):
        super().__init__(f"margins are not realizable: {report.verdict.value}")
        self.report = report


class ConstructionStuck(RuntimeError):
    """Swap search found no admissible move before reaching the target.

    Never observed on feasible input; kept as a loud failure mode instead
    of a silent wrong answer.
    """


_CELLS = bytes.maketrans(b"01", b"\0\1")
_DIGITS = bytes.maketrans(b"\0\1", b"01")


def _digits(mask: int, n: int) -> str:
    """Bits 0 .. n - 1 of mask as '0' and '1', bit 0 first: the bit at n
    pads the binary digits to n + 1 and the reversal drops it."""
    return format(mask | 1 << n, "b")[:0:-1]


def _flags(mask: int, n: int) -> bytes:
    """Bits 0 .. n - 1 of mask as 0/1 bytes, bit 0 first."""
    return _digits(mask, n).encode().translate(_CELLS)


def _mask(flags) -> int:
    """The 0/1 flags as a bitmask, bit c set when flag c is 1."""
    return int(bytes(flags).translate(_DIGITS)[::-1] or b"0", 2)


def _bits(mask: int):
    """Positions of the set bits of mask, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _pack(digits: Sequence[int], w: int) -> int:
    """The digits, each in [0, 2**w), packed in fields of w bits: digit t
    in bits [w*t, w*t + w).  One pass over the binary digits, so the cost
    is the total bits, not a sum of shifted ints."""
    spec = f"0{w}b"
    return int("".join([format(d, spec) for d in reversed(digits)]) or "0", 2)


def _ones(n: int, w: int) -> int:
    """A 1 in each of n fields of w bits: _pack([1] * n, w)."""
    return int("1".rjust(w, "0") * n or "0", 2)


def _unpack(fields: int, n: int, w: int) -> list[int]:
    """The n digits of w bits packed in the nonnegative fields, digit 0
    first; one pass over the binary digits, as _pack."""
    text = format(fields, f"0{n * w}b")
    return [int(text[i - w : i], 2) for i in range(n * w, 0, -w)]


def _phi(values: Iterable[int], top: int) -> list[int]:
    """Phi(c) = sum_i (x_i - c)^+ for c = 0..top, of integers x_i in
    0..top: the suffix sums of counts_above, since x - c counts the
    heights m = c .. x - 1 for which x > m."""
    return [*accumulate(reversed(counts_above(values, top)), initial=0)][::-1]


@lru_cache(maxsize=16)
def _rulers(top: int, w: int) -> tuple[int, int]:
    """ones and stair of a _ThresholdSlack over heights 0..top in fields
    of w bits.  They depend on (top, w) alone, and the engine starts and
    swap_construct calls of a run meet the same few, so each is packed
    once."""
    return _ones(top + 1, w), _pack(range(top, -1, -1), w)


class _ThresholdSlack:
    """The slacks Phi_v(c) * 2**shift - Phi_f(c) for c = 0..top (module
    docstring), f on a scale 2**shift times finer than v's heights,
    packed in one int: field c, bits [width*c, width*c + width), holds the
    slack plus bias = 2**(width - 2).  The bias exceeds both Phi_v(0) *
    2**shift and Phi_f(0), totals that no move changes and that bound
    every slack, so every digit lies in (0, 2**(width - 1)): the top bit
    of a field, its guard, stays clear, no field borrows from or carries
    into the next, and a slack is nonnegative iff its digit's bias bit is
    set.  signs holds each field's bias bit and stair holds top - c in
    field c; the bias exceeds top as well, so that stair's digits fit
    their fields when the totals are small.  A change of Phi_v is packed
    the same way, without the bias, and added to fields in one big-int
    operation."""

    def __init__(self, phi_v: Sequence[int], phi_f: Sequence[int], shift: int = 0):
        self.top, self.shift = len(phi_v) - 1, shift
        self.width = w = max(phi_v[0] << shift, phi_f[0], self.top).bit_length() + 2
        bias = 1 << (w - 2)
        self.fields = _pack([(pv << shift) - pf + bias for pv, pf in zip(phi_v, phi_f)], w)
        self.ones, self.stair = _rulers(self.top, w)
        self.signs = self.ones << (w - 2)

    @property
    def slack(self) -> list[int]:
        """The slack at each height c = 0..top, decoded from the fields."""
        bias = 1 << (self.width - 2)
        return [d - bias for d in _unpack(self.fields, self.top + 1, self.width)]

    def holds(self, delta: int = 0) -> bool:
        """Whether every slack is nonnegative once the packed change delta
        is added, that is, whether the sorted prefix sums of v bound f's.
        Every digit is below 2 * bias, so it is at least the bias iff its
        bias bit is set."""
        return (self.fields + delta) & self.signs == self.signs

    def change(self, heights: dict[int, int]) -> int:
        """The packed change of the slack when the number of v's entries at
        each height h changes by heights[h], a change that keeps the number
        of entries and their total: D(c) = sum_h n_h (h - c)^+, shifted
        by shift, in field c.

        D is 0 above the greatest changed height and, the number and the
        total being kept, at and below the least.  Between two consecutive
        changed heights lo < hi it is linear: D(c) = D(hi) + (hi - c) * b,
        b = sum n_h over h >= hi.  So the fields lo .. hi - 1 are one
        piece, the lowest hi - lo fields of ones times D(hi) + b plus those
        of stair, shifted down to hold hi - 1 - c in field c, times b; a
        piece of one field is D(hi) + b, and a piece where D is 0 is only
        a shift.  The pieces are laid down from the top, each below the
        last, so every field is built once."""
        w, top, ones, stair = self.width, self.top + 1, self.ones, self.stair
        # at is D(hi) and b the sum of the counts at hi and above; hi starts
        # one field above the top height, where D is 0
        delta = at = b = 0
        hi = top
        for lo in sorted(heights, reverse=True):
            n = heights[lo]
            if n:
                if hi - lo == 1:
                    at += b
                    delta = (delta << w) + at
                elif at or b:
                    cut = w * (top - hi + lo)
                    delta = (delta << w * (hi - lo)) + ((at + b) * (ones >> cut) + b * (stair >> cut))
                    at += (hi - lo) * b
                else:
                    delta <<= w * (hi - lo)
                b += n
                hi = lo
        return delta << (w * hi + self.shift)


@dataclass(frozen=True)
class BinaryMatrix:
    """Immutable 0/1 matrix held as one int mask per row, bit c for column c."""

    rows: int
    cols: int
    masks: tuple[int, ...]

    def __post_init__(self):
        masks = tuple(self.masks)
        if self.rows < 0 or self.cols < 0 or len(masks) != self.rows:
            raise ValueError("row masks do not match the declared shape")
        limit = 1 << self.cols
        for m in masks:
            if not isinstance(m, int) or not 0 <= m < limit:
                raise ValueError(f"row mask {m!r} is not an int in [0, 2**{self.cols})")
        object.__setattr__(self, "masks", masks)

    @property
    def entries(self) -> tuple[tuple[int, ...], ...]:
        """The rows as 0/1 tuples."""
        return tuple(tuple(_flags(m, self.cols)) for m in self.masks)

    @classmethod
    def from_rows(cls, rows) -> "BinaryMatrix":
        entries = [tuple(int(e) for e in row) for row in rows]
        ncols = len(entries[0]) if entries else 0
        for row in entries:
            if len(row) != ncols:
                raise ValueError("ragged row")
            if not set(row) <= {0, 1}:
                raise ValueError("entries must be 0 or 1")
        return cls(len(entries), ncols, [*map(_mask, entries)])

    def to_text(self) -> str:
        """One row per line, '0'/'1' characters, no separators."""
        return "\n".join(_digits(m, self.cols) for m in self.masks) + "\n"

    @classmethod
    def from_text(cls, text: str) -> "BinaryMatrix":
        lines = [ln for ln in text.splitlines() if ln.strip()]
        for ln in lines:
            if set(ln) - {"0", "1"}:
                raise ValueError(f"bad matrix line: {ln!r}")
        if len({len(ln) for ln in lines}) > 1:
            raise ValueError("rows have differing lengths")
        return cls.from_rows(lines)


def row_sums(a: BinaryMatrix) -> tuple[int, ...]:
    return tuple(m.bit_count() for m in a.masks)


def col_sums(a: BinaryMatrix) -> tuple[int, ...]:
    """Each column's ones, counted on the rows' digits laid end to end,
    where column c is every cols-th digit from c."""
    digits = "".join(_digits(m, a.cols) for m in a.masks)
    return tuple(digits[c :: a.cols].count("1") for c in range(a.cols))


def _checked(masks, rows: tuple[int, ...], cols: tuple[int, ...]) -> BinaryMatrix:
    """The matrix of the row masks, which must have these margins."""
    a = BinaryMatrix(len(rows), len(cols), masks)
    if row_sums(a) != rows or col_sums(a) != cols:
        raise ConstructionStuck("constructed matrix misses its margins")
    return a


def _greedy_fill(p: Partition, q: Partition, bits: Sequence[int]) -> list[int]:
    """The greedy fill of ryser_construct as row masks, one for each of
    p's parts, with q's column c written to bit bits[c].

    The rows are held in buckets by remaining need, each ascending by row
    index, so a column takes whole buckets from the top and a prefix of
    the last bucket u it reaches: the rows a sort by (need descending,
    row ascending) would list first.  Every taken row's need drops by
    one.  The taken prefix of u merges into bucket u - 1, the bucket above
    u merges into what is left of u, and the other whole buckets shift
    down one need unchanged, so two merges per column keep every bucket
    ascending.  A need-0 row is never taken: feasibility makes the
    buckets above 0 hold enough rows.
    """
    report = check_gale_ryser(p, q)
    if not report.feasible:
        raise InfeasibleMargins(report)
    rows = [0] * len(p)
    # one empty bucket above the top need, so the shift needs no case
    buckets: list[list[int]] = [[] for _ in range(len(q) + 2)]
    for r, part in enumerate(p.parts):
        buckets[part].append(r)
    top = p.parts[0] if p.parts else 0
    for c, k in zip(bits, q.parts):
        if not k:
            break
        u = top
        while u and len(buckets[u]) <= k:
            k -= len(buckets[u])
            u -= 1
        if not u and k:
            raise ConstructionStuck("greedy fill ran out of rows with need")
        bit = 1 << c
        head, rest = buckets[u][:k], buckets[u][k:]
        for bucket in (head, *buckets[u + 1 : top + 1]):
            for r in bucket:
                rows[r] |= bit
        if k:
            buckets[u - 1] = sorted(buckets[u - 1] + head)
        buckets[u : top + 1] = [sorted(rest + buckets[u + 1]), *buckets[u + 2 : top + 2]]
        if u < top:
            top -= 1
    return rows


def ryser_construct(p: Partition, q: Partition) -> BinaryMatrix:
    """Greedy fill: columns in nonincreasing q order, each column's ones
    placed into the rows with largest remaining need (ties to the lowest
    row index).  Margins are verified exactly after the fill."""
    return _checked(_greedy_fill(p, q, range(len(q))), p.parts, q.parts)


def brute_force_realize(p: Partition, q: Partition) -> Optional[BinaryMatrix]:
    """Exhaustive search for a matrix with the exact margins.

    Independent of the Gale-Ryser condition: enumerates row fillings
    depth-first, pruning only on column capacity counts.  Instances above
    BRUTE_FORCE_CELL_LIMIT cells are rejected.
    """
    nrows, ncols = len(p), len(q)
    if nrows * ncols > BRUTE_FORCE_CELL_LIMIT:
        raise InstanceTooLarge(f"{nrows}x{ncols} exceeds {BRUTE_FORCE_CELL_LIMIT} cells")
    if p.total != q.total:
        return None
    target = q.parts
    filled = [0] * ncols
    rows_out: list[int] = []

    def search(r: int) -> bool:
        if r == nrows:
            return all(filled[c] == target[c] for c in range(ncols))
        left = nrows - r - 1
        if p.parts[r] > ncols:
            return False
        for cols in combinations(range(ncols), p.parts[r]):
            ok = True
            for c in cols:
                if filled[c] + 1 > target[c]:
                    ok = False
                    break
            if not ok:
                continue
            for c in cols:
                filled[c] += 1
            if all(target[c] - filled[c] <= left for c in range(ncols)):
                rows_out.append(sum(1 << c for c in cols))
                if search(r + 1):
                    return True
                rows_out.pop()
            for c in cols:
                filled[c] -= 1
        return False

    if search(0):
        return BinaryMatrix(nrows, ncols, rows_out)
    return None


class _ColumnSums:
    """Column sums with their threshold slack against q, which tells the
    single moves that keep q dominated (see swap_construct)."""

    def __init__(self, cols: list[int], q: Sequence[int], nrows: int):
        self.cols = cols
        self.thresholds = _ThresholdSlack(_phi(cols, nrows), _phi(q, nrows))

    def try_move(self, cj: int, ck: int) -> bool:
        """Move one unit from column cj to column ck when the sums it leaves
        dominate q; returns whether it did, and changes nothing when not.
        A column of sum a that gives a 1 to one of sum b lowers Phi_cols by
        1 on the heights b + 1 .. a - 1 and raises it on a .. b.

        Those heights are the window lo .. hi - 1, (lo, hi) = (a, b + 1)
        or (b + 1, a): the lowest hi - lo fields of the slack's ones,
        shifted up to field lo, and 0 when a = b + 1, the cut shifting
        every field out.  The move fires iff adding it leaves every
        field's bias bit set, as holds tests.  swap_construct calls this
        once per pair it tests, so the window is cut here rather than in
        a call of its own.  The test is exact from any state, dominated
        or not.

        The slack has a field per height 0..nrows, so each probe adds and
        masks nrows + 1 fields: on tall margins that is more than a slack
        per column would cost (swap_construct on a 2,048 x 256 matrix
        takes about 0.32 s against 0.19-0.23 s for the per-column slack
        of earlier versions, on a 2-vCPU VM).  No benchmark workload is
        tall, and a slack over heights 0..q_1 only does not help when q_1
        is the row count."""
        cols, slack = self.cols, self.thresholds
        a, b = cols[cj], cols[ck]
        w = slack.width
        if a <= b:
            delta = slack.ones >> (w * (slack.top - b + a)) << (w * a)
        else:
            delta = -(slack.ones >> (w * (slack.top + 2 - a + b)) << (w * (b + 1)))
        fields = slack.fields + delta
        if fields & slack.signs != slack.signs:
            return False
        slack.fields = fields
        cols[cj] -= 1
        cols[ck] += 1
        return True


def swap_construct(p: Partition, q: Partition) -> BinaryMatrix:
    """Build the matrix by single-entry moves from the left-aligned start.

    Row r begins with its first p_r cells set, so row sums are exact from
    the outset and column sums equal the conjugate of p.  Each move takes
    a 1 from a surplus column to a deficit column within one row, subject
    to the sorted column sums keeping their prefix dominance over q; every
    move brings the column sums closer to q by exactly 2 in L1, so the
    loop terminates.  Feasibility makes the totals equal, so the loop
    stops when no column is left in surplus.

    The first move in (row, donor, receiver) order fires.  Rows are held
    as int masks, bit c for column c, beside a mask of the surplus and
    one of the deficit columns.  A move leaves its donor at or above its
    target and its receiver at or below, so both masks only shrink.  A
    row's donors are then row & surplus and its receivers ~row & deficit.
    The walk reads both in ascending order by lowest set bit in place,
    the bit m & -m of a mask m being column (m & -m).bit_length() - 1:
    no generator and no helper call per move, and one try_move call per
    pair tested.  The bits the walk stops at, jbit and kbit, flip the
    row and clear the donor's surplus or the receiver's deficit bit.

    After a move the walk resumes at the first row the last walk found
    holding a (donor, receiver) pair, the fired move's row or one whose
    pairs dominance all rejected, never past it.  A row before that one
    held no pair; the masks only shrink and a row changes only when a
    move fires in it, so it holds none later and a walk from row 0 would
    pass it.  A walk that runs past the last row raises
    ConstructionStuck.

    Dominance is tested at thresholds (module docstring), top being the
    row count.  Moving a 1 from a column with sum a to one with sum b
    lowers the donor's term (a - c)^+ of Phi_cols(c) by 1 at each height
    c < a and raises the receiver's (b - c)^+ by 1 at each c <= b.  So
    Phi_cols falls by 1 on the heights b + 1 .. a - 1 when a >= b + 2,
    rises by 1 on a .. b when a <= b, and is unchanged when a = b + 1.
    The sums themselves index that window of the packed slack
    (_ColumnSums.try_move); the move fires iff adding it leaves every
    slack nonnegative.
    """
    report = check_gale_ryser(p, q)
    if not report.feasible:
        raise InfeasibleMargins(report)
    nrows, ncols = len(p), len(q)
    rows = [(1 << part) - 1 for part in p.parts]
    cols = counts_above(p.parts, ncols)
    target = list(q.parts)
    surplus = sum(1 << c for c in range(ncols) if cols[c] > target[c])
    deficit = sum(1 << c for c in range(ncols) if cols[c] < target[c])
    probe = _ColumnSums(cols, target, nrows).try_move
    start = 0
    while surplus:
        first = -1
        for r in range(start, nrows):
            row = rows[r]
            donors, receivers = row & surplus, ~row & deficit
            if not (donors and receivers):
                continue
            if first < 0:
                first = r
            rest = receivers
            while donors:
                jbit, kbit = donors & -donors, rest & -rest
                cj, ck = jbit.bit_length() - 1, kbit.bit_length() - 1
                if probe(cj, ck):
                    break
                rest ^= kbit
                if not rest:
                    # dominance rejected every receiver: the next donor
                    donors ^= jbit
                    rest = receivers
            else:
                # and every donor: the next row
                continue
            break
        else:
            raise ConstructionStuck("no admissible move but margins not met")
        rows[r] = row ^ jbit ^ kbit
        if cols[cj] == target[cj]:
            surplus ^= jbit
        if cols[ck] == target[ck]:
            deficit ^= kbit
        start = first
    return _checked(rows, p.parts, q.parts)


def realize_exact_margins(row_targets, col_targets) -> Optional[BinaryMatrix]:
    """Matrix with the given, not necessarily monotone, margins.

    Fills the sorted instance greedily, writing each sorted column to the
    bit of the column it came from and putting each sorted row in its
    place; equal targets keep their input order.  Returns None when the
    sorted pair is infeasible.
    """
    rt = tuple(int(v) for v in row_targets)
    ct = tuple(int(v) for v in col_targets)
    col_order = sorted(range(len(ct)), key=ct.__getitem__, reverse=True)
    try:
        sorted_rows = _greedy_fill(Partition(rt), Partition(ct), col_order)
    except InfeasibleMargins:
        return None
    rows = [0] * len(rt)
    for i, row in zip(sorted(range(len(rt)), key=rt.__getitem__, reverse=True), sorted_rows):
        rows[i] = row
    return _checked(rows, rt, ct)
