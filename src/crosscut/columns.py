"""A cell column's vertical section, held as a full count and partial widths.

Sub-column m of a column of the grid counts the cells whose fill exceeds
m sub-units: every full cell and the partial cells wider than m.  So the
column's section is the staircase

    v(m) = F + #{partial widths w with w > m},   0 <= m < 2**K,

with F its number of full cells (Lorentz's vertical cross sections, read
on the grid).  With the widths ascending, w_1 <= ... <= w_p, it is F + p
on [0, w_1), F + p - i on [w_i, w_(i+1)) and F on [w_p, 2**K): it is
least at the last sub-column, F, and greatest at the first, the nonempty
count F + p, and any sum over the sub-columns is a sum over its p + 1
steps.  The swap engine (gridset._Work) holds each column as (F, widths)
and reads everything off these helpers, so its cost does not follow the
2**K sub-columns of a cell.
"""

from __future__ import annotations

from bisect import bisect_right

# a column's partial widths, ascending, and a swap's change of a column:
# the column, its new full count and widths, and its drop of |f - v|_1
_Widths = tuple[int, ...]
_ColumnChange = tuple[int, int, _Widths, int]


def _count_steps(heights: dict[int, int], full: int, widths: _Widths, subs: int, sign: int) -> None:
    """Adds sign times the sub-columns of each step of a column's section
    to the count of its height in heights.  The section is a staircase
    read off the column's full count and its partial widths ascending:
    full + p - i cells on [w_i, w_(i+1)) for i = 0..p, with w_0 = 0 and
    w_(p+1) = subs (two equal widths make an empty step)."""
    get = heights.get
    h, at = full + len(widths), 0
    for w in widths:
        heights[h] = get(h, 0) + sign * (w - at)
        h, at = h - 1, w
    heights[h] = get(h, 0) + sign * (subs - at)


def _gap(f: int, full: int, widths: _Widths, subs: int, shift: int) -> int:
    """|f - v|_1 over a column, f and a cell's 2**shift in the same units.
    Where the whole staircase lies on one side of f, that is the column's
    sum, full * subs plus the widths, against subs times f; otherwise the
    steps are walked."""
    if full << shift >= f:
        return (full * subs + sum(widths) << shift) - subs * f
    h = full + len(widths)
    if h << shift <= f:
        return subs * f - (full * subs + sum(widths) << shift)
    gap = at = 0
    for w in (*widths, subs):
        gap += (w - at) * abs(f - (h << shift))
        h, at = h - 1, w
    return gap


def _moved(widths: _Widths, leaving: list[int], arriving: list[int]) -> _Widths:
    """A column's partial widths, ascending, once an exchange takes the
    leaving ones out and puts the arriving ones in."""
    ws = [*widths, *arriving]
    for w in leaving:
        ws.remove(w)
    return tuple(sorted(ws))


def _at_or_below(low: int, low_widths: _Widths, high: int, high_widths: _Widths) -> bool:
    """Whether the staircase of full count low and widths low_widths is at
    or below the other on every sub-column.  Both are constant from each
    of their widths to the next, so they are compared at 0 and at every
    width of either: F + #{w > m} = F + p - bisect_right(widths, m).  A
    column whose widths are the same tuple only moved whole cells."""
    if low_widths is high_widths:
        return low <= high
    low += len(low_widths)
    high += len(high_widths)
    return all(
        low - bisect_right(low_widths, m) <= high - bisect_right(high_widths, m)
        for m in {0, *low_widths, *high_widths}
    )
