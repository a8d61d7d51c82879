"""Independent oracles for the benchmark's output checks.

Everything here works on plain Fractions, ints and lists.  Nothing calls
into crosscut, so a fault in Dyadic, StepFunction or the swap engine
cannot hide itself by agreeing with its own check.

A step function is a list of (lo, hi, value) Fraction triples covering
[0, 1); a fill grid is a list of rows (bands, bottom-up) of cell fills in
sub-units of 2**-(N+K) of the cell width.
"""

from __future__ import annotations

from fractions import Fraction


# -- step functions ------------------------------------------------------


def grid_pieces(values):
    """Uniform grid of len(values) cells, one value each."""
    n = len(values)
    return [(Fraction(j, n), Fraction(j + 1, n), Fraction(v)) for j, v in enumerate(values)]


def raw_pieces(breaks, values):
    """Raw marginal: breaks[i] starts the plateau with values[i]; the last
    plateau holds to 1."""
    ends = list(breaks[1:]) + [Fraction(1)]
    return [(Fraction(a), Fraction(b), Fraction(v)) for a, b, v in zip(breaks, ends, values)]


def integral(pieces) -> Fraction:
    return sum(((hi - lo) * v for lo, hi, v in pieces), Fraction(0))


def _sorted_levels(pieces):
    """(value, total length) per distinct value, largest value first."""
    lengths: dict[Fraction, Fraction] = {}
    for lo, hi, v in pieces:
        lengths[v] = lengths.get(v, Fraction(0)) + (hi - lo)
    return sorted(lengths.items(), reverse=True)


def rearr_primitive(pieces, t: Fraction) -> Fraction:
    """Integral of the decreasing rearrangement f* over [0, t]."""
    total, used = Fraction(0), Fraction(0)
    for v, length in _sorted_levels(pieces):
        if used >= t:
            break
        take = min(length, t - used)
        total += v * take
        used += take
    return total


def dist_primitive(pieces, t: Fraction) -> Fraction:
    """Integral of the distribution function lambda_g over [0, t], by the
    layer-cake identity: the integral of min(g, t)."""
    return sum(((hi - lo) * min(v, t) for lo, hi, v in pieces), Fraction(0))


def prefix_points(f, g):
    """Every t where a side of the prefix test changes slope: the ends of
    f*'s plateaus and the nonzero values of g (1 when g is zero)."""
    pts, run = set(), Fraction(0)
    for _, length in _sorted_levels(f):
        run += length
        pts.add(run)
    levels = {v for _, _, v in g if v > 0}
    pts |= levels or {Fraction(1)}
    return sorted(p for p in pts if p > 0)


def prefix_test(f, g):
    """Lorentz / Gale-Ryser prefix test for (f, g) as (vertical,
    horizontal) sections.

    Returns (verdict, witness, totals): verdict is one of 'feasible',
    'infeasible_norm', 'infeasible_majorization'; the witness is the
    first (t, lhs, rhs) with lhs = int_0^t f* > rhs = int_0^t lambda_g.
    Both sides are evaluated in one ascending sweep over the points.
    """
    totals = (integral(f), integral(g))
    if totals[0] != totals[1]:
        return "infeasible_norm", None, totals
    f_levels = _sorted_levels(f)
    g_levels = _sorted_levels(g)[::-1]
    fi, used, f_full = 0, Fraction(0), Fraction(0)
    gi, below, above = 0, Fraction(0), sum((length for _, length in g_levels), Fraction(0))
    for t in prefix_points(f, g):
        while fi < len(f_levels) and used + f_levels[fi][1] <= t:
            v, length = f_levels[fi]
            f_full += v * length
            used += length
            fi += 1
        lhs = f_full + (f_levels[fi][0] * (t - used) if fi < len(f_levels) else 0)
        while gi < len(g_levels) and g_levels[gi][0] <= t:
            v, length = g_levels[gi]
            below += v * length
            above -= length
            gi += 1
        rhs = below + t * above
        if lhs > rhs:
            return "infeasible_majorization", (t, lhs, rhs), totals
    return "feasible", None, totals


# -- Gale-Ryser ------------------------------------------------------------


def conjugate(parts):
    """Entry i counts the parts that are at least i + 1."""
    top = max(parts, default=0)
    out = []
    for i in range(1, top + 1):
        c = 0
        for p in parts:
            if p >= i:
                c += 1
        out.append(c)
    return out


def gale_ryser(p, q):
    """(verdict, witness, totals) for row sums p and column sums q; the
    witness is the first prefix length m where q's prefix sum exceeds
    that of p's conjugate."""
    totals = (sum(p), sum(q))
    if totals[0] != totals[1]:
        return "infeasible_norm", None, totals
    ph = conjugate(p)
    qs = sorted(q, reverse=True)
    lhs = rhs = 0
    for m in range(1, max(len(ph), len(qs)) + 1):
        lhs += qs[m - 1] if m <= len(qs) else 0
        rhs += ph[m - 1] if m <= len(ph) else 0
        if lhs > rhs:
            return "infeasible_majorization", (m, lhs, rhs), totals
    return "feasible", None, totals


def matrix_margins(rows):
    """(row sums, column sums) of a 0/1 matrix given as lists of ints."""
    cols = [0] * (len(rows[0]) if rows else 0)
    for row in rows:
        for c, e in enumerate(row):
            if e not in (0, 1):
                raise ValueError(f"matrix entry {e} is not 0 or 1")
            cols[c] += e
    return [sum(row) for row in rows], cols


def swap_moves(p, q) -> int:
    """Moves the single-entry construction makes: from the left-aligned
    start each move closes the column-sum gap to q by exactly 2."""
    start = [sum(1 for part in p if part > c) for c in range(len(q))]
    return sum(abs(a - b) for a, b in zip(start, sorted(q, reverse=True))) // 2


# -- fill grids --------------------------------------------------------------


def hypograph_fill(g_units, side: int, cap: int):
    """Band i holds g_units[i] sub-units, left-aligned: full cells, then at
    most one partial cell."""
    fill = []
    for units in g_units:
        full, rem = divmod(units, cap)
        row = [cap] * full + ([rem] if rem else [])
        fill.append(row + [0] * (side - len(row)))
    return fill


def row_units(fill):
    return [sum(row) for row in fill]


def column_counts(fill, cap: int, columns=None):
    """Per sub-column x = j * cap + m: the number of bands whose cell in
    column j holds more than m sub-units.  With columns given, only those
    cell columns are computed, as {x: count}."""
    side = len(fill)
    out = {}
    for j in range(side) if columns is None else columns:
        col = [fill[i][j] for i in range(side)]
        for m in range(cap):
            c = 0
            for w in col:
                if w > m:
                    c += 1
            out[j * cap + m] = c
    if columns is None:
        return [out[x] for x in range(side * cap)]
    return out


def l1_residual(f_cols, counts, depth: int, cap: int) -> Fraction:
    """Exact |f - v|_1: f constant on each cell column, v = count / 2**N
    on each sub-column of width 2**-(N+K)."""
    side = 1 << depth
    width = Fraction(1, side * cap)
    total = Fraction(0)
    for x, c in enumerate(counts):
        total += abs(f_cols[x // cap] - Fraction(c, side))
    return total * width


def replay(g_units, f_cols, swaps, depth: int, subres: int):
    """Replay a swap trace on plain lists from the hypograph of g.

    swaps: (gen, band, donor, receiver) tuples, 1-based as in the trace.
    Returns (per-swap [(l1_drop, sym_diff)], {gen: (swaps, residual,
    sym_diff)}, initial residual, final fill).  Raises ValueError when a
    swap leaves the grid or changes a row section.
    """
    side, cap = 1 << depth, 1 << subres
    fill = hypograph_fill(g_units, side, cap)
    rows0 = row_units(fill)
    counts = column_counts(fill, cap)
    err = [abs(f_cols[x // cap] - Fraction(c, side)) for x, c in enumerate(counts)]
    unit = Fraction(1, side * cap)
    area = Fraction(1, side * side * cap)
    initial = sum(err, Fraction(0)) * unit
    residual = initial
    per_swap, per_gen = [], {}
    gen_start = [row[:] for row in fill]
    cur, n_gen = None, 0

    def close(gen):
        moved = sum(abs(a - b) for ra, rb in zip(fill, gen_start) for a, b in zip(ra, rb))
        per_gen[gen] = (n_gen, residual, moved * area)

    for gen, band, donor, receiver in swaps:
        if not 1 <= gen <= depth:
            raise ValueError(f"generation {gen} outside 1..{depth}")
        if cur is not None and gen != cur:
            if gen < cur:
                raise ValueError("generation order decreases")
            close(cur)
            gen_start = [row[:] for row in fill]
            n_gen = 0
        cur = gen
        n_gen += 1
        span = side >> gen
        top = 1 << gen
        for idx in (band, donor, receiver):
            if not 1 <= idx <= top:
                raise ValueError(f"index {idx} outside 1..{top}")
        r0, j0, k0 = (band - 1) * span, (donor - 1) * span, (receiver - 1) * span
        moved = 0
        for r in range(r0, r0 + span):
            row = fill[r]
            for c in range(span):
                a, b = row[j0 + c], row[k0 + c]
                moved += abs(a - b)
                row[j0 + c], row[k0 + c] = b, a
        cols = list(range(j0, j0 + span)) + list(range(k0, k0 + span))
        before = sum((err[x] for j in cols for x in range(j * cap, (j + 1) * cap)), Fraction(0))
        for x, c in column_counts(fill, cap, cols).items():
            err[x] = abs(f_cols[x // cap] - Fraction(c, side))
        after = sum((err[x] for j in cols for x in range(j * cap, (j + 1) * cap)), Fraction(0))
        drop = (before - after) * unit
        residual -= drop
        per_swap.append((drop, 2 * moved * area))
    if cur is not None:
        close(cur)
    if row_units(fill) != rows0:
        raise ValueError("a swap changed a row section")
    return per_swap, per_gen, initial, fill


# -- quantization --------------------------------------------------------------


def cell_averages(pieces, cells: int):
    """Exact average of a step function over each of `cells` uniform
    cells, by one merge walk over the pieces."""
    out = []
    i = 0
    for j in range(cells):
        lo, hi = Fraction(j, cells), Fraction(j + 1, cells)
        total = Fraction(0)
        while i < len(pieces) and pieces[i][1] <= lo:
            i += 1
        k = i
        while k < len(pieces) and pieces[k][0] < hi:
            a, b, v = pieces[k]
            total += v * (min(b, hi) - max(a, lo))
            k += 1
        out.append(total * cells)
    return out


def quantization_errors(pieces, q_cells):
    """Exact (L1, sup) distance between a raw step function and a
    function constant on uniform cells."""
    cells = len(q_cells)
    cuts = sorted({Fraction(j, cells) for j in range(cells + 1)} | {lo for lo, _, _ in pieces})
    l1, sup = Fraction(0), Fraction(0)
    i = 0
    for a, b in zip(cuts, cuts[1:]):
        while pieces[i][1] <= a:
            i += 1
        err = abs(pieces[i][2] - q_cells[int(a * cells)])
        l1 += err * (b - a)
        sup = max(sup, err)
    return l1, sup
