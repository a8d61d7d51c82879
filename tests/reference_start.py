"""The hypograph start as a cell grid, kept as the reference for the start
that reconstruct and audit_trace read off g's band values.

reference_initial_set is the loop initial_set ran: g's band values in
sub-units (gridset._cell_units, with its checks and their order), each
band row written cell by cell as full cells, the partial cell, if any,
and empty cells, and the grid validated as a DyadicSet.  The swap
engine's fill start, _Work(params, reference_initial_set(g, params).fill,
f), is then the reference for the band start.
"""

from __future__ import annotations

from crosscut.gridset import DyadicSet, GridParams, _cell_units
from crosscut.stepfn import StepFunction


def reference_initial_set(g: StepFunction, params: GridParams) -> DyadicSet:
    """Hypograph of g: band i holds [0, g_i) x (the band)."""
    cap = params.sub_per_cell
    rows = []
    for units in _cell_units(g, params.depth, params.depth + params.subres):
        full, rem = divmod(units, cap)
        row = [cap] * full
        if rem:
            row.append(rem)
        row.extend([0] * (params.side - len(row)))
        rows.append(tuple(row))
    return DyadicSet(params, tuple(rows))
