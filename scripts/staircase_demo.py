#!/usr/bin/env python3
"""Rebuild the staircase set for the ramp marginals f = g = (1-x)/2.

Runs the swap construction at increasing grid depth, prints the residual
after every generation, and writes a PGM image plus an SVG overlay of the
target and achieved vertical sections for the deepest run.

Usage: python3 scripts/staircase_demo.py [outdir]
"""

import pathlib
import sys
from fractions import Fraction

from crosscut import GridParams, reconstruct, vertical_section
from crosscut.ingest import RawMarginal, quantize
from crosscut.netpbm import set_to_image
from crosscut.svgplot import render_curves, step_points


def ramp_raw(steps: int) -> RawMarginal:
    breaks = tuple(Fraction(j, steps) for j in range(steps))
    vals = tuple((1 - (b + Fraction(1, steps) / 2)) / 2 for b in breaks)
    return RawMarginal(breaks, vals)


def main() -> int:
    outdir = pathlib.Path(sys.argv[1] if len(sys.argv) > 1 else "out")
    outdir.mkdir(parents=True, exist_ok=True)
    raw = ramp_raw(256)
    last = None
    for depth in (2, 3, 4, 5):
        params = GridParams(depth, 4)
        fq, rep = quantize(raw, params)
        e, summary = reconstruct(fq, fq, params)
        cols = " ".join(
            f"g{g.gen}:{float(g.residual_l1):.5f}" for g in summary.generations
        )
        print(
            f"depth {depth}: initial {float(summary.initial_residual):.5f}  "
            f"{cols}  swaps {sum(g.swap_count for g in summary.generations)}"
        )
        last = (e, fq)
    e, fq = last
    (outdir / "staircase.pgm").write_text(set_to_image(e))
    v = vertical_section(e)
    svg = render_curves(
        [("target f", step_points(fq)), ("achieved v", step_points(v))],
        title="ramp target vs constructed section",
    )
    (outdir / "staircase.svg").write_text(svg)
    print(f"wrote {outdir}/staircase.pgm and {outdir}/staircase.svg")
    return 0


if __name__ == "__main__":
    sys.exit(main())
