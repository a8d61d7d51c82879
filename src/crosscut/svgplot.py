"""Minimal deterministic SVG plots for step functions.

Hand-rolled so identical inputs produce byte-identical files (no ids,
dates, or library version strings).  Curves are drawn as right-continuous
staircases with vertical connectors; axes carry numeric tick labels.
"""

from __future__ import annotations

from .stepfn import distribution_steps

PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#8c564b")

_W, _H = 480.0, 360.0
_ML, _MR, _MT, _MB = 56.0, 16.0, 34.0, 44.0


def _fmt(x: float) -> str:
    return f"{x:.2f}"


def _staircase(plateaus) -> list[tuple[float, float]]:
    """Polyline vertices tracing (lo, hi, value) plateaus."""
    pts = []
    for lo, hi, v in plateaus:
        pts.append((float(lo), float(v)))
        pts.append((float(hi), float(v)))
    return pts


def step_points(fn) -> list[tuple[float, float]]:
    """Polyline vertices tracing a StepFunction's staircase."""
    return _staircase(fn.intervals())


def distribution_points(fn) -> list[tuple[float, float]]:
    """Polyline vertices tracing the distribution function of fn."""
    steps = distribution_steps(fn)
    if not steps:
        return [(0.0, 0.0), (1.0, 0.0)]
    pts = _staircase(steps)
    pts.append((pts[-1][0], 0.0))
    return pts


def render_curves(curves, title: str = "", x_max: float = 1.0, y_max: float = 1.0) -> str:
    """SVG document for labeled polylines.

    curves: sequence of (label, points) with points in data coordinates.
    """
    x_max = max(x_max, 1e-9)
    y_max = max(y_max, 1e-9)
    plot_w = _W - _ML - _MR
    plot_h = _H - _MT - _MB

    def sx(x: float) -> float:
        return _ML + plot_w * (x / x_max)

    def sy(y: float) -> float:
        return _MT + plot_h * (1.0 - y / y_max)

    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W:.0f}" '
        f'height="{_H:.0f}" viewBox="0 0 {_W:.0f} {_H:.0f}">',
        f'<rect width="{_W:.0f}" height="{_H:.0f}" fill="white"/>',
    ]
    if title:
        out.append(
            f'<text x="{_W / 2:.1f}" y="20" text-anchor="middle" '
            f'font-family="monospace" font-size="13">{title}</text>'
        )
    # axes
    out.append(
        f'<line x1="{_ML:.1f}" y1="{_MT + plot_h:.1f}" x2="{_ML + plot_w:.1f}" '
        f'y2="{_MT + plot_h:.1f}" stroke="black" stroke-width="1"/>'
    )
    out.append(
        f'<line x1="{_ML:.1f}" y1="{_MT:.1f}" x2="{_ML:.1f}" '
        f'y2="{_MT + plot_h:.1f}" stroke="black" stroke-width="1"/>'
    )
    for i in range(5):
        fx = x_max * i / 4.0
        fy = y_max * i / 4.0
        px, py = sx(fx), sy(fy)
        out.append(
            f'<line x1="{px:.1f}" y1="{_MT + plot_h:.1f}" x2="{px:.1f}" '
            f'y2="{_MT + plot_h + 4:.1f}" stroke="black" stroke-width="1"/>'
        )
        out.append(
            f'<text x="{px:.1f}" y="{_MT + plot_h + 16:.1f}" text-anchor="middle" '
            f'font-family="monospace" font-size="10">{_fmt(fx)}</text>'
        )
        out.append(
            f'<line x1="{_ML - 4:.1f}" y1="{py:.1f}" x2="{_ML:.1f}" y2="{py:.1f}" '
            f'stroke="black" stroke-width="1"/>'
        )
        out.append(
            f'<text x="{_ML - 7:.1f}" y="{py + 3:.1f}" text-anchor="end" '
            f'font-family="monospace" font-size="10">{_fmt(fy)}</text>'
        )
    # curves and legend
    for idx, (label, pts) in enumerate(curves):
        color = PALETTE[idx % len(PALETTE)]
        path = " ".join(f"{sx(x):.2f},{sy(y):.2f}" for x, y in pts)
        out.append(
            f'<polyline points="{path}" fill="none" stroke="{color}" '
            f'stroke-width="1.5"/>'
        )
        ly = _MT + 14 + 14 * idx
        lx = _ML + plot_w - 130
        out.append(
            f'<line x1="{lx:.1f}" y1="{ly - 4:.1f}" x2="{lx + 18:.1f}" '
            f'y2="{ly - 4:.1f}" stroke="{color}" stroke-width="1.5"/>'
        )
        out.append(
            f'<text x="{lx + 24:.1f}" y="{ly:.1f}" font-family="monospace" '
            f'font-size="11">{label}</text>'
        )
    out.append("</svg>")
    return "\n".join(out) + "\n"
