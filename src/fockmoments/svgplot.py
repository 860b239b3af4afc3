"""Minimal deterministic SVG line plots, no rendering dependencies.

Produces standalone SVG markup from (label, points) series.  Output is a
pure function of the input: coordinates are formatted with fixed
precision and nothing (timestamps, ids, randomness) varies between runs.
The series of the CLI's ``--plot`` files are built here too, so a call
without ``--plot`` never loads them.
"""

from __future__ import annotations

import html
import math
from functools import partial
from typing import Sequence

from .fock import to_float
from .laws import arcsine_density

# & < > only, as text nodes need; xml.sax.saxutils would import urllib
escape = partial(html.escape, quote=False)

PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")

Series = tuple[str, Sequence[tuple[float, float]]]

_WIDTH, _HEIGHT = 640, 440
_MARGIN_L, _MARGIN_R, _MARGIN_T, _MARGIN_B = 70.0, 24.0, 42.0, 52.0


def _ticks(lo: float, hi: float, log: bool) -> list[float]:
    if log:
        first = math.ceil(lo - 1e-9)
        last = math.floor(hi + 1e-9)
        if first > last:
            return [lo, hi]
        return [float(k) for k in range(first, last + 1)]
    step = (hi - lo) / 4.0
    return [lo + step * i for i in range(5)]


def _tick_label(value: float, log: bool) -> str:
    if log:
        return f"1e{value:g}" if value == int(value) else f"{10.0**value:.2g}"
    return f"{value:.4g}"


def line_plot(
    series: Sequence[Series],
    *,
    title: str,
    xlabel: str,
    ylabel: str,
    loglog: bool = False,
) -> str:
    """Render series of (x, y) points as an SVG line chart string.

    With loglog=True both axes are log10 scaled and points with a
    nonpositive coordinate are dropped.
    """
    cleaned: list[tuple[str, list[tuple[float, float]]]] = []
    for label, points in series:
        kept = []
        for x, y in points:
            if loglog:
                if x <= 0.0 or y <= 0.0:
                    continue
                kept.append((math.log10(x), math.log10(y)))
            else:
                kept.append((float(x), float(y)))
        if kept:
            cleaned.append((label, kept))
    if not cleaned:
        raise ValueError("nothing to plot: every series is empty")

    xs = [x for _, pts in cleaned for x, _ in pts]
    ys = [y for _, pts in cleaned for _, y in pts]
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(ys), max(ys)
    if x_hi == x_lo:
        x_lo, x_hi = x_lo - 0.5, x_hi + 0.5
    if y_hi == y_lo:
        y_lo, y_hi = y_lo - 0.5, y_hi + 0.5

    plot_w = _WIDTH - _MARGIN_L - _MARGIN_R
    plot_h = _HEIGHT - _MARGIN_T - _MARGIN_B

    def px(x: float) -> float:
        return _MARGIN_L + (x - x_lo) / (x_hi - x_lo) * plot_w

    def py(y: float) -> float:
        return _MARGIN_T + plot_h - (y - y_lo) / (y_hi - y_lo) * plot_h

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" '
        f'height="{_HEIGHT}" viewBox="0 0 {_WIDTH} {_HEIGHT}">',
        f'<rect width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>',
        f'<text x="{_WIDTH / 2:.2f}" y="24" text-anchor="middle" '
        f'font-family="sans-serif" font-size="15">{escape(title)}</text>',
    ]

    for tx in _ticks(x_lo, x_hi, loglog):
        gx = px(tx)
        parts.append(
            f'<line x1="{gx:.2f}" y1="{_MARGIN_T:.2f}" x2="{gx:.2f}" '
            f'y2="{_MARGIN_T + plot_h:.2f}" stroke="#dddddd" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{gx:.2f}" y="{_MARGIN_T + plot_h + 18:.2f}" '
            f'text-anchor="middle" font-family="sans-serif" font-size="11">'
            f"{escape(_tick_label(tx, loglog))}</text>"
        )
    for ty in _ticks(y_lo, y_hi, loglog):
        gy = py(ty)
        parts.append(
            f'<line x1="{_MARGIN_L:.2f}" y1="{gy:.2f}" '
            f'x2="{_MARGIN_L + plot_w:.2f}" y2="{gy:.2f}" '
            f'stroke="#dddddd" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{_MARGIN_L - 6:.2f}" y="{gy + 4:.2f}" '
            f'text-anchor="end" font-family="sans-serif" font-size="11">'
            f"{escape(_tick_label(ty, loglog))}</text>"
        )

    cy = _MARGIN_T + plot_h / 2
    parts += [
        f'<rect x="{_MARGIN_L:.2f}" y="{_MARGIN_T:.2f}" width="{plot_w:.2f}" '
        f'height="{plot_h:.2f}" fill="none" stroke="#333333"/>',
        f'<text x="{_MARGIN_L + plot_w / 2:.2f}" y="{_HEIGHT - 12}" '
        f'text-anchor="middle" font-family="sans-serif" font-size="12">'
        f"{escape(xlabel)}</text>",
        f'<text x="16" y="{cy:.2f}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="12" '
        f'transform="rotate(-90 16 {cy:.2f})">{escape(ylabel)}</text>',
    ]

    for idx, (label, pts) in enumerate(cleaned):
        color = PALETTE[idx % len(PALETTE)]
        coords = " ".join(f"{px(x):.2f},{py(y):.2f}" for x, y in pts)
        parts.append(
            f'<polyline points="{coords}" fill="none" stroke="{color}" '
            f'stroke-width="1.6"/>'
        )
        for x, y in pts:
            parts.append(
                f'<circle cx="{px(x):.2f}" cy="{py(y):.2f}" r="2.4" '
                f'fill="{color}"/>'
            )
        ly = _MARGIN_T + 14 + 16 * idx
        lx = _MARGIN_L + plot_w - 150
        parts.append(
            f'<line x1="{lx:.2f}" y1="{ly - 4:.2f}" x2="{lx + 22:.2f}" '
            f'y2="{ly - 4:.2f}" stroke="{color}" stroke-width="2"/>'
        )
        parts.append(
            f'<text x="{lx + 28:.2f}" y="{ly:.2f}" font-family="sans-serif" '
            f'font-size="11">{escape(label)}</text>'
        )

    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def _convergence_series(rows: Sequence, orders: Sequence[int]) -> list[Series]:
    """``converge --plot``: |scaled moment - target| against N per order,
    from ``convergence_table`` rows, without the zeros a log axis drops
    (N = 0, or a difference of 0)."""
    series = []
    for order in sorted(set(orders)):
        name = f"order {order} abs_diff"
        pts = [
            (float(r.state), to_float(r.abs_diff, f"{name} at N = {r.state}"))
            for r in rows
            if r.order == order and r.state > 0 and r.abs_diff > 0
        ]
        if pts:
            series.append((f"order {order}", pts))
    return series


def _reconstruction_plot(
    atoms: Sequence, density: Sequence | None, state: int, dim: int
) -> str:
    """``reconstruct --plot``: the atoms' density estimate, the arcsine
    density and, when given, the state density."""
    # weight over the mean distance to the neighbouring atoms
    xs = [x for x, _ in atoms]
    last = len(xs) - 1
    est = []
    for i, (x, w) in enumerate(atoms):
        lo, hi = max(i - 1, 0), min(i + 1, last)
        gap = (xs[hi] - xs[lo]) / (hi - lo) if last else 1.0
        est.append((x, w / gap))
    edge = math.sqrt(2.0) - 0.02
    grid = (-edge + 2 * edge * i / 200 for i in range(201))
    arcsine = [(x, arcsine_density(x)) for x in grid]
    series = [("reconstruction", est), ("arcsine", arcsine)]
    if density is not None:
        series.append(("state density", density))
    title = f"Spectral reconstruction, N = {state}, K = {dim}"
    return line_plot(series, title=title, xlabel="x", ylabel="density")
