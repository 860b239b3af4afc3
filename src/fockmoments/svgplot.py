"""Minimal deterministic SVG line plots, no rendering dependencies.

Produces standalone SVG markup from (label, points) series.  Output is a
pure function of the input: coordinates are formatted with fixed
precision and nothing (timestamps, ids, randomness) varies between runs.
The CLI's ``--plot`` files are built here too, each checked for values
a plot cannot hold, so a call without ``--plot`` never loads them.
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

    Every series holds at least one point.  With loglog=True both axes
    are log10 scaled, so every coordinate must be positive.
    """
    if loglog:
        series = [
            (label, [(math.log10(x), math.log10(y)) for x, y in points])
            for label, points in series
        ]
    xs = [x for _, pts in series for x, _ in pts]
    ys = [y for _, pts in series for _, y in pts]
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

    for idx, (label, pts) in enumerate(series):
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


def _convergence_plot(rows: Sequence) -> str | None:
    """``converge --plot``: |scaled moment - target| against N per order,
    from ``convergence_table`` rows, or None when no point is left.  A log
    axis has no place for N = 0 or a difference that is 0, exactly or as a
    float, so those rows are dropped before N is converted."""
    by_order: dict[int, list[tuple[float, float]]] = {}
    # order by order, so the first value past the float range is the lowest order's
    for r in sorted(rows, key=lambda r: r.order):
        if r.state == 0:
            continue
        diff = to_float(r.abs_diff, f"order {r.order} abs_diff at N = {r.state}")
        if diff:
            n = to_float(r.state, f"N = {r.state}")
            by_order.setdefault(r.order, []).append((n, diff))
    if not by_order:
        return None
    series = [(f"order {k}", pts) for k, pts in by_order.items()]
    title, ylabel = "Distance to arcsine moments", "|scaled moment - target|"
    return line_plot(series, title=title, xlabel="N", ylabel=ylabel, loglog=True)


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
        height = w / gap
        if height == math.inf:
            raise ValueError(f"density estimate at x = {x!r} is too large for a float")
        est.append((x, height))
    edge = math.sqrt(2.0) - 0.02
    grid = (-edge + 2 * edge * i / 200 for i in range(201))
    arcsine = [(x, arcsine_density(x)) for x in grid]
    series = [("reconstruction", est), ("arcsine", arcsine)]
    if density is not None:
        series.append(("state density", density))
    title = f"Spectral reconstruction, N = {state}, K = {dim}"
    return line_plot(series, title=title, xlabel="x", ylabel="density")
