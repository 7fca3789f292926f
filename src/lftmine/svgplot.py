"""Dependency-free SVG charts for reports.

Only the handful of chart types the reports need: scatter/line charts and
a bar chart. Every data mark carries data-x/data-y attributes holding the
original values so plots stay machine-checkable, and all coordinates are
formatted with fixed precision so identical inputs give identical bytes.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

from .errors import SchemaError

PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")

MARGIN_LEFT = 70.0
MARGIN_RIGHT = 24.0
MARGIN_TOP = 44.0
MARGIN_BOTTOM = 56.0

# every chart is drawn at one size, px
WIDTH = 640.0
HEIGHT = 440.0
PLOT_W = WIDTH - MARGIN_LEFT - MARGIN_RIGHT
PLOT_H = HEIGHT - MARGIN_TOP - MARGIN_BOTTOM


def _escape(text: str) -> str:
    return (
        text.replace("&", "&amp;")
        .replace("<", "&lt;")
        .replace(">", "&gt;")
        .replace('"', "&quot;")
    )


def _px(value: float) -> str:
    return f"{value:.2f}"


def _nice_ticks(lo: float, hi: float, target: int = 5) -> list[float]:
    """Round tick positions covering [lo, hi]."""
    if hi <= lo:
        return [lo]
    raw = (hi - lo) / target
    mag = 10.0 ** math.floor(math.log10(raw))
    for mult in (1.0, 2.0, 5.0, 10.0):
        if raw <= mult * mag:
            step = mult * mag
            break
    first = math.ceil(lo / step) * step
    ticks = []
    v = first
    while v <= hi + step * 1e-9:
        ticks.append(0.0 if abs(v) < step * 1e-9 else v)
        v += step
    return ticks


@dataclass(frozen=True)
class Series:
    """Named point set; drawn as markers, optionally connected."""

    name: str
    points: tuple[tuple[float, float], ...]
    connect: bool = False


def _data_range(values: Sequence[float]) -> tuple[float, float]:
    lo, hi = min(values), max(values)
    if lo == hi:
        pad = abs(lo) * 0.1 or 1.0
        return lo - pad, hi + pad
    pad = (hi - lo) * 0.05
    return lo - pad, hi + pad


def _frame(title: str) -> list[str]:
    """Opening tag, white background and title shared by every chart."""
    return [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH:g}" height="{HEIGHT:g}" '
        f'viewBox="0 0 {WIDTH:g} {HEIGHT:g}" font-family="sans-serif" font-size="12">',
        f'<rect width="{WIDTH:g}" height="{HEIGHT:g}" fill="white"/>',
        f'<text x="{_px(WIDTH / 2)}" y="22" text-anchor="middle" font-size="15">'
        f"{_escape(title)}</text>",
    ]


def scatter_svg(series: Sequence[Series], title: str, x_label: str, y_label: str) -> str:
    """Scatter/line chart of one or more series."""
    if not series or not any(s.points for s in series):
        raise SchemaError("scatter chart needs at least one point")
    xs = [x for s in series for x, _ in s.points]
    ys = [y for s in series for _, y in s.points]
    x0, x1 = _data_range(xs)
    y0, y1 = _data_range(ys)

    def sx(x: float) -> float:
        return MARGIN_LEFT + (x - x0) / (x1 - x0) * PLOT_W

    def sy(y: float) -> float:
        return MARGIN_TOP + PLOT_H - (y - y0) / (y1 - y0) * PLOT_H

    out = _frame(title)
    # axes and ticks
    ax_b = MARGIN_TOP + PLOT_H
    ax_r = MARGIN_LEFT + PLOT_W
    out.append(
        f'<line x1="{_px(MARGIN_LEFT)}" y1="{_px(ax_b)}" x2="{_px(ax_r)}" y2="{_px(ax_b)}" '
        'stroke="black"/>'
    )
    out.append(
        f'<line x1="{_px(MARGIN_LEFT)}" y1="{_px(MARGIN_TOP)}" x2="{_px(MARGIN_LEFT)}" '
        f'y2="{_px(ax_b)}" stroke="black"/>'
    )
    for tx in _nice_ticks(x0, x1):
        out.append(
            f'<line x1="{_px(sx(tx))}" y1="{_px(ax_b)}" x2="{_px(sx(tx))}" y2="{_px(ax_b + 5)}" '
            'stroke="black"/>'
        )
        out.append(
            f'<text x="{_px(sx(tx))}" y="{_px(ax_b + 18)}" text-anchor="middle">{tx:g}</text>'
        )
    for ty in _nice_ticks(y0, y1):
        out.append(
            f'<line x1="{_px(MARGIN_LEFT - 5)}" y1="{_px(sy(ty))}" x2="{_px(MARGIN_LEFT)}" '
            f'y2="{_px(sy(ty))}" stroke="black"/>'
        )
        out.append(
            f'<text x="{_px(MARGIN_LEFT - 8)}" y="{_px(sy(ty) + 4)}" text-anchor="end">'
            f"{ty:g}</text>"
        )
    out.append(
        f'<text x="{_px(MARGIN_LEFT + PLOT_W / 2)}" y="{_px(HEIGHT - 14)}" '
        f'text-anchor="middle">{_escape(x_label)}</text>'
    )
    out.append(
        f'<text x="16" y="{_px(MARGIN_TOP + PLOT_H / 2)}" text-anchor="middle" '
        f'transform="rotate(-90 16 {_px(MARGIN_TOP + PLOT_H / 2)})">{_escape(y_label)}</text>'
    )
    for si, s in enumerate(series):
        color = PALETTE[si % len(PALETTE)]
        if s.connect and len(s.points) > 1:
            path = " ".join(f"{_px(sx(x))},{_px(sy(y))}" for x, y in s.points)
            out.append(f'<polyline points="{path}" fill="none" stroke="{color}" stroke-width="1.5"/>')
        for x, y in s.points:
            out.append(
                f'<circle cx="{_px(sx(x))}" cy="{_px(sy(y))}" r="3.5" fill="{color}" '
                f'data-x="{x!r}" data-y="{y!r}"/>'
            )
    if len(series) > 1:
        for si, s in enumerate(series):
            ly = MARGIN_TOP + 8 + 16 * si
            color = PALETTE[si % len(PALETTE)]
            out.append(f'<circle cx="{_px(ax_r - 130)}" cy="{_px(ly)}" r="4" fill="{color}"/>')
            out.append(f'<text x="{_px(ax_r - 120)}" y="{_px(ly + 4)}">{_escape(s.name)}</text>')
    out.append("</svg>")
    return "\n".join(out) + "\n"


def bar_svg(categories: Sequence[str], values: Sequence[float], title: str, y_label: str) -> str:
    """Vertical bar chart over labelled categories."""
    if not categories or len(categories) != len(values):
        raise SchemaError("bar chart needs matching non-empty categories and values")
    y0 = min(0.0, min(values))
    y1 = max(values)
    if y1 <= y0:
        y1 = y0 + 1.0
    ax_b = MARGIN_TOP + PLOT_H

    def sy(y: float) -> float:
        return MARGIN_TOP + PLOT_H - (y - y0) / (y1 - y0) * PLOT_H

    slot = PLOT_W / len(categories)
    bar_w = slot * 0.6
    out = [
        *_frame(title),
        f'<line x1="{_px(MARGIN_LEFT)}" y1="{_px(ax_b)}" x2="{_px(MARGIN_LEFT + PLOT_W)}" '
        f'y2="{_px(ax_b)}" stroke="black"/>',
        f'<line x1="{_px(MARGIN_LEFT)}" y1="{_px(MARGIN_TOP)}" x2="{_px(MARGIN_LEFT)}" '
        f'y2="{_px(ax_b)}" stroke="black"/>',
    ]
    for ty in _nice_ticks(y0, y1):
        out.append(
            f'<line x1="{_px(MARGIN_LEFT - 5)}" y1="{_px(sy(ty))}" x2="{_px(MARGIN_LEFT)}" '
            f'y2="{_px(sy(ty))}" stroke="black"/>'
        )
        out.append(
            f'<text x="{_px(MARGIN_LEFT - 8)}" y="{_px(sy(ty) + 4)}" text-anchor="end">'
            f"{ty:g}</text>"
        )
    for i, (cat, val) in enumerate(zip(categories, values)):
        cx = MARGIN_LEFT + slot * (i + 0.5)
        top = sy(max(val, 0.0))
        h = abs(sy(val) - sy(0.0))
        out.append(
            f'<rect x="{_px(cx - bar_w / 2)}" y="{_px(top)}" width="{_px(bar_w)}" '
            f'height="{_px(h)}" fill="{PALETTE[0]}" data-x="{_escape(cat)}" data-y="{val!r}"/>'
        )
        out.append(
            f'<text x="{_px(cx)}" y="{_px(ax_b + 18)}" text-anchor="middle">{_escape(cat)}</text>'
        )
    out.append(
        f'<text x="16" y="{_px(MARGIN_TOP + PLOT_H / 2)}" text-anchor="middle" '
        f'transform="rotate(-90 16 {_px(MARGIN_TOP + PLOT_H / 2)})">{_escape(y_label)}</text>'
    )
    out.append("</svg>")
    return "\n".join(out) + "\n"
