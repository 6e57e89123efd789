"""Minimal deterministic SVG line charts for the bench harness.

Hand-rolled on purpose: identical input must produce byte-identical output,
which rules out plotting libraries that embed timestamps or generated ids.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


class PlotError(ValueError):
    pass


@dataclass(frozen=True)
class Series:
    label: str
    x: tuple[float, ...]
    y: tuple[float, ...]


_PALETTE = (
    "#1f77b4",
    "#d62728",
    "#2ca02c",
    "#9467bd",
    "#ff7f0e",
    "#8c564b",
    "#17becf",
    "#7f7f7f",
)

_W, _H = 840.0, 520.0
_ML, _MR, _MT, _MB = 72.0, 180.0, 48.0, 56.0


def _nice_ticks(lo: float, hi: float) -> list[float]:
    if hi <= lo:
        hi = lo + 1.0
    raw = (hi - lo) / 6  # about six steps per axis
    mag = 10.0 ** math.floor(math.log10(raw))
    for mult in (1.0, 2.0, 2.5, 5.0, 10.0):
        if raw <= mult * mag:
            step = mult * mag
            break
    first = math.ceil(lo / step) * step
    ticks = []
    t = first
    while t <= hi + 1e-9 * step:
        ticks.append(0.0 if abs(t) < 1e-12 * step else t)
        t += step
    return ticks


def _fmt(v: float) -> str:
    return f"{v:.6g}"


def render_line_chart(
    series: list[Series],
    title: str,
    xlabel: str,
    ylabel: str,
) -> str:
    """Standalone SVG with one polyline and one legend entry per series."""
    if not series:
        raise PlotError("at least one series is required")
    for s in series:
        if len(s.x) < 2 or len(s.x) != len(s.y):
            raise PlotError(f"series {s.label!r} needs at least 2 aligned points")

    xs = [v for s in series for v in s.x]
    ys = [v for s in series for v in s.y if math.isfinite(v)]
    if not ys:
        raise PlotError("no finite y values to plot")
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(ys), max(ys)
    if x_hi == x_lo:
        x_hi = x_lo + 1.0
    if y_hi == y_lo:
        y_lo, y_hi = y_lo - 1.0, y_hi + 1.0
    pad = 0.05 * (y_hi - y_lo)
    y_lo, y_hi = y_lo - pad, y_hi + pad

    px = lambda v: _ML + (v - x_lo) / (x_hi - x_lo) * (_W - _ML - _MR)
    py = lambda v: _H - _MB - (v - y_lo) / (y_hi - y_lo) * (_H - _MT - _MB)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_fmt(_W)}" height="{_fmt(_H)}" '
        f'viewBox="0 0 {_fmt(_W)} {_fmt(_H)}">',
        f'<rect width="{_fmt(_W)}" height="{_fmt(_H)}" fill="white"/>',
        f'<text x="{_fmt((_ML + _W - _MR) / 2)}" y="28" text-anchor="middle" '
        f'font-family="sans-serif" font-size="16">{_esc(title)}</text>',
    ]
    for t in _nice_ticks(x_lo, x_hi):
        gx = px(t)
        parts.append(
            f'<line x1="{_fmt(gx)}" y1="{_fmt(_MT)}" x2="{_fmt(gx)}" y2="{_fmt(_H - _MB)}" '
            f'stroke="#dddddd" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{_fmt(gx)}" y="{_fmt(_H - _MB + 18)}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="11">{_fmt(t)}</text>'
        )
    for t in _nice_ticks(y_lo, y_hi):
        gy = py(t)
        parts.append(
            f'<line x1="{_fmt(_ML)}" y1="{_fmt(gy)}" x2="{_fmt(_W - _MR)}" y2="{_fmt(gy)}" '
            f'stroke="#dddddd" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{_fmt(_ML - 8)}" y="{_fmt(gy + 4)}" text-anchor="end" '
            f'font-family="sans-serif" font-size="11">{_fmt(t)}</text>'
        )
    parts.append(
        f'<rect x="{_fmt(_ML)}" y="{_fmt(_MT)}" width="{_fmt(_W - _ML - _MR)}" '
        f'height="{_fmt(_H - _MT - _MB)}" fill="none" stroke="#333333"/>'
    )
    parts.append(
        f'<text x="{_fmt((_ML + _W - _MR) / 2)}" y="{_fmt(_H - 12)}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="13">{_esc(xlabel)}</text>'
    )
    parts.append(
        f'<text x="20" y="{_fmt((_MT + _H - _MB) / 2)}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="13" '
        f'transform="rotate(-90 20 {_fmt((_MT + _H - _MB) / 2)})">{_esc(ylabel)}</text>'
    )
    for i, s in enumerate(series):
        color = _PALETTE[i % len(_PALETTE)]
        pts = " ".join(
            f"{_fmt(px(xv))},{_fmt(py(yv))}" for xv, yv in zip(s.x, s.y) if math.isfinite(yv)
        )
        parts.append(
            f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="2"/>'
        )
        ly = _MT + 18 + 20 * i
        lx = _W - _MR + 14
        parts.append(
            f'<line x1="{_fmt(lx)}" y1="{_fmt(ly - 4)}" x2="{_fmt(lx + 26)}" y2="{_fmt(ly - 4)}" '
            f'stroke="{color}" stroke-width="2"/>'
        )
        parts.append(
            f'<text x="{_fmt(lx + 32)}" y="{_fmt(ly)}" font-family="sans-serif" '
            f'font-size="12">{_esc(s.label)}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def _esc(text: str) -> str:
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
