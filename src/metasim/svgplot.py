"""Minimal deterministic SVG line charts.

Plots are a convenience artifact; the CSV files are the contract. The
emitter is self-contained and fully deterministic: same series in, same
bytes out. Output is a single-series line chart with a handful of axis
ticks, optionally with a log-scaled y axis.
"""

from __future__ import annotations

import math
import sys

__all__ = ["line_chart"]

_W, _H = 800, 500
_ML, _MR, _MT, _MB = 70, 20, 40, 50


def _ticks(lo: float, hi: float) -> list[float]:
    """Round tick positions covering [lo, hi], at most six of them."""
    lo, hi = max(lo, -sys.float_info.max), min(hi, sys.float_info.max)
    raw = (hi - lo) / 5
    if not sys.float_info.min <= raw < math.inf:
        # no range, or one that no float stride can step
        return [lo]
    mag = 10.0 ** math.floor(math.log10(raw))
    for mult in (1.0, 2.0, 2.5, 5.0, 10.0):
        if raw <= mult * mag:
            stride = mult * mag
            break
    # tick k sits at k * stride, so no tick waits on a sum that a stride
    # below half an ulp of lo would never move
    first = math.ceil(lo / stride)
    last = min(math.floor(hi / stride + 1e-9), first + 5)
    return [k * stride for k in range(first, last + 1)] or [lo]


def _axis(vs: list[float]) -> tuple[float, float, float]:
    """Scale and range ``(s, lo, hi)`` of one axis, the range in scaled
    units. Values past 2**1012 are scaled by 2**-12, exactly, so spans
    stay finite; a flat range widens by 0.5 * max(1, |v|) each way, wide
    enough to show against |v| however large."""
    s = 1.0 if max(map(abs, vs)) <= 2.0**1012 else 2.0**-12
    lo, hi = min(vs) * s, max(vs) * s
    if hi == lo:
        half = 0.5 * max(1.0, abs(lo))
        lo, hi = lo - half, hi + half
    return s, lo, hi


def _fmt(x: float) -> str:
    return f"{x:g}"


def line_chart(x, y, title: str, y_label: str = "", log_y: bool = False) -> str:
    """Render one series against time as an SVG document string."""
    xs = [float(v) for v in x]
    ys = [float(v) for v in y]
    if len(xs) != len(ys) or not xs:
        raise ValueError("x and y must be equal-length and nonempty")

    if log_y:
        positive = [v for v in ys if v > 0]
        floor = min(positive) if positive else 1.0
        ys_t = [math.log10(max(v, floor)) for v in ys]
    else:
        ys_t = ys

    sx, x_lo, x_hi = _axis(xs)
    sy, y_lo, y_hi = _axis(ys_t)
    pad = 0.05 * (y_hi - y_lo)
    y_lo -= pad
    y_hi += pad

    plot_w = _W - _ML - _MR
    plot_h = _H - _MT - _MB

    def px(v: float) -> float:
        return _ML + plot_w * (v * sx - x_lo) / (x_hi - x_lo)

    def py(v: float) -> float:
        return _MT + plot_h * (1.0 - (v * sy - y_lo) / (y_hi - y_lo))

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
        f'viewBox="0 0 {_W} {_H}">',
        f'<rect width="{_W}" height="{_H}" fill="white"/>',
        f'<text x="{_W / 2:.0f}" y="24" text-anchor="middle" '
        f'font-family="sans-serif" font-size="16">{title}</text>',
    ]

    for tx in _ticks(x_lo / sx, x_hi / sx):
        X = px(tx)
        parts.append(
            f'<line x1="{X:.2f}" y1="{_MT}" x2="{X:.2f}" y2="{_H - _MB}" '
            f'stroke="#ddd" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{X:.2f}" y="{_H - _MB + 20}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="12">{_fmt(tx)}</text>'
        )
    for ty in _ticks(y_lo / sy, y_hi / sy):
        Y = py(ty)
        label = f"1e{ty:g}" if log_y else _fmt(ty)
        parts.append(
            f'<line x1="{_ML}" y1="{Y:.2f}" x2="{_W - _MR}" y2="{Y:.2f}" '
            f'stroke="#ddd" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{_ML - 8}" y="{Y + 4:.2f}" text-anchor="end" '
            f'font-family="sans-serif" font-size="12">{label}</text>'
        )

    parts.append(
        f'<rect x="{_ML}" y="{_MT}" width="{plot_w}" height="{plot_h}" '
        f'fill="none" stroke="#333" stroke-width="1"/>'
    )
    parts.append(
        f'<text x="{_W / 2:.0f}" y="{_H - 12}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="13">t</text>'
    )
    if y_label:
        parts.append(
            f'<text x="18" y="{_H / 2:.0f}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="13" '
            f'transform="rotate(-90 18 {_H / 2:.0f})">{y_label}</text>'
        )

    coords = " ".join(f"{px(a):.2f},{py(b):.2f}" for a, b in zip(xs, ys_t))
    parts.append(
        f'<polyline points="{coords}" fill="none" stroke="#1f6fb2" stroke-width="1.5"/>'
    )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
