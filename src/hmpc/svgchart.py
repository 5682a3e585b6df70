"""Tiny dependency-free SVG line charts.

Enough for gap-versus-period plots: polylines on linear axes with
autoscaled ticks and a text legend.  Output is deterministic (fixed
number formatting, no timestamps), so chart files diff cleanly.
"""

from __future__ import annotations

import math
from xml.sax.saxutils import escape

PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#8c564b", "#e377c2")
WIDTH, HEIGHT = 720, 360  # pixels


def _nice_ticks(lo: float, hi: float, target: int = 5) -> list[float]:
    if hi <= lo:
        hi = lo + (abs(lo) if lo else 1.0)
    span = hi - lo
    step = 10.0 ** math.floor(math.log10(span / target))
    for mult in (1.0, 2.0, 2.5, 5.0, 10.0):
        if span / (step * mult) <= target:
            step *= mult
            break
    ticks = []
    t = math.ceil(lo / step - 1e-9) * step
    while t <= hi + 1e-9 * span:
        ticks.append(0.0 if abs(t) < 1e-9 * span else t)
        t += step
    return ticks


def _span(values) -> tuple[float, float]:
    lo, hi = min(values), max(values)
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ValueError("chart data must be finite")
    if hi == lo:
        pad = abs(lo) if lo else 1.0
        return lo - 0.05 * pad, hi + 0.05 * pad
    pad = 0.04 * (hi - lo)
    return lo - pad, hi + pad


def polyline_chart(
    series,
    path,
    title: str = "",
    x_label: str = "",
    y_label: str = "",
) -> None:
    """Write a line chart to ``path``.

    ``series`` is a list of (name, xs, ys) triples sharing axes; colors
    cycle through a fixed palette in series order.
    """
    series = [(name, list(xs), list(ys)) for name, xs, ys in series]
    if not series or any(len(xs) != len(ys) or not xs for _, xs, ys in series):
        raise ValueError("each series needs matching, non-empty xs and ys")

    x_lo, x_hi = _span([x for _, xs, _ in series for x in xs])
    y_lo, y_hi = _span([y for _, _, ys in series for y in ys])
    left, right, top, bottom = 64, 14, 30, 42
    inner_w, inner_h = WIDTH - left - right, HEIGHT - top - bottom

    def px(x):
        return left + (x - x_lo) / (x_hi - x_lo) * inner_w

    def py(y):
        return top + (y_hi - y) / (y_hi - y_lo) * inner_h

    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
        f'viewBox="0 0 {WIDTH} {HEIGHT}" font-family="sans-serif" font-size="11">',
        f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
    ]
    if title:
        out.append(
            f'<text x="{WIDTH / 2:.1f}" y="18" text-anchor="middle" '
            f'font-size="13">{escape(title)}</text>'
        )

    for t in _nice_ticks(x_lo, x_hi):
        x = px(t)
        out.append(
            f'<line x1="{x:.2f}" y1="{top}" x2="{x:.2f}" y2="{top + inner_h}" '
            'stroke="#dddddd" stroke-width="1"/>'
        )
        out.append(
            f'<text x="{x:.2f}" y="{top + inner_h + 16}" '
            f'text-anchor="middle">{t:.6g}</text>'
        )
    for t in _nice_ticks(y_lo, y_hi):
        y = py(t)
        out.append(
            f'<line x1="{left}" y1="{y:.2f}" x2="{left + inner_w}" y2="{y:.2f}" '
            'stroke="#dddddd" stroke-width="1"/>'
        )
        out.append(
            f'<text x="{left - 6}" y="{y + 4:.2f}" text-anchor="end">{t:.6g}</text>'
        )
    out.append(
        f'<rect x="{left}" y="{top}" width="{inner_w}" height="{inner_h}" '
        'fill="none" stroke="#444444"/>'
    )

    for k, (name, xs, ys) in enumerate(series):
        color = PALETTE[k % len(PALETTE)]
        points = " ".join(f"{px(x):.2f},{py(y):.2f}" for x, y in zip(xs, ys))
        out.append(
            f'<polyline points="{points}" fill="none" stroke="{color}" '
            'stroke-width="1.5"/>'
        )
        ly = top + 14 + 14 * k
        out.append(
            f'<line x1="{left + inner_w - 130}" y1="{ly - 4}" '
            f'x2="{left + inner_w - 112}" y2="{ly - 4}" stroke="{color}" '
            'stroke-width="2"/>'
        )
        out.append(f'<text x="{left + inner_w - 106}" y="{ly}">{escape(name)}</text>')

    if x_label:
        out.append(
            f'<text x="{left + inner_w / 2:.1f}" y="{HEIGHT - 8}" '
            f'text-anchor="middle">{escape(x_label)}</text>'
        )
    if y_label:
        out.append(
            f'<text x="14" y="{top + inner_h / 2:.1f}" text-anchor="middle" '
            f'transform="rotate(-90 14 {top + inner_h / 2:.1f})">{escape(y_label)}</text>'
        )
    out.append("</svg>")
    with open(path, "w") as fh:
        fh.write("\n".join(out) + "\n")
