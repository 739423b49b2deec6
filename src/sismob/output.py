"""Trajectory CSV serialization and dependency-free SVG line plots.

The CSV schema is shared by deterministic and stochastic runs:
header `t,p_1..p_n,x_1..x_n`, one row per sample, every value printed
with %.17g so float64 values survive a round trip exactly.
"""

from __future__ import annotations

import numpy as np

PALETTE = (
    "#1f6f8b", "#c44536", "#3a7d44", "#7d5ba6", "#c7832b",
    "#2b6cb0", "#9c3848", "#5f7470", "#b05599", "#6b705c",
)

WIDTH = 800
HEIGHT = 500
MARGIN_L, MARGIN_R, MARGIN_T, MARGIN_B = 70, 20, 40, 55
# about this many ticks per axis
TICK_TARGET = 6


def _fmt(v: float) -> str:
    return "%.17g" % v


def trajectory_csv(times, p, x) -> str:
    """Serialize aligned (m,), (m, n), (m, n) arrays."""
    times = np.asarray(times, dtype=float)
    p = np.atleast_2d(np.asarray(p, dtype=float))
    x = np.atleast_2d(np.asarray(x, dtype=float))
    if not (len(times) == len(p) == len(x)) or p.shape != x.shape:
        raise ValueError("times, p, x shapes do not line up")
    n = p.shape[1]
    header = (
        "t,"
        + ",".join(f"p_{k}" for k in range(1, n + 1))
        + ","
        + ",".join(f"x_{k}" for k in range(1, n + 1))
    )
    lines = [header]
    for row in range(len(times)):
        vals = [times[row], *p[row], *x[row]]
        lines.append(",".join(_fmt(v) for v in vals))
    return "\n".join(lines) + "\n"


def parse_trajectory_csv(text: str):
    """Inverse of trajectory_csv: returns (times, p, x)."""
    lines = [ln for ln in text.strip().splitlines() if ln.strip()]
    header = lines[0].split(",")
    if header[0] != "t" or (len(header) - 1) % 2 != 0:
        raise ValueError(f"unrecognized trajectory header {lines[0]!r}")
    n = (len(header) - 1) // 2
    data = np.array([[float(tok) for tok in ln.split(",")] for ln in lines[1:]])
    if data.shape[1] != 2 * n + 1:
        raise ValueError("row width does not match header")
    return data[:, 0], data[:, 1 : n + 1], data[:, n + 1 :]


def nice_ticks(lo: float, hi: float):
    """About TICK_TARGET tick positions at round multiples of 1, 2, 2.5,
    or 5 times a power of ten, covering [lo, hi]."""
    if not np.isfinite(lo) or not np.isfinite(hi):
        raise ValueError("tick range must be finite")
    if hi <= lo:
        hi = lo + max(abs(lo), 1.0) * 1e-3
    raw = (hi - lo) / TICK_TARGET
    mag = 10.0 ** np.floor(np.log10(raw))
    step = 10.0 * mag
    for mult in (1.0, 2.0, 2.5, 5.0):
        if raw <= mult * mag:
            step = mult * mag
            break
    first = np.ceil(lo / step) * step
    ticks = []
    t = first
    while t <= hi + step * 1e-9:
        ticks.append(0.0 if abs(t) < step * 1e-9 else t)
        if t + step == t:
            # the range is narrower than the float spacing at t, so adding
            # step would never reach hi
            break
        t += step
    return ticks


def _tick_label(v: float) -> str:
    return "%.6g" % v


def line_plot_svg(times, series, title: str = "", ylabel: str = "") -> str:
    """Self-contained SVG line chart: one polyline per column of `series`.

    Non-finite samples break the corresponding line into segments, so
    undefined means (all-empty nodes in stochastic averages) render as
    gaps rather than spikes.
    """
    times = np.asarray(times, dtype=float)
    series = np.atleast_2d(np.asarray(series, dtype=float))
    if series.shape[0] != len(times):
        series = series.T
    if series.shape[0] != len(times):
        raise ValueError("series length does not match times")
    finite = series[np.isfinite(series)]
    if finite.size == 0:
        raise ValueError("no finite values to plot")

    x_lo, x_hi = float(times.min()), float(times.max())
    if x_hi <= x_lo:
        x_hi = x_lo + 1.0
    y_lo, y_hi = float(finite.min()), float(finite.max())
    if y_hi <= y_lo:
        pad = max(abs(y_lo), 1e-6)
        y_lo, y_hi = y_lo - 0.05 * pad, y_hi + 0.05 * pad
    else:
        pad = 0.05 * (y_hi - y_lo)
        y_lo, y_hi = y_lo - pad, y_hi + pad

    plot_w = WIDTH - MARGIN_L - MARGIN_R
    plot_h = HEIGHT - MARGIN_T - MARGIN_B

    def sx(t):
        return MARGIN_L + (t - x_lo) / (x_hi - x_lo) * plot_w

    def sy(v):
        return MARGIN_T + (y_hi - v) / (y_hi - y_lo) * plot_h

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 {WIDTH} {HEIGHT}">',
        f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
    ]
    if title:
        parts.append(
            f'<text x="{WIDTH / 2:.1f}" y="24" text-anchor="middle" '
            f'font-family="sans-serif" font-size="16">{title}</text>'
        )

    for t in nice_ticks(x_lo, x_hi):
        px = sx(t)
        parts.append(
            f'<line x1="{px:.2f}" y1="{MARGIN_T}" x2="{px:.2f}" '
            f'y2="{HEIGHT - MARGIN_B}" stroke="#dddddd" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{px:.2f}" y="{HEIGHT - MARGIN_B + 18}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="12">{_tick_label(t)}</text>'
        )
    for v in nice_ticks(y_lo, y_hi):
        py = sy(v)
        parts.append(
            f'<line x1="{MARGIN_L}" y1="{py:.2f}" x2="{WIDTH - MARGIN_R}" '
            f'y2="{py:.2f}" stroke="#dddddd" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{MARGIN_L - 8}" y="{py + 4:.2f}" text-anchor="end" '
            f'font-family="sans-serif" font-size="12">{_tick_label(v)}</text>'
        )
    parts.append(
        f'<rect x="{MARGIN_L}" y="{MARGIN_T}" width="{plot_w}" height="{plot_h}" '
        'fill="none" stroke="#333333" stroke-width="1"/>'
    )
    if ylabel:
        cy = MARGIN_T + plot_h / 2
        parts.append(
            f'<text x="16" y="{cy:.1f}" text-anchor="middle" font-family="sans-serif" '
            f'font-size="13" transform="rotate(-90 16 {cy:.1f})">{ylabel}</text>'
        )
    parts.append(
        f'<text x="{MARGIN_L + plot_w / 2:.1f}" y="{HEIGHT - 14}" text-anchor="middle" '
        'font-family="sans-serif" font-size="13">t</text>'
    )

    for col in range(series.shape[1]):
        color = PALETTE[col % len(PALETTE)]
        segment = []
        segments = []
        for row in range(len(times)):
            v = series[row, col]
            if np.isfinite(v):
                segment.append(f"{sx(times[row]):.2f},{sy(v):.2f}")
            elif segment:
                segments.append(segment)
                segment = []
        if segment:
            segments.append(segment)
        for seg in segments:
            if len(seg) == 1:
                cx, cy = seg[0].split(",")
                parts.append(f'<circle cx="{cx}" cy="{cy}" r="2" fill="{color}"/>')
            else:
                parts.append(
                    f'<polyline fill="none" stroke="{color}" stroke-width="1.3" '
                    f'points="{" ".join(seg)}"/>'
                )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
