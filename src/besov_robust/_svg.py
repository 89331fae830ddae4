"""Hand-rolled SVG log-log plots.

Figures are written as plain text with fixed float formatting so that
rerunning an experiment reproduces the file byte for byte. Only the
primitives the command-line front end needs are provided: scatter series
with error bars, straight reference lines, dyadic axis ticks, a legend.
"""

from __future__ import annotations

import math

PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")

_WIDTH = 720
_HEIGHT = 520
_MARGIN_LEFT = 74.0
_MARGIN_RIGHT = 190.0
_MARGIN_TOP = 44.0
_MARGIN_BOTTOM = 58.0


def _esc(text: str) -> str:
    return (
        str(text).replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
    )


def _fmt(v: float) -> str:
    # two decimals is below half a pixel everywhere on our canvases
    return f"{v:.2f}"


def _power_label(k: int) -> str:
    if 0 <= k <= 10:
        return str(2**k)
    return f"2^{k}"


def _ticks(lo: float, hi: float) -> list[int]:
    """Integer log2 tick positions, thinned to at most eight."""
    first = math.ceil(lo - 1e-9)
    last = math.floor(hi + 1e-9)
    if last < first:
        first = last = round((lo + hi) / 2.0)
    ks = list(range(first, last + 1))
    step = max(1, math.ceil(len(ks) / 8))
    return ks[::step]


class _Axes:
    def __init__(self, xs, ys):
        lx = [math.log2(v) for v in xs]
        ly = [math.log2(v) for v in ys]
        padx = 0.25 + 0.03 * (max(lx) - min(lx))
        pady = 0.25 + 0.05 * (max(ly) - min(ly))
        self.x0, self.x1 = min(lx) - padx, max(lx) + padx
        self.y0, self.y1 = min(ly) - pady, max(ly) + pady
        self.px0 = _MARGIN_LEFT
        self.px1 = _WIDTH - _MARGIN_RIGHT
        self.py0 = _MARGIN_TOP
        self.py1 = _HEIGHT - _MARGIN_BOTTOM

    def px(self, v: float) -> float:
        t = (math.log2(v) - self.x0) / (self.x1 - self.x0)
        return self.px0 + t * (self.px1 - self.px0)

    def py(self, v: float) -> float:
        t = (math.log2(v) - self.y0) / (self.y1 - self.y0)
        return self.py1 - t * (self.py1 - self.py0)


def log_log_svg(
    *,
    title: str,
    xlabel: str,
    ylabel: str,
    points=(),
    lines=(),
) -> str:
    """Render scatter series and reference lines on log-log axes.

    points: iterables of dicts {label, x, y, yerr (optional)}.
    lines: iterables of dicts {label, x, y, dash (optional bool)}.
    Every coordinate must be strictly positive. Colors cycle through a
    fixed palette in input order, points first.
    """
    points = list(points)
    lines = list(lines)
    xs, ys = [], []
    for s in points + lines:
        if len(s["x"]) != len(s["y"]) or not s["x"]:
            raise ValueError("a plot series needs matching nonempty x and y")
        for v in list(s["x"]) + list(s["y"]):
            if not (v > 0.0) or not math.isfinite(v):
                raise ValueError("log-log plots need positive finite values")
        xs.extend(s["x"])
        ys.extend(s["y"])
        for e, y in zip(s.get("yerr") or (), s["y"]):
            ys.append(y + e)
    ax = _Axes(xs, ys)

    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" '
        f'height="{_HEIGHT}" viewBox="0 0 {_WIDTH} {_HEIGHT}">',
        f'<rect x="0" y="0" width="{_WIDTH}" height="{_HEIGHT}" fill="#ffffff"/>',
        f'<text x="{_fmt(_WIDTH / 2.0)}" y="26" text-anchor="middle" '
        f'font-family="sans-serif" font-size="16">{_esc(title)}</text>',
    ]

    for k in _ticks(ax.x0, ax.x1):
        x = _fmt(ax.px(2.0**k))
        out.append(
            f'<line x1="{x}" y1="{_fmt(ax.py0)}" x2="{x}" y2="{_fmt(ax.py1)}" '
            f'stroke="#dddddd" stroke-width="1"/>'
        )
        out.append(
            f'<text x="{x}" y="{_fmt(ax.py1 + 18.0)}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="11">{_power_label(k)}</text>'
        )
    for k in _ticks(ax.y0, ax.y1):
        y = _fmt(ax.py(2.0**k))
        out.append(
            f'<line x1="{_fmt(ax.px0)}" y1="{y}" x2="{_fmt(ax.px1)}" y2="{y}" '
            f'stroke="#dddddd" stroke-width="1"/>'
        )
        out.append(
            f'<text x="{_fmt(ax.px0 - 6.0)}" y="{_fmt(float(y) + 4.0)}" '
            f'text-anchor="end" font-family="sans-serif" font-size="11">'
            f"{_power_label(k)}</text>"
        )
    out.append(
        f'<rect x="{_fmt(ax.px0)}" y="{_fmt(ax.py0)}" '
        f'width="{_fmt(ax.px1 - ax.px0)}" height="{_fmt(ax.py1 - ax.py0)}" '
        f'fill="none" stroke="#000000" stroke-width="1"/>'
    )
    out.append(
        f'<text x="{_fmt((ax.px0 + ax.px1) / 2.0)}" y="{_fmt(ax.py1 + 40.0)}" '
        f'text-anchor="middle" font-family="sans-serif" font-size="13">'
        f"{_esc(xlabel)}</text>"
    )
    out.append(
        f'<text x="20" y="{_fmt((ax.py0 + ax.py1) / 2.0)}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="13" transform="rotate(-90 20 '
        f'{_fmt((ax.py0 + ax.py1) / 2.0)})">{_esc(ylabel)}</text>'
    )

    legend = []
    color_i = 0
    for s in points:
        color = PALETTE[color_i % len(PALETTE)]
        color_i += 1
        err = s.get("yerr")
        for i, (x, y) in enumerate(zip(s["x"], s["y"])):
            px, py = ax.px(x), ax.py(y)
            if err is not None and err[i] > 0.0:
                hi = y + err[i]
                lo = max(y - err[i], 2.0**ax.y0)
                out.append(
                    f'<line x1="{_fmt(px)}" y1="{_fmt(ax.py(lo))}" '
                    f'x2="{_fmt(px)}" y2="{_fmt(ax.py(hi))}" '
                    f'stroke="{color}" stroke-width="1"/>'
                )
                for v in (lo, hi):
                    out.append(
                        f'<line x1="{_fmt(px - 3.0)}" y1="{_fmt(ax.py(v))}" '
                        f'x2="{_fmt(px + 3.0)}" y2="{_fmt(ax.py(v))}" '
                        f'stroke="{color}" stroke-width="1"/>'
                    )
            out.append(
                f'<circle cx="{_fmt(px)}" cy="{_fmt(py)}" r="3.5" '
                f'fill="{color}"/>'
            )
        legend.append((s["label"], color, False))
    for s in lines:
        color = PALETTE[color_i % len(PALETTE)]
        color_i += 1
        coords = " ".join(
            f"{_fmt(ax.px(x))},{_fmt(ax.py(y))}" for x, y in zip(s["x"], s["y"])
        )
        dash = ' stroke-dasharray="6,4"' if s.get("dash") else ""
        out.append(
            f'<polyline points="{coords}" fill="none" stroke="{color}" '
            f'stroke-width="1.8"{dash}/>'
        )
        legend.append((s["label"], color, True))

    ly = ax.py0 + 8.0
    lx = ax.px1 + 14.0
    for label, color, is_line in legend:
        if is_line:
            out.append(
                f'<line x1="{_fmt(lx)}" y1="{_fmt(ly)}" x2="{_fmt(lx + 22.0)}" '
                f'y2="{_fmt(ly)}" stroke="{color}" stroke-width="1.8"/>'
            )
        else:
            out.append(
                f'<circle cx="{_fmt(lx + 11.0)}" cy="{_fmt(ly)}" r="3.5" '
                f'fill="{color}"/>'
            )
        out.append(
            f'<text x="{_fmt(lx + 28.0)}" y="{_fmt(ly + 4.0)}" '
            f'font-family="sans-serif" font-size="12">{_esc(label)}</text>'
        )
        ly += 20.0

    out.append("</svg>")
    return "\n".join(out) + "\n"


def anchored_power_line(xs, anchor_x: float, anchor_y: float, slope: float):
    """x/y arrays for y = anchor_y * (x / anchor_x)^slope over the span of xs."""
    lo, hi = min(xs), max(xs)
    ys = [anchor_y * (v / anchor_x) ** slope for v in (lo, hi)]
    return [lo, hi], ys
