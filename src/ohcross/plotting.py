"""Deterministic SVG line plots.

Hand-rolled on purpose: the rendering contract is byte-identical output
for identical input, which rules out library version drift. Only the
small feature set the data files need is supported: one shared x column,
several y series, linear axes with 1-2-5 ticks, a legend.

Text contract, shared with the CLI that writes and reads the data files:
CSV cells print as "%.12g", SVG coordinates as "%.2f" and each axis's
tick labels as "%.6g", or with the fewest more significant digits (up to
17) that tell adjacent labels apart, so identical input gives
byte-identical output. Numbers are formatted a block at a time. The
pixel coordinates of all series are one numpy expression, elementwise in
the order of operations of the scalar formula, so each rounds as a
Python float would. All polylines' points are one array pass: each
coordinate's "%.2f" text is looked up in a table of integer parts and
one of two-digit decimals, indexed by rint(100 c). Those are the digits
"%.2f" prints whenever 100 c is in [0, 99999.5), not -0.0, and more than
1e-6 from a half-integer; if any coordinate is not, every polyline takes
the %-format instead.
"""

from __future__ import annotations

import math
import sys

import numpy as np

WIDTH = 800
HEIGHT = 560
MARGIN_LEFT = 70
MARGIN_RIGHT = 24
MARGIN_TOP = 44
MARGIN_BOTTOM = 54

PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd",
           "#ff7f0e", "#8c564b", "#17becf", "#7f7f7f")
DASHES = ("", "7,4", "2,3", "8,3,2,3", "5,2", "1,2", "9,2", "4,4")


class PlotError(ValueError):
    """Raised for input a line plot cannot be built from."""


# "%3d." for 0..999 and "%02d" for 0..99, one little-endian cell each.
_UNITS = np.frombuffer(b"".join(b"%3d." % k for k in range(1000)), "<u4")
_CENTS = np.frombuffer(b"".join(b"%02d" % k for k in range(100)), "<u2")
# One point "x,y " with each integer part space-padded to three digits.
_POINT = np.dtype({"names": ["xu", "xc", "comma", "yu", "yc", "sep"],
                   "formats": ["<u4", "<u2", "u1", "<u4", "<u2", "u1"],
                   "offsets": [0, 4, 6, 7, 11, 13], "itemsize": 14})


def _escape(text: str) -> str:
    return (str(text).replace("&", "&amp;").replace("<", "&lt;")
            .replace(">", "&gt;"))


def _nice_step(span: float) -> float:
    """Largest 1-2-5 step that yields at least ~5 intervals."""
    raw = span / 5.0
    magnitude = 10.0 ** math.floor(math.log10(raw))
    for mult in (1.0, 2.0, 5.0):
        if raw <= mult * magnitude * (1.0 + 1e-12):
            return mult * magnitude
    return 10.0 * magnitude


def _ticks(lo: float, hi: float, axis: str) -> list:
    """Tick values at a 1-2-5 step over [lo, hi]. PlotError names the axis
    where hi - lo overflows, or where the range is too narrow for the step
    to move a tick (a step below a smallest normal float would underflow)."""
    span = hi - lo
    if math.isinf(span):
        raise PlotError(f"{axis} range {lo!r} to {hi!r} overflows")
    narrow = PlotError(f"{axis} range {lo!r} to {hi!r} is too narrow to tick")
    if span < sys.float_info.min:
        raise narrow
    step = _nice_step(span)
    first = math.ceil(lo / step - 1e-9) * step
    out = []
    value = first
    while value <= hi + 1e-9 * step:
        out.append(0.0 if abs(value) < 1e-12 * step else value)
        if value + step == value:
            raise narrow
        value += step
    return out


def _tick_labels(ticks) -> list:
    """The ticks as %g with the fewest significant digits, from 6 to 17,
    that tell adjacent ticks apart (17 tell any two floats apart)."""
    for digits in range(6, 18):
        labels = ["%.*g" % (digits, tick) for tick in ticks]
        if all(lo != hi for lo, hi in zip(labels, labels[1:])):
            break
    return labels


def _points(x_px, y_px) -> list:
    """Each row of y_px paired with x_px as polyline points text: "%.2f,%.2f"
    per point, joined by spaces.

    "%.2f" rounds the exact binary value half to even. fl(100 c) is
    within about 1.1e-11 of the exact 100 c below 1e5, so where every
    100 c is at least 0, not -0.0, below 99999.5 and more than 1e-6 from
    a half-integer, rint(fl(100 c)) is the rounding "%.2f" makes, and the
    tables give its digits. Otherwise every row takes the %-format.
    """
    m = np.vstack([x_px, y_px]) * 100.0
    r = np.rint(m)
    if not ((m < 99999.5).all() and not np.signbit(m).any()
            and (np.abs(m - r) < 0.5 - 1e-6).all()):
        points_fmt = " ".join(["%.2f,%%.2f"] * len(x_px)) % tuple(x_px.tolist())
        return [points_fmt % tuple(row) for row in y_px.tolist()]
    units, cents = np.divmod(r.astype(np.intp), 100)
    cells = np.empty(y_px.shape, _POINT)
    cells["xu"] = _UNITS[units[0]]
    cells["xc"] = _CENTS[cents[0]]
    cells["comma"] = ord(",")
    cells["yu"] = _UNITS[units[1:]]
    cells["yc"] = _CENTS[cents[1:]]
    cells["sep"] = ord(" ")
    raw = cells.view(np.uint8).reshape(*y_px.shape, 14)
    # Drop the pad spaces and each row's last separator.
    keep = raw != ord(" ")
    keep[:, :-1, 13] = True
    ends = np.cumsum(keep.sum(axis=(1, 2))).tolist()
    text = raw[keep].tobytes().decode("ascii")
    return [text[lo:hi] for lo, hi in zip([0] + ends, ends)]


def render_line_plot(x, ys, labels, title: str = "",
                     x_label: str = "", y_label: str = "") -> str:
    """Render series against a shared abscissa as a standalone SVG string.

    The first series is drawn solid, the rest dashed, colors from a fixed
    palette. Coordinates are emitted with two decimals and tick labels
    with six significant digits, more where an axis needs them to tell its
    ticks apart, so equal input gives equal bytes.
    """
    xs = np.asarray(x, dtype=float)
    if len(xs) < 2:
        raise PlotError("need at least two x values")
    if len(ys) == 0:
        raise PlotError("need at least one y series")
    # lengths first: numpy refuses ragged series with its own message
    if any(len(y) != len(xs) for y in ys):
        raise PlotError("every series must match the length of x")
    series = np.asarray(ys, dtype=float)
    names = [str(v) for v in labels]
    if len(names) != len(series):
        raise PlotError("labels must match the number of series")
    if not (np.isfinite(xs).all() and np.isfinite(series).all()):
        raise PlotError("data contains non-finite values")

    x_lo, x_hi = float(xs.min()), float(xs.max())
    if x_hi == x_lo:
        raise PlotError("x range is singular")
    y_lo, y_hi = float(series.min()), float(series.max())
    if y_hi == y_lo:
        pad = max(abs(y_lo) * 0.1, 0.5)
        y_lo -= pad
        y_hi += pad

    plot_w = WIDTH - MARGIN_LEFT - MARGIN_RIGHT
    plot_h = HEIGHT - MARGIN_TOP - MARGIN_BOTTOM

    # Both take a float or an array.
    def px(v):
        return MARGIN_LEFT + (v - x_lo) / (x_hi - x_lo) * plot_w

    def py(v):
        return MARGIN_TOP + (y_hi - v) / (y_hi - y_lo) * plot_h

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" '
        f'height="{HEIGHT}" viewBox="0 0 {WIDTH} {HEIGHT}">',
        f'<rect x="0" y="0" width="{WIDTH}" height="{HEIGHT}" fill="#ffffff"/>',
    ]
    if title:
        parts.append(
            f'<text x="{WIDTH / 2:.2f}" y="24" font-family="sans-serif" '
            f'font-size="16" text-anchor="middle">{_escape(title)}</text>')

    axis_color = "#333333"
    grid_color = "#dddddd"
    x0, x1 = MARGIN_LEFT, MARGIN_LEFT + plot_w
    y0, y1 = MARGIN_TOP, MARGIN_TOP + plot_h
    ticks = _ticks(x_lo, x_hi, "x")
    for tick, label in zip(ticks, _tick_labels(ticks)):
        gx = px(tick)
        parts.append(f'<line x1="{gx:.2f}" y1="{y0}" x2="{gx:.2f}" y2="{y1}" '
                     f'stroke="{grid_color}" stroke-width="1"/>')
        parts.append(f'<line x1="{gx:.2f}" y1="{y1}" x2="{gx:.2f}" y2="{y1 + 5}" '
                     f'stroke="{axis_color}" stroke-width="1"/>')
        parts.append(f'<text x="{gx:.2f}" y="{y1 + 18}" font-family="sans-serif" '
                     f'font-size="11" text-anchor="middle">{label}</text>')
    ticks = _ticks(y_lo, y_hi, "y")
    for tick, label in zip(ticks, _tick_labels(ticks)):
        gy = py(tick)
        parts.append(f'<line x1="{x0}" y1="{gy:.2f}" x2="{x1}" y2="{gy:.2f}" '
                     f'stroke="{grid_color}" stroke-width="1"/>')
        parts.append(f'<line x1="{x0 - 5}" y1="{gy:.2f}" x2="{x0}" y2="{gy:.2f}" '
                     f'stroke="{axis_color}" stroke-width="1"/>')
        parts.append(f'<text x="{x0 - 8}" y="{gy + 4:.2f}" font-family="sans-serif" '
                     f'font-size="11" text-anchor="end">{label}</text>')
    parts.append(f'<rect x="{x0}" y="{y0}" width="{plot_w}" height="{plot_h}" '
                 f'fill="none" stroke="{axis_color}" stroke-width="1"/>')
    if x_label:
        parts.append(
            f'<text x="{MARGIN_LEFT + plot_w / 2:.2f}" y="{HEIGHT - 14}" '
            f'font-family="sans-serif" font-size="13" '
            f'text-anchor="middle">{_escape(x_label)}</text>')
    if y_label:
        cx, cy = 18, MARGIN_TOP + plot_h / 2
        parts.append(
            f'<text x="{cx}" y="{cy:.2f}" font-family="sans-serif" '
            f'font-size="13" text-anchor="middle" '
            f'transform="rotate(-90 {cx} {cy:.2f})">{_escape(y_label)}</text>')

    for k, points in enumerate(_points(px(xs), py(series))):
        color = PALETTE[k % len(PALETTE)]
        dash = DASHES[k % len(DASHES)]
        dash_attr = f' stroke-dasharray="{dash}"' if dash else ""
        parts.append(f'<polyline fill="none" stroke="{color}" '
                     f'stroke-width="1.5"{dash_attr} points="{points}"/>')

    legend_x = x0 + 12
    legend_y = y0 + 10
    for k, name in enumerate(names):
        color = PALETTE[k % len(PALETTE)]
        dash = DASHES[k % len(DASHES)]
        dash_attr = f' stroke-dasharray="{dash}"' if dash else ""
        ly = legend_y + 16 * k
        parts.append(f'<line x1="{legend_x}" y1="{ly}" x2="{legend_x + 26}" '
                     f'y2="{ly}" stroke="{color}" stroke-width="1.5"{dash_attr}/>')
        parts.append(f'<text x="{legend_x + 32}" y="{ly + 4}" '
                     f'font-family="sans-serif" font-size="12">'
                     f'{_escape(name)}</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
