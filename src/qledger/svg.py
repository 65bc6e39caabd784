"""Minimal self-contained SVG line plots.

The CLI's plotting needs are a handful of labelled polylines with axis
ticks, which does not justify a plotting dependency.  Output is plain SVG
1.1 with no external references, parseable by any XML reader.
"""

from __future__ import annotations

import math
import sys

import numpy as np

from ._text import _decimal_text
from .qcore import STACK_BLOCK, ValidationError, _as_array

_COLORS = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#8c564b", "#e377c2")

_WIDTH = 720
_HEIGHT = 440
_MARGIN_L = 72
_MARGIN_R = 18
_MARGIN_T = 34
_MARGIN_B = 48


def _escape(text: str) -> str:
    """Text as SVG character data: ``&`` first, then ``>`` and ``<``; quotes
    stay as they are, since no label is written inside an attribute."""
    return text.replace("&", "&amp;").replace(">", "&gt;").replace("<", "&lt;")


def _text(x, y, body: str, anchor: str = "middle", size: int = 12, extra: str = "") -> str:
    """A ``<text>`` element at (x, y), each written as given, whose escaped
    ``body`` is drawn in sans-serif; ``extra`` is attribute text appended."""
    return (f'<text x="{x}" y="{y}" font-size="{size}" text-anchor="{anchor}" '
            f'font-family="sans-serif"{extra}>{_escape(body)}</text>')


def _gridline(x1, y1, x2, y2) -> str:
    """A light grey gridline from (x1, y1) to (x2, y2), each written as given."""
    return f'<line x1="{x1}" y1="{y1}" x2="{x2}" y2="{y2}" stroke="#dddddd" stroke-width="1"/>'


def _ticks(lo: float, hi: float) -> np.ndarray:
    """Around five ticks on a 1-2-5 grid covering [lo, hi]."""
    span = hi - lo
    raw = span / 4.0
    mag = 10.0 ** math.floor(math.log10(raw))
    for mult in (1.0, 2.0, 5.0, 10.0):
        step = mult * mag
        if raw <= step * (1.0 + 1e-12):
            break
    first = math.ceil(lo / step - 1e-9) * step
    ticks = np.arange(first, hi + 0.5 * step, step)
    # snap near-zero ticks that are pure rounding residue
    ticks[np.abs(ticks) < 1e-12 * span] = 0.0
    return ticks


def _pad_range(lo: float, hi: float) -> tuple[float, float]:
    if hi > lo:
        return lo, hi
    pad = max(abs(lo), 1.0) * 0.5
    return lo - pad, lo + pad


def line_plot(path, x, curves, title: str = "", xlabel: str = "t", ylabel: str = "") -> None:
    """Write labelled polylines over a shared x axis to an SVG file.

    ``curves`` is a sequence of (label, y-array) pairs; all arrays must
    match x in length and be finite, and each axis must span a width that
    is a finite normal float once padded.  A point is written as the bytes
    of ``"%.2f,%.2f" % (px, py)``, from ``_text._decimal_text``.
    """
    x = _as_array(x, "line_plot x", np.float64, "line_plot: x values must be finite")
    if x.ndim != 1 or x.size < 2:
        raise ValidationError("line_plot: x must be a 1-d array with at least 2 points")
    curves = [(str(label), y) for label, y in curves]
    if not curves:
        raise ValidationError("line_plot: at least one curve required")
    for i, (label, y) in enumerate(curves):
        finite = f"line_plot: curve {label!r} has non-finite values"
        y = _as_array(y, f"line_plot curve {label!r}", np.float64, finite)
        if y.shape != x.shape:
            raise ValidationError(f"line_plot: curve {label!r} length does not match x")
        curves[i] = (label, y)

    x_lo, x_hi = _pad_range(float(x.min()), float(x.max()))
    y_lo = min(float(y.min()) for _, y in curves)
    y_hi = max(float(y.max()) for _, y in curves)
    y_lo, y_hi = _pad_range(y_lo, y_hi)
    # breathing room so extremes do not sit on the frame
    y_pad = 0.05 * (y_hi - y_lo)
    y_lo -= y_pad
    y_hi += y_pad
    for axis, lo, hi in (("x", x_lo, x_hi), ("y", y_lo, y_hi)):
        # the ticks and the pixel scale divide by the span and take its logarithm
        if not (math.isfinite(hi - lo) and hi - lo >= sys.float_info.min):
            raise ValidationError(
                f"line_plot: the {axis} axis spans [{lo!r}, {hi!r}], whose width is not a finite normal float"
            )

    px_w = _WIDTH - _MARGIN_L - _MARGIN_R
    px_h = _HEIGHT - _MARGIN_T - _MARGIN_B

    # pixel coordinates of a float or, elementwise with the same arithmetic, an array
    def sx(v):
        return _MARGIN_L + (v - x_lo) / (x_hi - x_lo) * px_w

    def sy(v):
        return _MARGIN_T + (y_hi - v) / (y_hi - y_lo) * px_h

    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" height="{_HEIGHT}" '
        f'viewBox="0 0 {_WIDTH} {_HEIGHT}">',
        f'<rect width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>',
        f'<rect x="{_MARGIN_L}" y="{_MARGIN_T}" width="{px_w}" height="{px_h}" '
        'fill="none" stroke="#444444" stroke-width="1"/>',
    ]

    for tick in _ticks(x_lo, x_hi):
        px = sx(float(tick))
        if not (_MARGIN_L - 0.5 <= px <= _WIDTH - _MARGIN_R + 0.5):
            continue
        px = f"{px:.2f}"
        parts += [_gridline(px, _MARGIN_T, px, _MARGIN_T + px_h),
                  _text(px, _HEIGHT - _MARGIN_B + 18, format(tick, ".6g"))]
    for tick in _ticks(y_lo, y_hi):
        py = sy(float(tick))
        if not (_MARGIN_T - 0.5 <= py <= _HEIGHT - _MARGIN_B + 0.5):
            continue
        py, text_y = f"{py:.2f}", f"{py + 4:.2f}"
        parts += [_gridline(_MARGIN_L, py, _MARGIN_L + px_w, py),
                  _text(_MARGIN_L - 8, text_y, format(tick, ".6g"), "end")]

    tail = [_text(f"{_WIDTH / 2:.0f}", _MARGIN_T - 12, title, size=14)] if title else []
    tail.append(_text(f"{_MARGIN_L + px_w / 2:.0f}", _HEIGHT - 10, xlabel))
    if ylabel:
        mid = f"{_MARGIN_T + px_h / 2:.0f}"
        tail.append(_text(16, mid, ylabel, extra=f' transform="rotate(-90 16 {mid})"'))
    tail.append("</svg>")

    x_px = sx(x)
    with open(path, "w", newline="\n") as fh:
        fh.writelines(part + "\n" for part in parts)
        for idx, (label, y) in enumerate(curves):
            color = _COLORS[idx % len(_COLORS)]
            # the points of one block of STACK_BLOCK at a time, one space between any two
            fh.write('<polyline points="')
            for i in range(0, x.size, STACK_BLOCK):
                blk = slice(i, i + STACK_BLOCK)
                points = np.stack((x_px[blk], sy(y[blk])), axis=1)
                fh.write((" " if i else "") + _decimal_text(points, "%.2f", " "))
            fh.write(f'" fill="none" stroke="{color}" stroke-width="1.5"/>\n')
            legend_y = _MARGIN_T + 18 + 16 * idx
            fh.write(_text(_WIDTH - _MARGIN_R - 6, legend_y, label, "end", extra=f' fill="{color}"') + "\n")
        fh.writelines(part + "\n" for part in tail)
