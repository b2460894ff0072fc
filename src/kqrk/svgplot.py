"""Minimal deterministic SVG charts, no plotting dependency.

Two chart kinds cover the experiment outputs: semi-log line charts of
error against iteration, and log-log scatters.  Output is a plain SVG
string with fixed formatting (two-decimal pixel coordinates, no ids, no
timestamps) so a rerun with the same data is byte-identical.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = ["Series", "chart", "write_svg", "PALETTE", "THIN_TO"]

# Line colors in a familiar numeric-plotting order.
PALETTE = (
    "#0072bd",
    "#d95319",
    "#edb120",
    "#7e2f8e",
    "#77ac30",
    "#4dbeee",
    "#a2142f",
)
THIN_TO = 2000

_SIZE = (720, 540)
_MARGIN = {"left": 64.0, "right": 16.0, "top": 34.0, "bottom": 46.0}
_FONT = "DejaVu Sans, Helvetica, sans-serif"


@dataclass(frozen=True)
class Series:
    """One plotted data set; marker=None draws a line, else dots."""

    label: str
    x: np.ndarray
    y: np.ndarray
    marker: str | None = None


def _thin(idx_len: int) -> np.ndarray:
    if idx_len <= THIN_TO:
        return np.arange(idx_len)
    return np.unique(np.round(np.linspace(0, idx_len - 1, THIN_TO)).astype(np.intp))


def _nice_step(span: float, target: int) -> float:
    raw = span / max(target, 1)
    mag = 10.0 ** math.floor(math.log10(raw))
    for mult in (1.0, 2.0, 5.0, 10.0):
        if mult * mag >= raw:
            return mult * mag
    return 10.0 * mag


def _linear_ticks(lo: float, hi: float, target: int = 6) -> list[float]:
    if hi <= lo:
        hi = lo + 1.0
    step = _nice_step(hi - lo, target)
    first = math.ceil(lo / step) * step
    ticks = []
    t = first
    while t <= hi + 1e-9 * step:
        ticks.append(0.0 if abs(t) < 1e-12 * step else t)
        t += step
    return ticks


def _log_decades(lo: float, hi: float) -> list[int]:
    e0 = math.floor(math.log10(lo))
    e1 = math.ceil(math.log10(hi))
    stride = max(1, (e1 - e0) // 8)
    return list(range(e0, e1 + 1, stride))


def _fmt_lin(v: float) -> str:
    if v == 0:
        return "0"
    if abs(v) >= 10000 or abs(v) < 0.001:
        return f"{v:.0e}".replace("e+0", "e").replace("e-0", "e-").replace("e+", "e")
    return f"{v:g}"


def _px(v: float) -> str:
    return f"{v:.2f}"


def _esc(text: str) -> str:
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


class _Axis:
    """Maps data values to pixels, linear or log10."""

    def __init__(self, lo: float, hi: float, px_lo: float, px_hi: float, log: bool):
        self.log = log
        if log:
            lo, hi = math.log10(lo), math.log10(hi)
        if hi - lo < 1e-300:
            hi = lo + 1.0
        self.lo, self.hi = lo, hi
        self.px_lo, self.px_hi = px_lo, px_hi

    def __call__(self, v: float) -> float:
        t = (math.log10(v) if self.log else v) - self.lo
        return self.px_lo + (self.px_hi - self.px_lo) * t / (self.hi - self.lo)

    def positions(self, values: np.ndarray) -> np.ndarray:
        """``self(v)`` for every value, bit for bit, in one array pass.

        log10 stays ``math.log10`` per value and the arithmetic keeps
        ``__call__``'s order of operations.
        """
        t = np.array([math.log10(v) for v in values.tolist()]) if self.log else values
        return self.px_lo + (self.px_hi - self.px_lo) * (t - self.lo) / (self.hi - self.lo)


def _data_range(values: list[np.ndarray], log: bool) -> tuple[float, float]:
    lo, hi = math.inf, -math.inf
    for arr in values:
        keep = arr[np.isfinite(arr) & (arr > 0)] if log else arr[np.isfinite(arr)]
        if keep.size:
            lo = min(lo, float(keep.min()))
            hi = max(hi, float(keep.max()))
    if not math.isfinite(lo):
        return (0.1, 10.0) if log else (0.0, 1.0)
    if log:
        return lo, max(hi, lo * 10.0)
    pad = 0.02 * (hi - lo) if hi > lo else 1.0
    return lo - pad, hi + pad


def _text(x: float, y: float, size: int, fill: str, body: str,
          attrs: str = ' text-anchor="middle"') -> str:
    """One ``<text>`` element; ``body`` is escaped."""
    return (
        f'<text x="{_px(x)}" y="{_px(y)}" font-family="{_FONT}" font-size="{size}" '
        f'fill="{fill}"{attrs}>{_esc(body)}</text>'
    )


def chart(
    series: list[Series],
    *,
    title: str = "",
    xlabel: str = "",
    ylabel: str = "",
    xlog: bool = False,
    ylog: bool = True,
) -> str:
    """Render the series to an SVG string."""
    width, height = _SIZE
    left, right = _MARGIN["left"], width - _MARGIN["right"]
    top, bottom = _MARGIN["top"], height - _MARGIN["bottom"]

    xs = [np.asarray(s.x, dtype=np.float64).ravel() for s in series]
    ys = [np.asarray(s.y, dtype=np.float64).ravel() for s in series]
    if ylog:
        # points at/below zero get clamped one decade under the positive min,
        # or at the smallest normal float where that decade underflows to 0
        pos = [a[np.isfinite(a) & (a > 0)] for a in ys]
        smallest = min((float(a.min()) for a in pos if a.size), default=1e-16)
        floor = max(10.0 ** (math.floor(math.log10(smallest)) - 1), np.finfo(np.float64).tiny)
        ys = [np.maximum(a, floor) for a in ys]

    x_lo, x_hi = _data_range(xs, xlog)
    y_lo, y_hi = _data_range(ys, ylog)
    ax = _Axis(x_lo, x_hi, left, right, xlog)
    ay = _Axis(y_lo, y_hi, bottom, top, ylog)

    out: list[str] = []
    out.append(
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">'
    )
    out.append(f'<rect width="{width}" height="{height}" fill="#ffffff"/>')

    # grid lines and tick labels, x axis first
    for axis, lo, hi, log in ((ax, x_lo, x_hi, xlog), (ay, y_lo, y_hi, ylog)):
        if log:
            ticks = [(10.0**e, f"1e{e}") for e in _log_decades(lo, hi)]
        else:
            ticks = [(v, _fmt_lin(v)) for v in _linear_ticks(lo, hi)]
        for v, label in ticks:
            if not (lo <= v <= hi or math.isclose(v, lo) or math.isclose(v, hi)):
                continue
            at = axis(v)
            if axis is ax:
                x1, y1, x2, y2 = at, top, at, bottom
                out_text = _text(at, bottom + 18, 12, "#444444", label)
            else:
                x1, y1, x2, y2 = left, at, right, at
                out_text = _text(left - 6, at + 4, 12, "#444444", label, ' text-anchor="end"')
            out.append(
                f'<line x1="{_px(x1)}" y1="{_px(y1)}" x2="{_px(x2)}" y2="{_px(y2)}" '
                f'stroke="#e0e0e0" stroke-width="1"/>'
            )
            out.append(out_text)

    out.append(
        f'<rect x="{_px(left)}" y="{_px(top)}" width="{_px(right - left)}" '
        f'height="{_px(bottom - top)}" fill="none" stroke="#333333" stroke-width="1"/>'
    )

    for i, s in enumerate(series):
        color = PALETTE[i % len(PALETTE)]
        x, y = xs[i], ys[i]
        keep = np.isfinite(x) & np.isfinite(y)
        if xlog:
            keep &= x > 0
        x, y = x[keep], y[keep]
        if x.size == 0:
            continue
        idx = _thin(x.size)
        px, py = ax.positions(x[idx]).tolist(), ay.positions(y[idx]).tolist()
        if s.marker is None:
            points = " ".join(map("{:.2f},{:.2f}".format, px, py))  # _px's format
            out.append(
                f'<polyline points="{points}" fill="none" stroke="{color}" '
                f'stroke-width="1.6" stroke-linejoin="round"/>'
            )
        else:
            for u, v in zip(px, py):
                out.append(
                    f'<circle cx="{_px(u)}" cy="{_px(v)}" '
                    f'r="3.2" fill="{color}" fill-opacity="0.75"/>'
                )

    if title:
        out.append(_text((left + right) / 2, top - 12, 15, "#111111", title))
    if xlabel:
        out.append(_text((left + right) / 2, height - 10, 13, "#111111", xlabel))
    if ylabel:
        cx, cy = 16.0, (top + bottom) / 2
        rotate = f' text-anchor="middle" transform="rotate(-90 {_px(cx)} {_px(cy)})"'
        out.append(_text(cx, cy, 13, "#111111", ylabel, rotate))

    # legend, top-right inside the frame
    if any(s.label for s in series):
        lw = 10 + 8 * max(len(s.label) for s in series) + 34
        lh = 20 * len(series) + 8
        lx, ly = right - lw - 8, top + 8
        out.append(
            f'<rect x="{_px(lx)}" y="{_px(ly)}" width="{_px(lw)}" height="{_px(lh)}" '
            f'fill="#ffffff" fill-opacity="0.85" stroke="#999999" stroke-width="0.8"/>'
        )
        for i, s in enumerate(series):
            color = PALETTE[i % len(PALETTE)]
            yy = ly + 14 + 20 * i
            if s.marker is None:
                out.append(
                    f'<line x1="{_px(lx + 8)}" y1="{_px(yy)}" x2="{_px(lx + 30)}" y2="{_px(yy)}" '
                    f'stroke="{color}" stroke-width="2"/>'
                )
            else:
                out.append(
                    f'<circle cx="{_px(lx + 19)}" cy="{_px(yy)}" r="3.2" fill="{color}"/>'
                )
            out.append(_text(lx + 36, yy + 4, 12, "#111111", s.label, ""))

    out.append("</svg>")
    return "\n".join(out) + "\n"


def write_svg(path, svg_text: str) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(svg_text)
