"""Minimal hand-rolled SVG plots: no rendering dependency, deterministic output."""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np

_WIDTH = 720
_HEIGHT = 460
_MARGIN_L = 72
_MARGIN_R = 24
_MARGIN_T = 36
_MARGIN_B = 52
_COLORS = ("#1b1b1b", "#c82020", "#2050c8", "#208040", "#b06000", "#707070")
_N_TICKS = 5
_RAMP_STOPS = np.array([(20, 20, 90), (40, 90, 180), (240, 230, 80), (200, 40, 30)])
_MAX_CELLS = 240  # heat_map strides larger grids down to at most this many cells per axis


def _fmt(v: float) -> str:
    return f"{v:.6g}"


def _ticks(lo: float, hi: float, n: int = _N_TICKS) -> list[float]:
    if not hi > lo:
        return [lo]
    return [lo + (hi - lo) * i / (n - 1) for i in range(n)]


class _Canvas:
    def __init__(self, title: str, meta: str = ""):
        self.parts = [
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" height="{_HEIGHT}" '
            f'viewBox="0 0 {_WIDTH} {_HEIGHT}">',
        ]
        if meta:
            # a comment may not hold "--"; in JSON it only occurs inside strings, where "-\\u002d" reads back as "--"
            self.parts.append("<!-- " + meta.replace("--", "-\\u002d") + " -->")
        self.parts.append(f'<rect width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>')
        if title:
            self.text(_WIDTH / 2, _MARGIN_T - 14, title, anchor="middle", size=14)

    def text(self, x, y, s, *, anchor="start", size=11, rotate=None):
        transform = f' transform="rotate(-90 {_fmt(x)} {_fmt(y)})"' if rotate else ""
        self.parts.append(
            f'<text x="{_fmt(x)}" y="{_fmt(y)}" font-family="sans-serif" font-size="{size}" '
            f'text-anchor="{anchor}"{transform}>{s}</text>'
        )

    def line(self, x1, y1, x2, y2, color="#000000", width=1.0):
        self.parts.append(
            f'<line x1="{_fmt(x1)}" y1="{_fmt(y1)}" x2="{_fmt(x2)}" y2="{_fmt(y2)}" '
            f'stroke="{color}" stroke-width="{width}"/>'
        )

    def polyline(self, points, color, width=1.3):
        if len(points) < 2:
            return
        pts = " ".join(f"{_fmt(x)},{_fmt(y)}" for x, y in points)
        self.parts.append(
            f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="{width}"/>'
        )

    def write(self, path) -> Path:
        path = Path(path)
        self.parts.append("</svg>")
        path.write_text("\n".join(self.parts) + "\n", encoding="utf-8")
        return path


def _axes(canvas, xlo, xhi, ylo, yhi, xlabel, ylabel, logy):
    x0, x1 = _MARGIN_L, _WIDTH - _MARGIN_R
    y0, y1 = _HEIGHT - _MARGIN_B, _MARGIN_T
    canvas.line(x0, y0, x1, y0)
    canvas.line(x0, y0, x0, y1)
    for tx in _ticks(xlo, xhi):
        px = x0 + (tx - xlo) / (xhi - xlo) * (x1 - x0)
        canvas.line(px, y0, px, y0 + 4)
        canvas.text(px, y0 + 18, _fmt(tx), anchor="middle")
    for ty in _ticks(ylo, yhi):
        py = y0 + (ty - ylo) / (yhi - ylo) * (y1 - y0)
        canvas.line(x0 - 4, py, x0, py)
        label = _fmt(10.0**ty) if logy else _fmt(ty)
        canvas.text(x0 - 8, py + 4, label, anchor="end")
    if xlabel:
        canvas.text((x0 + x1) / 2, _HEIGHT - 12, xlabel, anchor="middle", size=12)
    if ylabel:
        canvas.text(18, (y0 + y1) / 2, ylabel, anchor="middle", size=12, rotate=True)
    return x0, x1, y0, y1


def line_plot(path, x, series, *, xlabel="", ylabel="", title="", logy=False, meta="") -> Path:
    """Overlayed line plot; series is a list of (label, values) pairs.

    With ``logy`` nonpositive samples are dropped (segments break there).
    """
    x = list(x)
    prepared = []
    for label, values in series:
        pts = []
        for xi, vi in zip(x, values):
            if vi is None or not math.isfinite(vi) or (logy and vi <= 0):
                pts.append(None)
            else:
                pts.append((xi, math.log10(vi) if logy else vi))
        prepared.append((label, pts))

    ys = [p[1] for _, pts in prepared for p in pts if p is not None]
    if not ys:
        raise ValueError("nothing to plot")
    ylo, yhi = min(ys), max(ys)
    if yhi == ylo:
        ylo, yhi = ylo - 0.5, yhi + 0.5
    xlo, xhi = min(x), max(x)
    if xhi == xlo:
        xlo, xhi = xlo - 0.5, xhi + 0.5

    canvas = _Canvas(title, meta)
    x0, x1, y0, y1 = _axes(canvas, xlo, xhi, ylo, yhi, xlabel, ylabel, logy)

    def to_px(point):
        px = x0 + (point[0] - xlo) / (xhi - xlo) * (x1 - x0)
        py = y0 + (point[1] - ylo) / (yhi - ylo) * (y1 - y0)
        return px, py

    for idx, (label, pts) in enumerate(prepared):
        color = _COLORS[idx % len(_COLORS)]
        segment = []
        for p in pts:
            if p is None:
                canvas.polyline(segment, color)
                segment = []
            else:
                segment.append(to_px(p))
        canvas.polyline(segment, color)
        ly = _MARGIN_T + 16 + 16 * idx
        canvas.line(x1 - 132, ly - 4, x1 - 112, ly - 4, color, 2.0)
        canvas.text(x1 - 106, ly, label)
    return canvas.write(path)


def _ramp(t):
    """Dark blue -> red colors '#rrggbb' for an array of t in [0, 1] (clipped)."""
    t = np.clip(t, 0.0, 1.0) * (len(_RAMP_STOPS) - 1)
    i = np.minimum(t.astype(int), len(_RAMP_STOPS) - 2)
    f = (t - i)[..., None]
    lo, hi = _RAMP_STOPS[i], _RAMP_STOPS[i + 1]
    rgb = np.rint(lo + (hi - lo) * f).astype(int)  # rint rounds half to even, like round()
    codes, inverse = np.unique((rgb[..., 0] << 16) | (rgb[..., 1] << 8) | rgb[..., 2], return_inverse=True)
    names = np.array([f"#{c:06x}" for c in codes.tolist()], dtype=object)
    return names[inverse.reshape(t.shape)]


def heat_map(path, x, y, values, *, xlabel="", ylabel="", title="", logz=True, meta="") -> Path:
    """Colored-cell map of values[i][j] over (x[i], y[j]); large grids are strided."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    z = np.asarray(values, dtype=float)
    sx = max(1, int(math.ceil(x.size / _MAX_CELLS)))
    sy = max(1, int(math.ceil(y.size / _MAX_CELLS)))
    x, y, z = x[::sx], y[::sy], z[::sx, ::sy]
    if logz:
        floor = z[z > 0].min() if np.any(z > 0) else 1.0
        z = np.log10(np.maximum(z, floor))
    zlo, zhi = float(z.min()), float(z.max())
    if zhi == zlo:
        zhi = zlo + 1.0

    canvas = _Canvas(title, meta)
    x0, x1 = _MARGIN_L, _WIDTH - _MARGIN_R
    y0, y1 = _HEIGHT - _MARGIN_B, _MARGIN_T
    cw = (x1 - x0) / x.size
    ch = (y0 - y1) / y.size
    colors = _ramp((z - zlo) / (zhi - zlo)).tolist()
    xs = [_fmt(x0 + i * cw) for i in range(x.size)]
    ys = [_fmt(y0 - (j + 1) * ch) for j in range(y.size)]
    size = f'width="{_fmt(cw + 0.5)}" height="{_fmt(ch + 0.5)}"'
    canvas.parts.extend(
        f'<rect x="{px}" y="{py}" {size} fill="{color}"/>'
        for px, row in zip(xs, colors)
        for py, color in zip(ys, row)
    )
    _axes(canvas, float(x.min()), float(x.max()), float(y.min()), float(y.max()), xlabel, ylabel, False)
    scale_label = "log10" if logz else "linear"
    canvas.text(x1, _MARGIN_T - 2, f"{scale_label}: {_fmt(zlo)} .. {_fmt(zhi)}", anchor="end")
    return canvas.write(path)
