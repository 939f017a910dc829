"""Reference for ``cascavity.svgplot.heat_map``: one ramp evaluation per cell.

The cell loop, the scalar color ramp and the per-cell rectangle formatting
are the package's earlier code; the canvas, axes and number format are the
package's own, so this checks the cells only.
"""

import math
from pathlib import Path

import numpy as np

from cascavity.svgplot import _HEIGHT, _MARGIN_B, _MARGIN_L, _MARGIN_R, _MARGIN_T, _WIDTH, _axes, _canvas, _fmt


def ramp(t: float) -> str:
    """Dark blue -> red color ramp for t in [0, 1]."""
    stops = [(20, 20, 90), (40, 90, 180), (240, 230, 80), (200, 40, 30)]
    t = min(max(t, 0.0), 1.0) * (len(stops) - 1)
    i = min(int(t), len(stops) - 2)
    f = t - i
    rgb = [round(a + (b - a) * f) for a, b in zip(stops[i], stops[i + 1])]
    return f"#{rgb[0]:02x}{rgb[1]:02x}{rgb[2]:02x}"


def rect(canvas, x, y, w, h, color):
    canvas.add(f'<rect x="{_fmt(x)}" y="{_fmt(y)}" width="{_fmt(w)}" height="{_fmt(h)}" fill="{color}"/>')


def heat_map(path, x, y, values, *, xlabel="", ylabel="", title="", logz=True, max_cells=240, meta=""):
    """Colored-cell map of values[i][j] over (x[i], y[j]); large grids are strided."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    z = np.asarray(values, dtype=float)
    sx = max(1, int(math.ceil(x.size / max_cells)))
    sy = max(1, int(math.ceil(y.size / max_cells)))
    x, y, z = x[::sx], y[::sy], z[::sx, ::sy]
    if logz:
        floor = z[z > 0].min() if np.any(z > 0) else 1.0
        z = np.log10(np.maximum(z, floor))
    zlo, zhi = float(z.min()), float(z.max())
    if zhi == zlo:
        zhi = zlo + 1.0

    with _canvas(path, title, meta) as canvas:
        x0, x1 = _MARGIN_L, _WIDTH - _MARGIN_R
        y0, y1 = _HEIGHT - _MARGIN_B, _MARGIN_T
        cw = (x1 - x0) / x.size
        ch = (y0 - y1) / y.size
        for i in range(x.size):
            for j in range(y.size):
                t = (z[i, j] - zlo) / (zhi - zlo)
                rect(canvas, x0 + i * cw, y0 - (j + 1) * ch, cw + 0.5, ch + 0.5, ramp(t))
        _axes(canvas, float(x.min()), float(x.max()), float(y.min()), float(y.max()), xlabel, ylabel, False)
        scale_label = "log10" if logz else "linear"
        canvas.text(x1, _MARGIN_T - 2, f"{scale_label}: {_fmt(zlo)} .. {_fmt(zhi)}", anchor="end")
    return Path(path)
