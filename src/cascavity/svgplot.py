"""Minimal hand-rolled SVG plots: no rendering dependency, deterministic output.

Each plot is written to its file element by element as it is drawn, so no
plot holds its SVG text in memory.  Both plotters open their file through
``_canvas``, which writes the frame around the plot and removes the file if
the plot fails, and take their axis spans from ``_axis_range``.
Points are prepared as numpy arrays, not as per-sample Python objects, and
a polyline's points are formatted a chunk of rows at a time.  Log10 goes
through ``math.log10`` on the kept samples, because ``np.log10`` can differ
from it in the last bit and that would change the bytes.  Formatting is
still one ``"{:.6g}"`` pair per sample, O(samples) rather than O(pixels),
until line plots are decimated to pixel columns.
"""

from __future__ import annotations

import contextlib
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
_CHUNK_POINTS = 4096  # polyline points formatted and written per chunk


def _fmt(v: float) -> str:
    return f"{v:.6g}"


def _ticks(lo: float, hi: float, n: int = _N_TICKS) -> list[float]:
    if not hi > lo:
        return [lo]
    return [lo + (hi - lo) * i / (n - 1) for i in range(n)]


def _finite(name: str, a: np.ndarray) -> None:
    bad = np.flatnonzero(~np.isfinite(a))
    if bad.size:
        i = np.unravel_index(bad[0], a.shape)
        where = ", ".join(map(str, i))
        raise ValueError(
            f"{name} must be finite: it holds {bad.size} non-finite value(s), the first {float(a[i])} at index {where}"
        )


@contextlib.contextmanager
def _canvas(path, title: str, meta: str = ""):
    """An SVG file open for drawing: ``with _canvas(path, title, meta) as canvas:``.

    The header, meta comment, background and title come before the drawing
    and ``</svg>`` after it; if an exception escapes, the file is removed.
    """
    path = Path(path)
    file = open(path, "w", encoding="utf-8")  # before the try: a file that cannot be opened is not removed
    try:
        with file:
            canvas = _Canvas(file)
            canvas.add(
                f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" height="{_HEIGHT}" '
                f'viewBox="0 0 {_WIDTH} {_HEIGHT}">'
            )
            if meta:
                # a comment may not hold "--"; in JSON it only occurs inside strings,
                # where "-\\u002d" reads back as "--"
                canvas.add("<!-- " + meta.replace("--", "-\\u002d") + " -->")
            canvas.add(f'<rect width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>')
            if title:
                canvas.text(_WIDTH / 2, _MARGIN_T - 14, title, anchor="middle", size=14)
            yield canvas
            canvas.add("</svg>")
    except BaseException:
        path.unlink(missing_ok=True)
        raise


class _Canvas:
    """Writes SVG elements, one per line, to an open text file."""

    def __init__(self, file):
        self._file = file

    def add(self, element: str):
        self._file.write(element + "\n")

    def text(self, x, y, s, *, anchor="start", size=11, rotate=None):
        transform = f' transform="rotate(-90 {_fmt(x)} {_fmt(y)})"' if rotate else ""
        self.add(
            f'<text x="{_fmt(x)}" y="{_fmt(y)}" font-family="sans-serif" font-size="{size}" '
            f'text-anchor="{anchor}"{transform}>{s}</text>'
        )

    def line(self, x1, y1, x2, y2, color="#000000", width=1.0):
        self.add(
            f'<line x1="{_fmt(x1)}" y1="{_fmt(y1)}" x2="{_fmt(x2)}" y2="{_fmt(y2)}" '
            f'stroke="{color}" stroke-width="{width}"/>'
        )

    def polyline(self, px: np.ndarray, py: np.ndarray, color, width=1.3):
        """The points (px[i], py[i]), written ``_CHUNK_POINTS`` at a time."""
        write = self._file.write
        write('<polyline points="')
        for start in range(0, px.size, _CHUNK_POINTS):
            if start:
                write(" ")
            stop = start + _CHUNK_POINTS
            write(" ".join(map("{:.6g},{:.6g}".format, px[start:stop].tolist(), py[start:stop].tolist())))
        write(f'" fill="none" stroke="{color}" stroke-width="{width}"/>\n')


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


def _axis_range(name: str, lo: float, hi: float) -> tuple[float, float]:
    """The span an axis draws for data in [lo, hi]: a zero width is widened by +-0.5."""
    if hi == lo:
        lo, hi = lo - 0.5, hi + 0.5
    if not 0 < hi - lo < math.inf:  # else every coordinate would be nan
        raise ValueError(f"the {name} range [{lo!r}, {hi!r}] has no finite nonzero width in float64")
    return lo, hi


def _plotted(values, n: int, logy: bool) -> np.ndarray:
    """``values`` as plotted y (log10 with ``logy``), nan where a segment breaks."""
    v = np.asarray(values, dtype=float)  # None reads as nan
    if v.shape != (n,):
        raise ValueError(f"each series needs one value per x sample: shape {v.shape}, x has {n}")
    keep = np.isfinite(v)
    if logy:
        keep &= v > 0
    y = np.full(n, np.nan)
    kept = v[keep]
    y[keep] = np.fromiter(map(math.log10, kept.tolist()), float, kept.size) if logy else kept
    return y


def line_plot(path, x, series, *, xlabel="", ylabel="", title="", logy=False, meta="") -> Path:
    """Overlayed line plot; series is a list of (label, values) pairs.

    Non-finite or ``None`` samples, and with ``logy`` nonpositive ones, break
    a line into segments; ``x`` must be finite.
    """
    with _canvas(path, title, meta) as canvas:
        x = np.asarray(x, dtype=float)
        _finite("x", x)
        prepared = [(label, _plotted(values, x.size, logy)) for label, values in series]
        # fmin/fmax skip the nan breaks; a series with no kept sample gives (inf, -inf)
        ylo = min((float(np.fmin.reduce(y, initial=np.inf)) for _, y in prepared), default=math.inf)
        yhi = max((float(np.fmax.reduce(y, initial=-np.inf)) for _, y in prepared), default=-math.inf)
        if ylo > yhi:
            raise ValueError("nothing to plot")
        xlo, xhi = _axis_range("x", float(x.min()), float(x.max()))
        ylo, yhi = _axis_range("y", ylo, yhi)

        x0, x1, y0, y1 = _axes(canvas, xlo, xhi, ylo, yhi, xlabel, ylabel, logy)
        for idx, (label, y) in enumerate(prepared):
            color = _COLORS[idx % len(_COLORS)]
            edges = np.flatnonzero(np.diff(~np.isnan(y), prepend=False, append=False))
            for start, stop in zip(edges[::2].tolist(), edges[1::2].tolist()):
                if stop - start >= 2:
                    px = x0 + (x[start:stop] - xlo) / (xhi - xlo) * (x1 - x0)
                    py = y0 + (y[start:stop] - ylo) / (yhi - ylo) * (y1 - y0)
                    canvas.polyline(px, py, color)
            ly = _MARGIN_T + 16 + 16 * idx
            canvas.line(x1 - 132, ly - 4, x1 - 112, ly - 4, color, 2.0)
            canvas.text(x1 - 106, ly, label)
    return Path(path)


def _ramp(t):
    """Dark blue -> red colors '#rrggbb' for an array of t in [0, 1] (clipped)."""
    t = np.clip(t, 0.0, 1.0) * (len(_RAMP_STOPS) - 1)
    i = np.minimum(t.astype(int), len(_RAMP_STOPS) - 2)
    f = t - i
    del t
    code = np.zeros(i.shape, dtype=int)
    for stops in _RAMP_STOPS.T.astype(float):  # one channel at a time, red first: stop + (next - stop) * f
        channel = np.diff(stops)[i]
        channel *= f
        channel += stops[:-1][i]
        code <<= 8
        code |= np.rint(channel, out=channel).astype(int)  # rint rounds half to even, like round()
    del i, f, channel
    codes, inverse = np.unique(code, return_inverse=True)
    names = np.array([f"#{c:06x}" for c in codes.tolist()], dtype=object)
    return names[inverse.reshape(code.shape)]


def heat_map(path, x, y, values, *, xlabel="", ylabel="", title="", logz=True, meta="") -> Path:
    """Colored-cell map of values[i][j] over (x[i], y[j]); large grids are strided."""
    with _canvas(path, title, meta) as canvas:
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        z = np.asarray(values, dtype=float)
        for name, a in (("x", x), ("y", y), ("values", z)):
            _finite(name, a)
        sx = max(1, int(math.ceil(x.size / _MAX_CELLS)))
        sy = max(1, int(math.ceil(y.size / _MAX_CELLS)))
        x, y, z = x[::sx], y[::sy], z[::sx, ::sy]
        if logz:
            floor = z[z > 0].min() if np.any(z > 0) else 1.0
            z = np.log10(np.maximum(z, floor))
        xlo, xhi = _axis_range("x", float(x.min()), float(x.max()))
        ylo, yhi = _axis_range("y", float(y.min()), float(y.max()))
        zlo, zhi = float(z.min()), float(z.max())
        if zhi == zlo:
            zhi = zlo + 1.0

        x0, x1 = _MARGIN_L, _WIDTH - _MARGIN_R
        y0, y1 = _HEIGHT - _MARGIN_B, _MARGIN_T
        cw = (x1 - x0) / x.size
        ch = (y0 - y1) / y.size
        colors = _ramp((z - zlo) / (zhi - zlo))
        size = f'width="{_fmt(cw + 0.5)}" height="{_fmt(ch + 0.5)}"'
        y_parts = [f'{_fmt(y0 - (j + 1) * ch)}" {size} fill="' for j in range(y.size)]
        for i, row in enumerate(colors):  # one string per x column, one line per cell
            head = f'<rect x="{_fmt(x0 + i * cw)}" y="'
            canvas.add(head + ('"/>\n' + head).join(map(str.__add__, y_parts, row.tolist())) + '"/>')
        _axes(canvas, xlo, xhi, ylo, yhi, xlabel, ylabel, False)
        scale_label = "log10" if logz else "linear"
        canvas.text(x1, _MARGIN_T - 2, f"{scale_label}: {_fmt(zlo)} .. {_fmt(zhi)}", anchor="end")
    return Path(path)
