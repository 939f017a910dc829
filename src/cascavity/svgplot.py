"""Minimal hand-rolled SVG plots: no rendering dependency, deterministic output.

A line plot, and a heat map's frame, are written to the file element by
element as they are drawn; a heat map's cells go out one block of columns
at a time, so a plot holds at most one block of its SVG text in memory.
A line plot's y axis and a heat map's colors are log10 of the values; the
other axes are linear.  Both plotters open their file through ``_canvas``,
which writes the frame around the plot, removes the file if the plot fails
and names the file in a refusal (``InvalidParameterError``, which the CLI
reports as a numerical failure), and take their axis spans from
``_axis_range``.
Points are prepared as numpy arrays, not as per-sample Python objects, and
a polyline's points are formatted a chunk of rows at a time.  A heat map's
cell (i, j) is the line ``<rect x="..`` of its column, the tail
``" y=".." width=".." height=".." fill="#`` of its row, and ``000000"/>``:
the heads and tails are formatted once, each block's lines are joined into
one text with the placeholder digits, and the six hex digits of every
cell's color code are then written over the zeros with numpy, at offsets
taken from the cumulative line lengths.  A line plot's log10 goes
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

from .errors import InvalidParameterError
from .output import output_file

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
_CHUNK_POINTS = 4096  # polyline points, or heat-map cells in whole columns, formatted and written per chunk


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
        raise InvalidParameterError(
            f"{name} must be finite: it holds {bad.size} non-finite value(s), the first {float(a[i])} at index {where}"
        )


@contextlib.contextmanager
def _canvas(path, title: str, meta: str = ""):
    """An SVG file open for drawing: ``with _canvas(path, title, meta) as canvas:``.

    The header, meta comment, background and title come before the drawing
    and ``</svg>`` after it; as for every output file (``output.output_file``),
    if an exception escapes, the file is removed; a refusal gains the file's name.
    """
    with output_file(path) as file:
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
        try:
            yield canvas
        except InvalidParameterError as exc:
            raise InvalidParameterError(f"{Path(path).name}: {exc}") from None
        canvas.add("</svg>")


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
        raise InvalidParameterError(f"the {name} range [{lo!r}, {hi!r}] has no finite nonzero width in float64")
    return lo, hi


def _plotted(values, n: int) -> np.ndarray:
    """``values`` as plotted y, their log10, nan where a segment breaks."""
    v = np.asarray(values, dtype=float)  # None reads as nan
    if v.shape != (n,):
        raise InvalidParameterError(f"each series needs one value per x sample: shape {v.shape}, x has {n}")
    keep = np.isfinite(v) & (v > 0)
    y = np.full(n, np.nan)
    kept = v[keep]
    y[keep] = np.fromiter(map(math.log10, kept.tolist()), float, kept.size)
    return y


def line_plot(path, x, series, *, xlabel="", ylabel="", title="", meta="") -> Path:
    """Overlayed line plot on a log10 y axis; series is a list of (label, values) pairs.

    Non-finite, nonpositive or ``None`` samples break a line into segments;
    ``x`` must be finite.
    """
    with _canvas(path, title, meta) as canvas:
        x = np.asarray(x, dtype=float)
        _finite("x", x)
        prepared = [(label, _plotted(values, x.size)) for label, values in series]
        # fmin/fmax skip the nan breaks; a series with no kept sample gives (inf, -inf)
        ylo = min((float(np.fmin.reduce(y, initial=np.inf)) for _, y in prepared), default=math.inf)
        yhi = max((float(np.fmax.reduce(y, initial=-np.inf)) for _, y in prepared), default=-math.inf)
        if ylo > yhi:
            raise InvalidParameterError("nothing to plot: no series has a finite positive sample for the log10 y axis")
        xlo, xhi = _axis_range("x", float(x.min()), float(x.max()))
        ylo, yhi = _axis_range("y", ylo, yhi)

        x0, x1, y0, y1 = _axes(canvas, xlo, xhi, ylo, yhi, xlabel, ylabel, True)
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
    """Dark blue -> red colors as integer codes 0xrrggbb for an array of t in [0, 1] (clipped)."""
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
    return code


_HEX = np.frombuffer(b"0123456789abcdef", np.uint8)
_NIBBLE_SHIFTS = (20, 16, 12, 8, 4, 0)  # the six hex digits of 0xrrggbb, most significant first
_CELL_END = '000000"/>\n'  # a cell's line ends with its color digits, written in place of the zeros


def heat_map(path, x, y, values, *, xlabel="", ylabel="", title="", meta="") -> Path:
    """Colored-cell map of log10 values[i][j] over (x[i], y[j]), nonpositive ones floored; large grids are strided."""
    with _canvas(path, title, meta) as canvas:
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        z = np.asarray(values, dtype=float)
        if z.shape != (x.size, y.size):
            raise InvalidParameterError(
                f"values must hold one value per (x, y) cell: values.shape is {z.shape}, "
                f"(x.size, y.size) is {(x.size, y.size)}"
            )
        for name, a in (("x", x), ("y", y), ("values", z)):
            _finite(name, a)
        sx = max(1, int(math.ceil(x.size / _MAX_CELLS)))
        sy = max(1, int(math.ceil(y.size / _MAX_CELLS)))
        x, y, z = x[::sx], y[::sy], z[::sx, ::sy]
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
        codes = _ramp((z - zlo) / (zhi - zlo))
        # cell (i, j) is the line heads[i] + tails[j] + _CELL_END; its color digits overwrite the zeros
        size = f'width="{_fmt(cw + 0.5)}" height="{_fmt(ch + 0.5)}"'
        tails = [f'" y="{_fmt(y0 - (j + 1) * ch)}" {size} fill="#' for j in range(y.size)]
        tail_lengths = np.array([len(t) for t in tails]) + len(_CELL_END)
        columns = max(1, _CHUNK_POINTS // y.size)  # per block
        for start in range(0, x.size, columns):
            heads = [f'<rect x="{_fmt(x0 + i * cw)}' for i in range(start, min(start + columns, x.size))]
            column_texts = (head + (_CELL_END + head).join(tails) + _CELL_END[:-1] for head in heads)
            block = bytearray("\n".join(column_texts), "ascii")  # add writes the last line's newline
            # each cell's first digit sits len(_CELL_END) bytes before the end of its line
            first = np.cumsum(np.add.outer([len(h) for h in heads], tail_lengths)) - len(_CELL_END)
            cells, text = codes[start : start + len(heads)].ravel(), np.frombuffer(block, np.uint8)
            for k, shift in enumerate(_NIBBLE_SHIFTS):
                text[first + k] = _HEX[(cells >> shift) & 15]
            canvas.add(block.decode("ascii"))
        _axes(canvas, xlo, xhi, ylo, yhi, xlabel, ylabel, False)
        canvas.text(x1, _MARGIN_T - 2, f"log10: {_fmt(zlo)} .. {_fmt(zhi)}", anchor="end")
    return Path(path)
