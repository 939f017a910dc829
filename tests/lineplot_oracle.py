"""Reference for ``cascavity.svgplot.line_plot``: one Python point per sample.

The per-sample preparation, the segment loop and the whole-string polyline
are the package's earlier code; the canvas, axes and number format are the
package's own, so this checks the points only.
"""

import math
from pathlib import Path

from cascavity.svgplot import _COLORS, _MARGIN_T, _axes, _canvas, _fmt


def polyline(canvas, points, color, width=1.3):
    if len(points) < 2:
        return
    pts = " ".join(f"{_fmt(x)},{_fmt(y)}" for x, y in points)
    canvas.add(f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="{width}"/>')


def line_plot(path, x, series, *, xlabel="", ylabel="", title="", logy=False, meta=""):
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

    with _canvas(path, title, meta) as canvas:
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
                    polyline(canvas, segment, color)
                    segment = []
                else:
                    segment.append(to_px(p))
            polyline(canvas, segment, color)
            ly = _MARGIN_T + 16 + 16 * idx
            canvas.line(x1 - 132, ly - 4, x1 - 112, ly - 4, color, 2.0)
            canvas.text(x1 - 106, ly, label)
    return Path(path)
