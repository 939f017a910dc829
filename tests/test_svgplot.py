"""The streaming array plots: same bytes as the per-sample line plot, no file left by a failed plot, bounded memory."""

import gc
import math
import re
import tracemalloc
import warnings

import numpy as np
import pytest

import heatmap_oracle
import lineplot_oracle
from cascavity import svgplot

CHUNK = svgplot._CHUNK_POINTS
LABELS = {"xlabel": "omega", "ylabel": "y", "title": "t", "meta": '{"a": "--"}'}


def _breaks(n: int, at, value) -> np.ndarray:
    v = np.linspace(1.0, 2.0, n) ** 3
    v[list(at)] = value
    return v


def _line_cases():
    nan, inf = math.nan, math.inf
    x = np.linspace(10.0, 11.0, 40)
    yield "breaks", x, [
        ("nan", _breaks(40, [0, 5, 6, 20], nan)),
        ("inf", _breaks(40, [3, 39], inf)),
        ("-inf", _breaks(40, [1, 2, 30], -inf)),
        ("zero and negative", _breaks(40, [7, 8, 9, 25], 0.0) * np.where(np.arange(40) % 11 == 4, -1.0, 1.0)),
    ]
    # one-point segments (isolated samples between breaks) and a lone series with nothing drawn but its legend
    isolated = np.where(np.arange(40) % 2 == 0, 1.5, nan)
    yield "one-point segments", x, [("isolated", isolated), ("empty", np.full(40, nan))]
    yield "constant y", x, [("flat", np.full(40, 0.25))]
    yield "constant x", np.full(40, 3.0), [("v", _breaks(40, [4], nan))]
    # delta passes Python lists, with nan where a row has no result
    yield "lists as delta passes them", [2, 5, 20, 200, 1000], [
        ("|delta_mean|", [0.01, nan, 3e-4, 2e-6, 1e-7]),
        ("kappa", [0.1, 0.02, 0.005, 5e-5, 1e-5]),
    ]
    yield "None", [1.0, 2.0, 3.0, 4.0, 5.0], [("with None", [1.0, None, 3.0, 4.0, None])]
    rng = np.random.default_rng(5)
    for k in (1, 2, 3, 4):
        n = 301
        yield f"{k} series", np.linspace(0.0, 1.0, n), [
            (f"s{i}", 10.0 ** rng.uniform(-9, 2, n) * rng.choice([1.0, 1.0, 1.0, -1.0, 0.0], n)) for i in range(k)
        ]
    # segment lengths around the chunk size: the chunk joins must read like one join
    lengths = (CHUNK - 1, CHUNK, CHUNK + 1, 3 * CHUNK + 2)
    v = np.concatenate([np.r_[10.0 ** np.linspace(-3, 1, m), nan] for m in lengths])
    whole = np.abs(np.sin(np.arange(v.size))) + 0.1
    yield "chunk edges", np.linspace(-1.0, 1.0, v.size), [("chunks", v), ("whole", whole)]


LINE_CASES = list(_line_cases())


@pytest.mark.parametrize("logy", [True, False])
@pytest.mark.parametrize("case", LINE_CASES, ids=[c[0] for c in LINE_CASES])
def test_line_plot_matches_per_sample_loop(tmp_path, case, logy):
    _, x, series = case
    expected = lineplot_oracle.line_plot(tmp_path / "loop.svg", x, series, logy=logy, **LABELS).read_bytes()
    assert svgplot.line_plot(tmp_path / "array.svg", x, series, logy=logy, **LABELS).read_bytes() == expected


_X, _Y = np.linspace(1.0, 2.0, 50), np.linspace(-3.0, 3.0, 20)
_Z = np.outer(_X, np.cos(_Y) + 1.5)
PLOTS = {
    "line_plot": lambda path: svgplot.line_plot(path, _X, [("a", _Z[:, 0]), ("b", _Z[:, 5])], logy=True, **LABELS),
    "heat_map": lambda path: svgplot.heat_map(path, _X, _Y, _Z, **LABELS),
}


@pytest.mark.parametrize("plotter", ["line_plot", "heat_map"])
@pytest.mark.parametrize("fail_at", [1, 5, "</svg>"], ids=["header", "5th element", "closing tag"])
def test_failed_plot_leaves_no_file(tmp_path, monkeypatch, plotter, fail_at):
    draw = PLOTS[plotter]
    path = tmp_path / "plot.svg"
    draw(path)  # an earlier run's SVG, which the failed plot must not leave behind
    assert path.read_bytes().endswith(b"</svg>\n")
    calls = []
    add = svgplot._Canvas.add

    def failing_add(self, element):
        calls.append(element)
        if len(calls) == fail_at or element == fail_at:
            raise OSError("disk full")
        add(self, element)

    monkeypatch.setattr(svgplot._Canvas, "add", failing_add)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(OSError, match="disk full"):
            draw(path)
        gc.collect()
    assert not path.exists()
    assert not [w for w in caught if issubclass(w.category, ResourceWarning)]


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, None])
def test_line_plot_rejects_non_finite_x(tmp_path, bad):
    x = [1.0, 2.0, bad, 4.0]
    with pytest.raises(ValueError, match=r"x must be finite: .* at index 2"):
        svgplot.line_plot(tmp_path / "p.svg", x, [("a", [1.0, 2.0, 3.0, 4.0])])
    assert not (tmp_path / "p.svg").exists()


def test_line_plot_rejects_a_range_float64_cannot_span(tmp_path):
    # constant y = 1e300 widens by +-0.5 to the same number; -1e308..1e308 overflows: both gave nan coordinates
    with pytest.raises(ValueError, match=r"the y range .* no finite nonzero width"):
        svgplot.line_plot(tmp_path / "p.svg", [1.0, 2.0], [("a", [1e300, 1e300])])
    with pytest.raises(ValueError, match=r"the y range .* no finite nonzero width"):
        svgplot.line_plot(tmp_path / "p.svg", [1.0, 2.0], [("a", [-1e308, 1e308])])
    with pytest.raises(ValueError, match=r"the x range .* no finite nonzero width"):
        svgplot.line_plot(tmp_path / "p.svg", [-1e308, 1e308], [("a", [1.0, 2.0])])


def test_line_plot_rejects_unequal_series(tmp_path):
    with pytest.raises(ValueError, match="one value per x sample"):
        svgplot.line_plot(tmp_path / "p.svg", [1.0, 2.0, 3.0], [("a", [1.0, 2.0])])


def test_line_plot_with_nothing_to_draw(tmp_path):
    with pytest.raises(ValueError, match="nothing to plot"):
        svgplot.line_plot(tmp_path / "p.svg", [1.0, 2.0], [("a", [0.0, -1.0])], logy=True)


@pytest.mark.parametrize("which", ["x", "y", "values"])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_heat_map_rejects_non_finite_input(tmp_path, which, bad):
    args = {"x": np.linspace(1.0, 2.0, 6), "y": np.linspace(0.0, 1.0, 4), "values": np.ones((6, 4))}
    args[which].flat[-1] = bad
    with pytest.raises(ValueError, match=rf"{which} must be finite: it holds 1 non-finite"):
        svgplot.heat_map(tmp_path / "h.svg", args["x"], args["y"], args["values"])
    assert not (tmp_path / "h.svg").exists()


@pytest.mark.parametrize("axis", ["x", "y"])
def test_heat_map_takes_a_one_sample_axis(tmp_path, axis):
    one = np.array([3.0])
    x, y = (one, _Y) if axis == "x" else (_X, one)
    text = svgplot.heat_map(tmp_path / "h.svg", x, y, np.outer(x, np.cos(y) + 1.5), **LABELS).read_text()
    assert text.endswith("</svg>\n")
    ticks = re.findall(r'font-size="11" text-anchor="(middle|end)">([-+.e\d]+)</text>', text)
    assert len(ticks) == 2 * svgplot._N_TICKS
    assert all(math.isfinite(float(t)) for _, t in ticks)
    one_sample = [float(t) for anchor, t in ticks if anchor == ("middle" if axis == "x" else "end")]
    assert one_sample == [2.5, 2.75, 3.0, 3.25, 3.5]  # the zero width widened by +-0.5, as line_plot does


@pytest.mark.parametrize("axis", ["x", "y"])
def test_heat_map_rejects_a_range_float64_cannot_span(tmp_path, axis):
    wide = np.array([-1e308, 1e308])
    x, y = (wide, _Y) if axis == "x" else (_X, wide)
    with pytest.raises(ValueError, match=rf"the {axis} range .* no finite nonzero width"):
        svgplot.heat_map(tmp_path / "h.svg", x, y, np.ones((x.size, y.size)))
    assert not (tmp_path / "h.svg").exists()


def _traced_peak(draw) -> int:
    gc.collect()
    tracemalloc.start()
    try:
        draw()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_heat_map_memory(tmp_path):
    """The darkmode-map size, 401 x 181 (strided to 201 x 181 cells): 11.4 MB with the SVG held as strings."""
    rng = np.random.default_rng(11)
    x, y = np.linspace(9.0, 11.0, 401), np.linspace(-math.pi, math.pi, 181)
    z = 10.0 ** rng.uniform(-10, 1, (401, 181))
    peak = _traced_peak(lambda: svgplot.heat_map(tmp_path / "h.svg", x, y, z, **LABELS))
    assert peak < 4e6, peak
    expected = heatmap_oracle.heat_map(tmp_path / "o.svg", x, y, z, **LABELS).read_bytes()
    assert (tmp_path / "h.svg").read_bytes() == expected


def test_line_plot_memory(tmp_path):
    """4 logy series x 200,001 points: 719 B per grid point with a Python tuple per sample."""
    n = 200_001
    rng = np.random.default_rng(12)
    x = np.linspace(10.0, 11.0, n)
    series = [(f"s{i}", 10.0 ** rng.uniform(-8, 0, n)) for i in range(4)]
    peak = _traced_peak(lambda: svgplot.line_plot(tmp_path / "p.svg", x, series, logy=True, **LABELS))
    assert peak / n < 160, peak / n
