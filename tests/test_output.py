"""The block writer and the vectorized heat map write the same bytes as the per-cell code."""

import tracemalloc

import numpy as np
import pytest

import csv_oracle
import heatmap_oracle
from cascavity import __version__, build_cascade, dark_mode_scan, default_omega_window, output, runs, svgplot
from cascavity.config import parse_config

BLOCK = output._BLOCK_ROWS
SPECIAL_FLOATS = [
    float("nan"), float("inf"), -float("inf"), 0.0, -0.0,
    5e-324, -5e-324, 2.2250738585072014e-308 / 3, 2.2250738585072014e-308, 1.7976931348623157e308,
    1e16, 9999999999999998.0, 1.0000000000000002e16, -1e16,  # repr switches to exponent at 1e16
    1e-4, 9.999e-5, 0.00010000000000000002, 9.999999999999999e-05, -1e-4,  # ... and below 1e-4
    0.1, 1 / 3, 123456.789, -2.5, 1.0, 2.0**53, 2.0**53 + 2,
]  # fmt: skip
LIST_CELLS = [None, "", "x", "fit failed", 0, -7, 2**70, True, False, 0.5, np.float64(-0.25), float("nan")]


def edge_columns(n: int, seed: int = 0):
    rng = np.random.default_rng(seed)
    special = np.resize(np.array(SPECIAL_FLOATS), n)
    random = rng.standard_normal(n) * 10.0 ** rng.integers(-320, 300, n)
    with np.errstate(over="ignore"):  # float32 casts of the large values give inf
        float32 = random.astype(np.float32), special.astype(np.float32)
    return [
        ("special", special),
        ("reversed", special[::-1]),  # a strided view
        ("random", random),
        ("float32", float32[0]),
        ("float32_special", float32[1]),
        ("int", rng.integers(-(2**62), 2**62, n)),
        ("uint8", rng.integers(0, 256, n).astype(np.uint8)),
        ("bool", rng.random(n) < 0.5),
        ("list", [LIST_CELLS[i % len(LIST_CELLS)] for i in range(n)]),
        ("floats", random.tolist()),
        ("tuple", tuple(str(i) for i in range(n))),
    ]


def written(writer, path, columns) -> bytes:
    writer(path, columns, "0.test", {"key": [1, 2.5, None]})
    return path.read_bytes()


@pytest.mark.parametrize("n", [0, 1, 2, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 3])
def test_edge_values_match_per_cell_writer(tmp_path, n):
    columns = edge_columns(n, seed=n)
    expected = written(csv_oracle.write_csv, tmp_path / "oracle.csv", columns)
    assert written(output.write_csv, tmp_path / "block.csv", columns) == expected


@pytest.mark.parametrize("columns", [[], [("only", np.array([1.5, -0.0]))], [("empty", [])]])
def test_degenerate_shapes_match_per_cell_writer(tmp_path, columns):
    expected = written(csv_oracle.write_csv, tmp_path / "oracle.csv", columns)
    assert written(output.write_csv, tmp_path / "block.csv", columns) == expected


def test_unequal_columns_rejected(tmp_path):
    with pytest.raises(ValueError, match="equal length"):
        output.write_csv(tmp_path / "x.csv", [("a", np.zeros(3)), ("b", [1, 2])], "0", {})


README_CONFIG = {
    "schema_version": 1,
    "geometry": {"zeta": 5.0, "cavity_length": 1.0, "fiber_length": 5.0, "cavity_order": 10},
    "model": "both",
    "fiber_alignment": "resonant",
    "zeta_grid": [3, 5, 8, 12, 20],
}
COMMANDS = (runs.run_spectrum, runs.run_delta, runs.run_profile, runs.run_darkmode, runs.run_match)


@pytest.mark.parametrize(
    "drive", [{"a_in": 1.0, "d_in": 0.0, "d_phase": 0.0}, {"eta_l": 0.3, "eta_r": 0.2, "phi": 0.7}], ids=["field", "pump"]
)
def test_every_command_matches_per_cell_writer(tmp_path, monkeypatch, drive):
    config = parse_config({**README_CONFIG, "drive": drive})

    def run_all(out):
        out.mkdir()
        for run in COMMANDS:
            run(config, out, True, None)
        return {p.name: p.read_bytes() for p in sorted(out.iterdir())}

    block = run_all(tmp_path / "block")
    monkeypatch.setattr(runs, "write_csv", csv_oracle.write_csv)
    monkeypatch.setattr(runs, "format_floats", list)  # hand the oracle every float cell unformatted
    monkeypatch.setattr(svgplot, "heat_map", heatmap_oracle.heat_map)
    per_cell = run_all(tmp_path / "per_cell")
    assert block.keys() == per_cell.keys()
    assert {"spectrum.csv", "delta.csv", "profile.csv", "darkmode.csv", "darkmode_fit.csv"} <= set(block)
    for name in block:
        assert block[name] == per_cell[name], name


def test_darkmode_rows_are_omega_major(tmp_path):
    """darkmode.csv repeats preformatted omega strings: rows must still run over phi fastest."""
    config = parse_config({**README_CONFIG, "phase_grid": {"min": -1.0, "max": 2.0, "points": 7}})
    runs.run_darkmode(config, tmp_path, False, 11)
    setup = build_cascade(5.0, 1.0, 5.0, 10)
    omega, phis = default_omega_window(setup, 11), np.linspace(-1.0, 2.0, 7)
    omega_col = np.repeat(omega, phis.size)
    columns = [
        ("omega", omega_col),
        ("phi", np.tile(phis, omega.size)),
        ("fiber_intensity", dark_mode_scan(setup.stack, omega, phis).intensity.reshape(-1)),
        ("omega_over_omega_c", omega_col / setup.match.omega_c),
    ]
    csv_oracle.write_csv(tmp_path / "oracle.csv", columns, __version__, config.resolved())
    assert (tmp_path / "darkmode.csv").read_bytes() == (tmp_path / "oracle.csv").read_bytes()


def test_memory_stays_below_an_eighth_of_per_cell_writer(tmp_path):
    rng = np.random.default_rng(7)
    columns = [(f"c{i}", rng.standard_normal(200_000)) for i in range(6)]

    def peak(writer, path):
        tracemalloc.start()
        try:
            writer(path, columns, "0.test", {})
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    per_cell = peak(csv_oracle.write_csv, tmp_path / "oracle.csv")
    block = peak(output.write_csv, tmp_path / "block.csv")
    assert block < per_cell / 8, (block, per_cell)
    assert (tmp_path / "block.csv").read_bytes() == (tmp_path / "oracle.csv").read_bytes()


@pytest.mark.parametrize("logz", [True, False])
@pytest.mark.parametrize("shape", [(2, 3), (7, 5), (481, 241)])  # the last is strided on both axes
def test_heat_map_matches_per_cell_loop(tmp_path, shape, logz):
    rng = np.random.default_rng(shape[0] * shape[1])
    x = np.linspace(1.0, 2.0, shape[0])
    y = np.linspace(-np.pi, np.pi, shape[1])
    z = 10.0 ** rng.uniform(-12, 2, shape)
    z.flat[::3] = 0.0  # below the log floor
    # with z in {k/12} the linear ramp hits its stops and channel values x.5 (round half to even)
    twelfths = np.resize(np.arange(13) / 12, shape)
    for values in (z, twelfths, np.full(shape, 0.25)):
        args = (x, y, values)
        kwargs = {"xlabel": "omega", "ylabel": "phi", "title": "t", "logz": logz, "meta": "m"}
        expected = heatmap_oracle.heat_map(tmp_path / "loop.svg", *args, **kwargs).read_bytes()
        assert svgplot.heat_map(tmp_path / "array.svg", *args, **kwargs).read_bytes() == expected
