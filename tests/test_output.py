"""The block writer and the vectorized plots write the same bytes as the per-cell code."""

import csv
import io
import os
import tracemalloc

import numpy as np
import pytest

import csv_oracle
import heatmap_oracle
import lineplot_oracle
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
QUOTED_CELLS = ["a,b", 'say "hi"', '"', "two\nlines", "cr\r", ",", 'x,"y"\r\n']


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
        ("quoted", [QUOTED_CELLS[i % len(QUOTED_CELLS)] if i % 5 == 0 else "q" for i in range(n)]),
        ("floats", random.tolist()),
        ("tuple", tuple(str(i) for i in range(n))),
    ]


def written(writer, path, columns) -> bytes:
    writer(path, columns, "0.test", {"key": [1, 2.5, None]})
    return path.read_bytes()


# the edges of the first and second block, and a short last block after several full ones
@pytest.mark.parametrize(
    "n", [0, 1, 2, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK - 1, 2 * BLOCK, 2 * BLOCK + 1, 2 * BLOCK + 3, 4 * BLOCK + 3]
)
def test_edge_values_match_per_cell_writer(tmp_path, n):
    columns = edge_columns(n, seed=n)
    expected = written(csv_oracle.write_csv, tmp_path / "oracle.csv", columns)
    assert written(output.write_csv, tmp_path / "block.csv", columns) == expected


def neighbours(*values):
    """Each value with its nextafter neighbours toward zero and away from it."""
    return [v for x in values for v in (np.nextafter(x, 0.0), x, np.nextafter(x, np.copysign(np.inf, x)))]


# where a layout changes: orjson writes fixed notation in [1e-5, 1e16), repr (which the oracle
# starts from) in [1e-4, 1e16), repr's exponent has two digits down to 1e-9, and orjson writes nan
# and inf as null, which the per-cell formatter replaces with repr
ORJSON_EDGES = neighbours(1e-4, -1e-4, 1e-5, -1e-5, 1e-9, -1e-9, 1e16, -1e16)
FINITE_EDGES = [v for v in ORJSON_EDGES + SPECIAL_FLOATS if np.isfinite(v)]


def numeric_columns(n: int, seed: int, edges) -> list:
    """Numeric array columns only: float64, a strided view, float32, int, uint8 and bool."""
    rng = np.random.default_rng(seed)
    special = np.resize(np.array(edges), n)
    random = rng.choice([-1.0, 1.0], n) * 10.0 ** rng.uniform(-3.9, 15.9, n)
    return [
        ("special", special),
        ("reversed", random[::-1]),  # a strided view
        ("float32", random.astype(np.float32)),
        ("int", rng.integers(-(2**53), 2**53, n)),
        ("uint8", rng.integers(0, 256, n).astype(np.uint8)),
        ("bool", rng.random(n) < 0.5),
    ]


@pytest.mark.parametrize("n", [1, BLOCK, BLOCK + 1, 2 * BLOCK + 3])
def test_numeric_columns_match_per_cell_writer(tmp_path, monkeypatch, n):
    everywhere = numeric_columns(n, n, ORJSON_EDGES + SPECIAL_FLOATS)
    expected = written(csv_oracle.write_csv, tmp_path / "oracle.csv", everywhere)
    assert written(output.write_csv, tmp_path / "block.csv", everywhere) == expected

    monkeypatch.setattr(output, "_format_float", None)  # every block takes the one-dumps path
    finite = numeric_columns(n, n, FINITE_EDGES)
    # the one-dumps path ends a row at every ncol-th comma: a wrong stride shows at one width or another
    for ncol in range(1, 8):
        columns = [(f"{name}{i}", values) for i, (name, values) in enumerate((finite * 2)[:ncol])]
        expected = written(csv_oracle.write_csv, tmp_path / "oracle.csv", columns)
        assert written(output.write_csv, tmp_path / "block.csv", columns) == expected, ncol


# each exponent layout, with one-digit mantissas and both signs, mixed in one block
EXPONENTS = neighbours(1e-5, -1e-5, 1e-9, -1e-9, 1e16, -1e16, 1e100) + [2e-5, -3e-5, 1.5e-5, 1e-6, -7e-9, 1e17, 1.5e100]


@pytest.mark.parametrize("n", [1, 7, BLOCK + 1])
def test_finite_blocks_never_call_repr(tmp_path, monkeypatch, n):
    """Finite numeric blocks are written from orjson's text alone, in every exponent layout."""
    columns = numeric_columns(n, n, EXPONENTS + FINITE_EDGES + [-1e-300])
    expected = written(csv_oracle.write_csv, tmp_path / "oracle.csv", columns)

    def no_repr(value):
        raise AssertionError(f"repr of {value} called")

    monkeypatch.setattr(output, "repr", no_repr, raising=False)
    monkeypatch.setattr(output, "_format_float", None)
    assert written(output.write_csv, tmp_path / "block.csv", columns) == expected


def test_nan_sends_only_its_block_to_per_column_formatting(tmp_path, monkeypatch):
    columns = numeric_columns(3 * BLOCK, 3, FINITE_EDGES)
    columns[0][1][BLOCK + 5] = float("nan")
    calls = []
    format_float = output._format_float

    def recorded(value):
        calls.append(value)
        return format_float(value)

    monkeypatch.setattr(output, "_format_float", recorded)
    expected = written(csv_oracle.write_csv, tmp_path / "oracle.csv", columns)
    assert written(output.write_csv, tmp_path / "block.csv", columns) == expected
    assert len(calls) == len(columns) * BLOCK
    middle = np.column_stack([values[BLOCK : 2 * BLOCK].astype(float) for _, values in columns])
    np.testing.assert_array_equal(calls, middle.ravel())  # the nan block's cells, row by row


def test_a_million_floats_match_repr(tmp_path):
    """Each cell is repr's digits in the oracle's layout, and parses back to the same float64."""
    rng = np.random.default_rng(2018)
    n = 125_000
    signs = rng.choice([-1.0, 1.0], n)
    scale = 10.0 ** rng.integers(0, 8, n)
    kinds = np.concatenate(
        [
            rng.integers(0, 2**64, n, dtype=np.uint64).view(np.float64),  # random bit patterns
            signs * 10.0 ** rng.uniform(-320, 300, n),
            np.round(signs * rng.uniform(0, 1e4, n) * scale) / scale,  # rounded decimals
            signs * 10.0 ** rng.uniform(-5, 17, n),
            neighbours(1e-4, -1e-4, 1e-5, -1e-5, 1e16, -1e16, 1e21, -1e21),
            [0.0, -0.0],
        ]
    )
    values = np.concatenate([kinds, rng.permutation(kinds)])  # blocks of one kind, then mixed blocks
    assert values.size >= 1_000_000
    output.write_csv(tmp_path / "x.csv", [("x", values)], "0", {})
    body = (tmp_path / "x.csv").read_bytes().split(b"\n", 4)[4]
    assert body == ("\n".join(map(csv_oracle.format_value, values.tolist())) + "\n").encode()

    parsed = np.array(list(map(float, body.split())))
    finite = np.isfinite(values)
    np.testing.assert_array_equal(parsed[finite].view(np.uint64), values[finite].view(np.uint64))  # -0.0 too
    np.testing.assert_array_equal(parsed[~finite], values[~finite])  # nan and +-inf


# the documented float layout, literally: it depends on orjson's version as well as on its digits
LAYOUT = [
    (-0.00010000000000000002, "-0.00010000000000000002"),
    (-1e-4, "-0.0001"),
    (-9.999999999999999e-05, "-0.00009999999999999999"),
    (9.999999999999999e-05, "0.00009999999999999999"),
    (1e-4, "0.0001"),
    (0.00010000000000000002, "0.00010000000000000002"),
    (1e-5, "0.00001"),
    (-1.234e-5, "-0.00001234"),
    (9.06e-7, "9.06e-7"),
    (1e-9, "1e-9"),
    (5e-10, "5e-10"),
    (3e15, "3000000000000000.0"),
    (1e16, "1e16"),
    (1.5e17, "1.5e17"),
    (1e300, "1e300"),
    (0.0, "0.0"),
    (-0.0, "-0.0"),
    (5e-324, "5e-324"),
    (float("nan"), "nan"),
    (float("inf"), "inf"),
    (-float("inf"), "-inf"),
]


def test_float_layout_is_pinned(tmp_path):
    values = np.array([v for v, _ in LAYOUT])
    text = [t for _, t in LAYOUT]
    assert list(map(output.format_value, values.tolist())) == text  # Python floats, as list columns hold them

    def body(columns):
        output.write_csv(tmp_path / "x.csv", columns, "0", {})
        return (tmp_path / "x.csv").read_text().split("\n", 4)[4]

    assert body([("x", values)]) == "".join(t + "\n" for t in text)  # an array that holds nan, cell by cell
    finite = np.isfinite(values)
    assert body([("x", values[finite])]) == "".join(t + "\n" for t, f in zip(text, finite) if f)  # one dumps
    assert body([("x", values), ("list", values.tolist())]) == "".join(f"{t},{t}\n" for t in text)


def csv_rows(path):
    """The data rows of a written CSV (header row included), parsed by the csv module."""
    with open(path, encoding="utf-8", newline="") as f:
        text = f.read()
    assert text.count("\n# ") == 2 and text.startswith("# ")  # three comment lines, none quoted
    return list(csv.reader(io.StringIO(text.split("\n", 3)[3], newline="")))


def test_quoted_cells_read_back_with_csv_module(tmp_path):
    cells = QUOTED_CELLS + ["plain", None]
    columns = [("text", cells), ("x", np.arange(len(cells), dtype=float)), ("a,b", ["1"] * len(cells))]
    output.write_csv(tmp_path / "q.csv", columns, "0.test", {"key": 'va"l,ue'})
    expected = [["text", "x", "a,b"]] + [[c or "", repr(float(i)), "1"] for i, c in enumerate(cells)]
    assert csv_rows(tmp_path / "q.csv") == expected
    assert written(csv_oracle.write_csv, tmp_path / "oracle.csv", columns) == written(
        output.write_csv, tmp_path / "block.csv", columns
    )


def test_delta_error_with_comma_keeps_columns(tmp_path, monkeypatch):
    from cascavity import spectra
    from cascavity.errors import PoleSearchError

    def fail(stack, starts):
        raise PoleSearchError("no convergence, 3 starts")

    monkeypatch.setattr(spectra, "transmission_poles", fail)
    runs.run_delta(parse_config({**README_CONFIG, "zeta_grid": [5]}), tmp_path, False, None)
    header, row = csv_rows(tmp_path / "delta.csv")
    assert len(row) == len(header)
    fields = dict(zip(header, row))
    assert fields["error"] == "zeta=5.0: no convergence, 3 starts"
    assert fields["delta_mean_over_kappa"] == "nan" and float(fields["coupled_hw_hi"]) > 0


@pytest.mark.parametrize("columns", [[], [("only", np.array([1.5, -0.0]))], [("empty", [])]])
def test_degenerate_shapes_match_per_cell_writer(tmp_path, columns):
    expected = written(csv_oracle.write_csv, tmp_path / "oracle.csv", columns)
    assert written(output.write_csv, tmp_path / "block.csv", columns) == expected


def failing_column(bad_row: int, n: int):
    class BadCell:
        def __float__(self):
            raise ValueError(f"cell {bad_row} cannot be formatted")

    return [BadCell() if i == bad_row else 0.5 for i in range(n)]


def test_failure_in_the_caller_stops_its_workers(tmp_path):
    """Blocks are formatted in the calling process: a failing cell surfaces as its own error, no child is left."""
    columns = [*edge_columns(4 * BLOCK), ("bad", failing_column(2 * BLOCK + 3, 4 * BLOCK))]
    with pytest.raises(ValueError, match=f"cell {2 * BLOCK + 3} cannot be formatted"):
        output.write_csv(tmp_path / "x.csv", columns, "0", {})
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_write_csv_never_forks(tmp_path, monkeypatch):
    def fork():
        raise AssertionError("write_csv forked")

    monkeypatch.setattr(os, "fork", fork, raising=False)
    # four usable CPUs and 16 blocks: a writer that formats blocks in a pool would fork here
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(4)), raising=False)
    columns = [("x", np.linspace(1.0, 2.0, 16 * BLOCK)), ("text", ["a"] * (16 * BLOCK))]
    for cols in (columns[:1], columns):  # every block takes the orjson path, then none does
        assert written(output.write_csv, tmp_path / "block.csv", cols) == written(
            csv_oracle.write_csv, tmp_path / "oracle.csv", cols
        )


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
    monkeypatch.setattr(svgplot, "heat_map", heatmap_oracle.heat_map)
    monkeypatch.setattr(svgplot, "line_plot", lineplot_oracle.line_plot)
    per_cell = run_all(tmp_path / "per_cell")
    assert block.keys() == per_cell.keys()
    assert {"spectrum.csv", "delta.csv", "profile.csv", "darkmode.csv", "darkmode_fit.csv"} <= set(block)
    assert {"spectrum.svg", "delta.svg", "profile.svg", "darkmode.svg"} <= set(block)
    for name in block:
        assert block[name] == per_cell[name], name


def test_darkmode_rows_are_omega_major(tmp_path):
    """darkmode.csv repeats each omega for every phi: rows must run over phi fastest."""
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
    # the header records the sampled grid as the sweep
    sweep = {"parameter": "omega", "min": omega[0], "max": omega[-1], "points": omega.size}
    csv_oracle.write_csv(tmp_path / "oracle.csv", columns, __version__, {**config.resolved(), "sweep": sweep})
    assert (tmp_path / "darkmode.csv").read_bytes() == (tmp_path / "oracle.csv").read_bytes()


def test_memory_stays_below_an_eighth_of_per_cell_writer(tmp_path):
    rng = np.random.default_rng(7)
    columns = [("c", rng.standard_normal(200_000))]

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
