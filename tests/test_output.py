"""The block writer and the vectorized heat map write the same bytes as the per-cell code."""

import csv
import io
import os
import signal
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


@pytest.mark.parametrize("n", [0, 1, 2, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 3])
def test_edge_values_match_per_cell_writer(tmp_path, n):
    columns = edge_columns(n, seed=n)
    expected = written(csv_oracle.write_csv, tmp_path / "oracle.csv", columns)
    assert written(output.write_csv, tmp_path / "block.csv", columns) == expected


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


@pytest.fixture
def cpus(monkeypatch):
    """A setter of the usable CPU count that write_csv sees; it returns the list of pids forked after it.

    Every block may go to its own process, so that small files take the forked path.
    """
    monkeypatch.setattr(output, "_MIN_BLOCKS_PER_PROCESS", 1)
    forks = []
    fork = os.fork

    def counted_fork():
        pid = fork()
        if pid:
            forks.append(pid)
        return pid

    def set_cpus(count):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)))
        forks.clear()
        return forks

    monkeypatch.setattr(os, "fork", counted_fork)
    return set_cpus


@pytest.fixture
def no_hang():
    """Fail a test with TimeoutError instead of letting it wait forever on a worker process."""

    def expire(signum, frame):
        raise TimeoutError("write_csv did not return within 60 s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(60)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, previous)


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("n", [BLOCK, 2 * BLOCK, 3 * BLOCK, 4 * BLOCK, 3 * BLOCK + 5])
def test_forked_blocks_match_per_cell_writer(tmp_path, cpus, no_hang, n):
    """Every CPU count deals the blocks to min(CPUs, blocks) processes and writes the same bytes."""
    columns = edge_columns(n, seed=n + 1)
    expected = written(csv_oracle.write_csv, tmp_path / "oracle.csv", columns)
    blocks = -(-n // BLOCK)
    for count in (1, 2, 3):
        forks = cpus(count)
        assert written(output.write_csv, tmp_path / f"cpus{count}.csv", columns) == expected, count
        assert len(forks) == min(count, blocks) - 1
        assert_no_child_left()


@pytest.mark.parametrize("count", [1, 2, 3, 4])
def test_each_forked_process_gets_a_minimum_share_of_blocks(monkeypatch, count):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)))
    share = output._MIN_BLOCKS_PER_PROCESS
    for processes in range(1, count + 1):
        assert output._worker_count(processes * share) == processes
        assert output._worker_count(processes * share - 1) == max(1, processes - 1)
    assert output._worker_count(100 * share) == count


def failing_column(bad_row: int, n: int):
    class BadCell:
        def __float__(self):
            raise ValueError(f"cell {bad_row} cannot be formatted")

    return [BadCell() if i == bad_row else 0.5 for i in range(n)]


def test_failure_in_a_worker_is_raised_with_its_message(tmp_path, cpus, no_hang):
    cpus(2)  # the child owns blocks 1 and 3
    columns = [*edge_columns(4 * BLOCK), ("bad", failing_column(BLOCK + 17, 4 * BLOCK))]
    with pytest.raises(RuntimeError, match=f"ValueError: cell {BLOCK + 17} cannot be formatted"):
        output.write_csv(tmp_path / "x.csv", columns, "0", {})
    assert_no_child_left()


def test_failure_in_the_caller_stops_its_workers(tmp_path, cpus, no_hang, monkeypatch):
    statuses = []
    waitpid = os.waitpid

    def recorded_waitpid(pid, options):
        result = waitpid(pid, options)
        statuses.append(os.waitstatus_to_exitcode(result[1]))
        return result

    monkeypatch.setattr(os, "waitpid", recorded_waitpid)
    forks = cpus(2)  # the caller owns blocks 0 and 2; the child's block 3 is far larger than a pipe's buffer
    columns = [*edge_columns(4 * BLOCK), ("bad", failing_column(2 * BLOCK + 3, 4 * BLOCK))]
    with pytest.raises(ValueError, match=f"cell {2 * BLOCK + 3} cannot be formatted"):
        output.write_csv(tmp_path / "x.csv", columns, "0", {})
    assert len(forks) == 1 and statuses == [1]  # the child left through its BrokenPipeError, not a clean exit
    assert_no_child_left()


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
