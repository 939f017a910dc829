"""The sampled compute stage runs over blocks of omega points (``runs._blocks``).

Each multi-block run is compared with the same run forced into one block: the
outputs, errors and traced work must not depend on the block size.  A small
block size keeps the grids small.
"""

import json
import re
import tracemalloc

import numpy as np
import pytest
from click.testing import CliRunner

from cascavity import runs
from cascavity.cli import main
from cascavity.config import parse_config
from test_trace_entry_points import load_spans

B = 64
GEOMETRY = {"zeta": 5.0, "cavity_length": 1.0, "fiber_length": 5.0, "cavity_order": 10}


def write_config(tmp_path, zeta=5.0, **extra):
    geometry = {**GEOMETRY, "zeta": zeta}
    raw = {"schema_version": 1, "geometry": geometry, "output": {"directory": str(tmp_path / "out")}, **extra}
    path = tmp_path / "run.json"
    path.write_text(json.dumps(raw))
    return path


def invoke(monkeypatch, block, args):
    monkeypatch.setattr(runs, "_BLOCK_POINTS", block)
    return CliRunner().invoke(main, args)


# command -> extra config keys
COMMANDS = {
    "spectrum": {"drive": {"a_in": 1.0, "d_in": 0.3, "d_phase": 0.7}},
    "profile": {},
    "darkmode": {"phase_grid": {"min": -1.0, "max": 1.0, "points": 5}},
}


@pytest.mark.parametrize("points", [B - 1, B, B + 1, 2 * B + 1])
@pytest.mark.parametrize("command", list(COMMANDS))
def test_outputs_do_not_depend_on_the_block_size(tmp_path, monkeypatch, command, points):
    config = write_config(tmp_path, **COMMANDS[command])
    args = [command, "--config", str(config), "--grid-points", str(points), "--svg"]
    outputs = []
    for block in (B, points):
        result = invoke(monkeypatch, block, args)
        assert result.exit_code == 0, result.output
        outputs.append({p.name: p.read_bytes() for p in sorted((tmp_path / "out").iterdir())})
    blocked, whole = outputs
    assert len(blocked) == (3 if command == "darkmode" else 2)
    assert blocked == whole


# zeta -> an explicit sweep; at 3e77 the stack overflows only away from omega ~ 31.4, so the first bad k
# lies past the first block
OVERFLOWS = {1e100: (31.0, 32.0), 3e77: (31.34, 31.6)}


@pytest.mark.parametrize("zeta", list(OVERFLOWS))
@pytest.mark.parametrize("command", list(COMMANDS))
def test_overflow_names_the_same_first_k(tmp_path, monkeypatch, command, zeta):
    low, high = OVERFLOWS[zeta]
    sweep = {"parameter": "omega", "min": low, "max": high, "points": 2 * B + 1}
    config = write_config(tmp_path, zeta, sweep=sweep, **COMMANDS[command])
    messages = []
    for block in (B, 2 * B + 1):
        result = invoke(monkeypatch, block, [command, "--config", str(config)])
        assert result.exit_code == 3, result.output
        assert "boundary solve: the transfer matrix overflows at k = " in result.output
        messages.append(result.output)
    assert messages[0] == messages[1]
    k = float(re.search(r"at k = ([0-9.e+-]+)", messages[0]).group(1))
    grid = np.linspace(low, high, 2 * B + 1)
    first_block = np.array_split(grid, 3)[0]
    assert (k in first_block) == (zeta == 1e100)


@pytest.mark.parametrize("points", [B + 1, 2 * B + 1, 5 * B])
def test_traced_points_sum_to_the_grid(tmp_path, monkeypatch, points):
    monkeypatch.setattr(runs, "_BLOCK_POINTS", B)
    config = parse_config(
        {"schema_version": 1, "geometry": GEOMETRY, "model": "both", "output": {"directory": str(tmp_path)}}
    )
    tracer = load_spans().Tracer()
    tracer.run_op(1, lambda: runs.run_spectrum(config, tmp_path, False, points))
    blocks = -(-points // B)
    for name in ("scattering.region_amplitude_sweep", "coupled.steady_state_arrays"):
        sizes = [s.counts["points"] for s in tracer.spans if s.name == name]
        assert len(sizes) == blocks, name
        assert sum(sizes) == points, name
        assert min(sizes) >= B // 2, name


# runner -> bound on its tracemalloc peak, in bytes per grid point; with the whole grid in one
# compute call the peaks were 145 and 217 B/point
MEMORY_BOUNDS = {"run_spectrum": 64, "run_profile": 96}


@pytest.mark.parametrize("runner", list(MEMORY_BOUNDS))
def test_peak_memory_per_grid_point(tmp_path, runner):
    """Peak memory is the output columns plus one block: no engine allocates a full-grid temporary."""
    points = 200_001
    config = parse_config({"schema_version": 1, "geometry": GEOMETRY, "output": {"directory": str(tmp_path)}})
    run = getattr(runs, runner)
    run(config, tmp_path, False, 11)  # imports and first-call caches stay outside the measurement
    tracemalloc.start()
    try:
        run(config, tmp_path, False, points)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak / points < MEMORY_BOUNDS[runner]
