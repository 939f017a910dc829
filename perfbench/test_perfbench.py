"""Self-test of the benchmark at tiny grids.

    python3 -m pytest perfbench -q

Checks the result line against BENCHMARK.json (every metric present, with its
unit), that the output checks catch a corrupted value written to a copy of an
op's outputs, and that the benchmark refuses to run without the sources.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
NAMES = [w["name"] for w in SPEC["workloads"]]


def bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, *SPEC["command"][1:], *args], cwd=cwd, capture_output=True, text=True, timeout=170
    )


def test_spec_names_the_workloads_the_benchmark_runs():
    assert NAMES == list(workloads.NAMES)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", NAMES)
def test_every_metric_present_with_its_unit(workload, trace):
    proc = bench("--workload", workload, "--seed", "3", "--seconds", "0.2", "--trace", str(trace), "--tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 2
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())


def _edit_cell(path: Path, row: int, column: str, new) -> None:
    lines = path.read_text(encoding="utf-8").split("\n")
    first = next(i for i, line in enumerate(lines) if not line.startswith("#"))
    names = lines[first].split(",")
    cells = lines[first + 1 + row].split(",")
    col = names.index(column)
    cells[col] = new(cells[col])
    lines[first + 1 + row] = ",".join(cells)
    path.write_text("\n".join(lines), encoding="utf-8")


def _scale(factor):
    return lambda cell: repr(float(cell) * factor)


def _corrupt_params(out: Path, w) -> None:
    payload = json.loads((out / "params.json").read_text(encoding="utf-8"))
    payload["kappa"]["value"] *= 1 + 1e-9
    (out / "params.json").write_text(json.dumps(payload), encoding="utf-8")


# One corruption per checked file; each is just outside the check's tolerance
# where a tolerance applies.
CORRUPTIONS = {
    "spectrum scattering_value": lambda out, w: _edit_cell(
        out / "spectrum.csv", w.checkpoints["rows"][0], "scattering_value", _scale(1 + 1e-5)
    ),
    "spectrum coupled_value": lambda out, w: _edit_cell(
        out / "spectrum.csv", w.checkpoints["rows"][1], "coupled_value", _scale(1 + 1e-8)
    ),
    "profile scat_right": lambda out, w: _edit_cell(
        out / "profile.csv", w.checkpoints["rows"][-1], "scat_right", _scale(1 - 1e-5)
    ),
    "delta error": lambda out, w: _edit_cell(out / "delta.csv", 1, "error", lambda _: "fit failed"),
    "delta nan": lambda out, w: _edit_cell(out / "delta.csv", 0, "delta_mean", lambda _: "nan"),
    "darkmode fiber_intensity": lambda out, w: _edit_cell(
        out / "darkmode.csv",
        w.checkpoints["cells"][0][0] * w.sizes.dark_phase_points + w.checkpoints["cells"][0][1],
        "fiber_intensity",
        _scale(1 + 1e-5),
    ),
    "darkmode_fit c0": lambda out, w: _edit_cell(
        out / "darkmode_fit.csv", w.checkpoints["cells"][-1][0], "c0", _scale(1 + 1e-5)
    ),
    "params kappa": _corrupt_params,
}
WORKLOAD_OF = {"spectrum": "sweep-400k", "profile": "sweep-400k", "delta": "peaks-zeta"}


@pytest.fixture(scope="module")
def op_outputs(tmp_path_factory):
    """One tiny op of every workload, run in-process like the benchmark does."""
    sys.path.insert(0, str(ROOT / "src"))
    from cascavity.cli import main

    outputs = {}
    for name in NAMES:
        w = workloads.Workload(name, 5, workloads.TINY)
        base = tmp_path_factory.mktemp(name)
        w.write_configs(base / "configs")
        for argv in w.commands(base / "configs", base / "out"):
            with pytest.raises(SystemExit) as exit_info:
                main(args=argv, prog_name="cascavity")
            assert exit_info.value.code == 0
        outputs[name] = (w, base / "out")
    return outputs


@pytest.mark.parametrize("name", NAMES)
def test_checks_pass_on_program_outputs(op_outputs, name):
    w, out = op_outputs[name]
    assert w.check(out) == []


@pytest.mark.parametrize("corruption", sorted(CORRUPTIONS))
def test_checks_catch_a_corrupted_copy(op_outputs, tmp_path, corruption):
    w, out = op_outputs[WORKLOAD_OF.get(corruption.split()[0], "darkmode-map")]
    copy = tmp_path / "copy"
    shutil.copytree(out, copy)
    CORRUPTIONS[corruption](copy, w)
    assert w.check(copy), f"{corruption} went unnoticed"
    assert w.check(out) == []


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path, ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", NAMES[0], "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
