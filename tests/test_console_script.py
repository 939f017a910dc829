"""The console script end to end: each output's recorded config, written back out as a config, reruns to it.

The commands run through the installed ``cascavity`` entry point when one is
on PATH, and through ``python -m cascavity.cli`` on the package this process
imported otherwise, so every check also runs from a source checkout.  Each
run is a fresh process, as a user's is.
"""

import csv
import json
import math
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import cascavity

if shutil.which("cascavity"):
    COMMAND, ENV = ["cascavity"], None
else:
    COMMAND = [sys.executable, "-m", "cascavity.cli"]
    paths = [str(Path(cascavity.__file__).parents[1]), os.environ.get("PYTHONPATH")]
    ENV = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths))}

README = Path(__file__).resolve().parents[1] / "README.md"


def readme_config() -> dict:
    """The README's example config, its one ```json block."""
    (block,) = re.findall(r"^```json\n(.*?)^```$", README.read_text(), re.M | re.S)
    return json.loads(block)


def run(command: str, config: dict, out: Path, *extra: str) -> Path:
    """``cascavity <command>`` on ``config`` (written next to ``out``) into ``out``; returns ``out``."""
    path = out.with_name(out.name + ".json")
    path.write_text(json.dumps(config))
    result = subprocess.run(
        [*COMMAND, command, "--config", str(path), "--out", str(out), "--quiet", *extra],
        env=ENV,
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0, result.stdout + result.stderr
    return out


def header_config(path: Path) -> dict:
    """The config a CSV records in its ``# config:`` line."""
    (line,) = [ln for ln in path.read_text().splitlines() if ln.startswith("# config: ")]
    return json.loads(line[len("# config: "):])


def svg_config(path: Path) -> dict:
    """The config an SVG records in its ``<!-- cascavity <version> config ... -->`` comment."""
    (text,) = re.findall(r"^<!-- cascavity \S* config (.*) -->$", path.read_text(), re.M)
    return json.loads(text)


def data_lines(path: Path) -> list[str]:
    return [ln for ln in path.read_text().splitlines() if not ln.startswith("#")]


def rows(path: Path) -> list[dict]:
    return list(csv.DictReader(data_lines(path)))


def assert_header_reruns(command: str, out: Path, table: str) -> None:
    """The config ``out/table`` records reruns ``command`` to the same data lines."""
    again = run(command, header_config(out / table), out.with_name(out.name + "-again"))
    assert data_lines(again / table) == data_lines(out / table)


def with_changes(config: dict, geometry=None, **keys) -> dict:
    changed = json.loads(json.dumps(config))
    changed["geometry"].update(geometry or {})
    changed.update(keys)
    return changed


@pytest.fixture
def config():
    return readme_config()


def test_spectrum_reruns_from_its_header(tmp_path, config):
    out = run("spectrum", config, tmp_path / "first", "--grid-points", "101")
    assert len(data_lines(out / "spectrum.csv")) == 102
    assert_header_reruns("spectrum", out, "spectrum.csv")


def test_spectrum_is_per_unit_incident_power(tmp_path, config):
    # a_in 2 writes the data rows of a_in 1
    one = run("spectrum", config, tmp_path / "one", "--grid-points", "101")
    config["drive"]["a_in"] = 2
    two = run("spectrum", config, tmp_path / "two", "--grid-points", "101")
    assert data_lines(two / "spectrum.csv") == data_lines(one / "spectrum.csv")


def test_profile_blocks_rerun_from_the_header(tmp_path, config):
    # 100,001 points run in several omega blocks, so the block path runs through the entry point
    out = run("profile", config, tmp_path / "first", "--grid-points", "100001")
    assert len(data_lines(out / "profile.csv")) == 100002
    assert_header_reruns("profile", out, "profile.csv")


def test_svg_comment_reruns_to_the_same_bytes(tmp_path, config):
    # SVGs are written as they are drawn: the SVG comment's config reruns to the same bytes
    out = run("profile", config, tmp_path / "svg", "--svg", "--grid-points", "100001")
    again = run("profile", svg_config(out / "profile.svg"), tmp_path / "svg-again", "--svg")
    assert (again / "profile.svg").read_bytes() == (out / "profile.svg").read_bytes()


def test_darkmode_svg_repeats_to_the_same_bytes(tmp_path, config):
    first = run("darkmode", config, tmp_path / "svg", "--svg")
    again = run("darkmode", config, tmp_path / "svg-again", "--svg")
    assert (again / "darkmode.svg").read_bytes() == (first / "darkmode.svg").read_bytes()


def test_delta_builds_each_zeta_from_the_whole_geometry(tmp_path, config):
    # fiber_order 48, not the nearest order, changes the rows, and every row records it
    nearest = with_changes(config, zeta_grid=[2, 5, 20])
    order_48 = with_changes(nearest, geometry={"fiber_order": 48})
    out = run("delta", order_48, tmp_path / "delta-48")
    assert_header_reruns("delta", out, "delta.csv")
    assert data_lines(run("delta", nearest, tmp_path / "nearest") / "delta.csv") != data_lines(out / "delta.csv")
    params = json.loads((run("match", order_48, tmp_path / "match-48") / "params.json").read_text())
    assert params["omega_f"]["order"] == 48
    cells = [row["fiber_order"] for row in rows(out / "delta.csv")]
    assert cells and set(cells) == {"48"}, cells


def test_delta_pole_search_at_both_ends_of_its_range(tmp_path, config):
    # three rows resolve their poles; at zeta = 1e11 the side splitting is below the distinct-pole
    # tolerance, so that row's error names the check and the run goes on
    out = run("delta", with_changes(config, zeta_grid=[2, 20, 2000, 1e11]), tmp_path / "poles")
    table = rows(out / "delta.csv")
    assert len(table) == 4, table
    assert all(row["error"] == "" and math.isfinite(float(row["delta_mean"])) for row in table[:3]), table[:3]
    assert "distinct-pole check" in table[3]["error"], table[3]


def test_single_cavity_reruns_from_its_header(tmp_path, config):
    # the single cavity, whose stack is mirror_chain(zeta, l_c) and whose chain is the one mode (omega_c,)
    for key in ("fiber_length", "fiber_order"):
        config["geometry"].pop(key, None)
    single = with_changes(config, geometry={"single_cavity": True})
    out = run("spectrum", single, tmp_path / "single", "--grid-points", "101")
    assert len(data_lines(out / "spectrum.csv")) == 102
    assert_header_reruns("spectrum", out, "spectrum.csv")


@pytest.fixture
def zeta_1e8(config):
    sweep = {"parameter": "omega", "min": 31.0, "max": 32.0, "points": 201}
    phases = {"min": -3.14159, "max": 3.14159, "points": 5}
    return with_changes(config, geometry={"zeta": 1e8}, sweep=sweep, phase_grid=phases)


def test_fiber_region_keeps_its_digits_at_zeta_1e8(tmp_path, zeta_1e8):
    # over [31, 32] every fiber intensity is below 1e-12 (2.7e-22 at most); propagating the fiber
    # region from one end of the stack wrote up to 267.5 here
    out = run("darkmode", zeta_1e8, tmp_path / "zeta-1e8")
    assert_header_reruns("darkmode", out, "darkmode.csv")
    cells = [float(row["fiber_intensity"]) for row in rows(out / "darkmode.csv")]
    assert len(cells) == 201 * 5 and max(cells) < 1e-12, max(cells)


def test_coupled_right_cavity_keeps_its_digits_at_zeta_1e8(tmp_path, zeta_1e8):
    # the coupled right cavity is a product, never a difference of two nearly equal terms, so all 201
    # cells are positive (a solve through the sum and difference of the two cavities wrote 20 zeros)
    out = run("profile", zeta_1e8, tmp_path / "zeta-1e8")
    assert_header_reruns("profile", out, "profile.csv")
    cells = [float(row["coupled_right"]) for row in rows(out / "profile.csv")]
    assert len(cells) == 201 and min(cells) > 0, min(cells)
