"""The benchmark tracer (perfbench/spans.py) still finds and counts the layer entry points.

The tracer patches each entry point by module attribute name, so a rename in
``src/`` would break ``perfbench/run.py --trace 1`` without failing any test here.
It also only sees a call that looks the name up when it runs: a runner that
captured an entry point at import time would record no span for it.
"""

import importlib.util
import json
import sys
from pathlib import Path

import pytest
from click.testing import CliRunner

from cascavity import runs
from cascavity.cli import main
from cascavity.config import parse_config

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"

# command -> the spans its run must record, besides config.load_config
COMMAND_SPANS = {
    "spectrum": ("scattering.region_amplitude_sweep", "coupled.steady_state_arrays", "output.write_csv", "svgplot.line_plot"),
    "delta": ("spectra.peak_separation_delta", "output.write_csv", "svgplot.line_plot"),
    "profile": ("spectra.intensity_comparison", "output.write_csv", "svgplot.line_plot"),
    "darkmode": ("spectra.dark_mode_scan", "output.write_csv", "svgplot.heat_map"),
    "match": ("matching.match_cascaded", "output.write_json"),
}


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses resolve their module through sys.modules
    spec.loader.exec_module(module)
    return module


def test_spectrum_run_records_both_engines(tmp_path):
    tracer = load_spans().Tracer()  # fails if a patched attribute is gone
    config = parse_config(
        {
            "schema_version": 1,
            "geometry": {"zeta": 5.0, "cavity_length": 1.0, "fiber_length": 5.0, "cavity_order": 10},
            "output": {"directory": str(tmp_path)},
        }
    )
    tracer.run_op(1, lambda: runs.run_spectrum(config, tmp_path, False, 301))
    spans = {s.name: s for s in tracer.spans}
    for name in ("coupled.steady_state_arrays", "scattering.region_amplitude_sweep"):
        assert spans[name].ok
        assert spans[name].counts == {"points": 301}
    assert (tmp_path / "spectrum.csv").is_file()


@pytest.mark.parametrize("command", list(COMMAND_SPANS))
def test_every_command_records_its_layers(tmp_path, command):
    raw = {
        "schema_version": 1,
        "geometry": {"zeta": 5.0, "cavity_length": 1.0, "fiber_length": 5.0, "cavity_order": 10},
        "zeta_grid": [5.0, 20.0],
        "phase_grid": {"min": -1.0, "max": 1.0, "points": 5},
        "output": {"directory": str(tmp_path / "out")},
    }
    config = tmp_path / "run.json"
    config.write_text(json.dumps(raw))
    args = [command, "--config", str(config), "--grid-points", "11", "--svg", "--quiet"]
    tracer = load_spans().Tracer()
    result, _ = tracer.run_op(1, lambda: CliRunner().invoke(main, args))
    assert result.exit_code == 0, result.output
    recorded = {}
    for span in tracer.spans:
        recorded.setdefault(span.name, []).append(span)
    for name in ("config.load_config", *COMMAND_SPANS[command]):
        assert recorded.get(name), name
        assert all(span.ok for span in recorded[name]), name
    # every file the run wrote went through a traced writer
    writers = ("output.write_csv", "output.write_json", "svgplot.line_plot", "svgplot.heat_map")
    written = sorted(p.name for p in (tmp_path / "out").iterdir())
    assert sum(len(recorded.get(name, [])) for name in writers) == len(written), written
