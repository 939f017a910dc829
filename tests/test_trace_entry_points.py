"""The benchmark tracer (perfbench/spans.py) still finds and counts the layer entry points.

The tracer patches each entry point by module attribute name, so a rename in
``src/`` would break ``perfbench/run.py --trace 1`` without failing any test here.
"""

import importlib.util
import sys
from pathlib import Path

from cascavity import runs
from cascavity.config import parse_config

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


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
