"""The README's examples run against the package as documented."""

import json
import re
from pathlib import Path

from cascavity.config import parse_config

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_use_example_runs():
    section = README.read_text(encoding="utf-8").split("## Library use", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    namespace = {}
    exec(compile(code, "README.md", "exec"), namespace)
    assert len(namespace["poles"]) == 3


def test_cli_config_example_parses():
    section = README.read_text(encoding="utf-8").split("## Command-line interface", 1)[1]
    config = parse_config(json.loads(re.search(r"```json\n(.*?)```", section, re.DOTALL).group(1)))
    assert config.geometry.zeta == 5.0 and config.geometry.fiber_length == 5.0
    assert config.model == "both" and config.fiber_alignment == "resonant" and config.sweep is None
