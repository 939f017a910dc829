import json
import re
from dataclasses import fields, is_dataclass

import pytest

from cascavity import ConfigError, config
from cascavity.config import load_config, parse_config


def base_config(**overrides):
    raw = {
        "schema_version": 1,
        "geometry": {
            "zeta": 5.0,
            "cavity_length": 1.0,
            "fiber_length": 5.0,
            "cavity_order": 10,
        },
    }
    raw.update(overrides)
    return raw


class TestParseConfig:
    def test_minimal_config_fills_defaults(self):
        cfg = parse_config(base_config())
        assert cfg.model == "both"
        assert cfg.fiber_alignment == "resonant"
        assert cfg.sweep is None
        assert (cfg.drive.a_in, cfg.drive.d_in, cfg.drive.d_phase) == (1.0, 0.0, 0.0)
        assert cfg.output.directory == "out" and cfg.output.svg is False
        assert cfg.phase_grid.points == 181

    def test_unknown_top_level_key_named(self):
        with pytest.raises(ConfigError, match="drvie"):
            parse_config(base_config(drvie={}))

    def test_unknown_nested_key_named(self):
        raw = base_config()
        raw["geometry"]["zets"] = 3.0
        with pytest.raises(ConfigError, match=r"geometry\.'zets'"):
            parse_config(raw)

    def test_missing_geometry(self):
        with pytest.raises(ConfigError, match="geometry"):
            parse_config({"schema_version": 1})

    def test_wrong_schema_version(self):
        with pytest.raises(ConfigError, match="schema_version"):
            parse_config(base_config(schema_version=99))

    def test_sweep_needs_at_least_two_points(self):
        for points in (0, 1):
            raw = base_config(sweep={"parameter": "omega", "min": 1.0, "max": 2.0, "points": points})
            with pytest.raises(ConfigError, match="points"):
                parse_config(raw)

    def test_sweep_bounds_ordered(self):
        raw = base_config(sweep={"parameter": "omega", "min": 2.0, "max": 1.0, "points": 10})
        with pytest.raises(ConfigError, match="sweep"):
            parse_config(raw)

    def test_pump_key_is_unknown(self):
        # a pump eta_l, eta_r * exp(-i phi) is the field drive eta_l/sqrt(kappa), eta_r/sqrt(kappa), phi
        with pytest.raises(ConfigError, match=r"unknown key drive\.'eta_l'"):
            parse_config(base_config(drive={"eta_l": 0.1}))

    def test_zeta_grid_validation(self):
        with pytest.raises(ConfigError, match=r"zeta_grid\[1\]"):
            parse_config(base_config(zeta_grid=[3.0, 0.5]))
        with pytest.raises(ConfigError, match="zeta_grid"):
            parse_config(base_config(zeta_grid=[]))

    def test_model_validation(self):
        with pytest.raises(ConfigError, match="model"):
            parse_config(base_config(model="hybrid"))

    def test_single_cavity_excludes_fiber(self):
        raw = base_config()
        raw["geometry"]["single_cavity"] = True
        with pytest.raises(ConfigError, match="single_cavity"):
            parse_config(raw)
        del raw["geometry"]["fiber_length"]
        cfg = parse_config(raw)
        assert cfg.geometry.single_cavity
        assert cfg.geometry.fiber_length is None

    def test_boolean_not_accepted_as_number(self):
        raw = base_config()
        raw["geometry"]["zeta"] = True
        with pytest.raises(ConfigError, match="zeta"):
            parse_config(raw)

    def test_resolved_round_trips_through_json(self):
        cfg = parse_config(base_config(model="scattering", output={"directory": "x", "svg": True}))
        resolved = cfg.resolved()
        assert json.loads(json.dumps(resolved)) == resolved
        assert resolved["model"] == "scattering"
        assert resolved["output"] == {"directory": "x", "svg": True}


# the schema: every dataclass the config module defines
SCHEMA = [c for c in vars(config).values() if isinstance(c, type) and is_dataclass(c) and c.__module__ == config.__name__]


def test_every_key_carries_its_check():
    # a rule on one key lives on its field; parse_config keeps only the rules that tie keys together
    assert len(SCHEMA) == 6
    unchecked = [f"{cls.__name__}.{f.name}" for cls in SCHEMA for f in fields(cls) if "check" not in f.metadata]
    assert unchecked == []


@pytest.mark.parametrize(
    "key, overrides",
    [
        ("model", {"model": "hybrid"}),
        ("fiber_alignment", {"fiber_alignment": "exact"}),
        ("sweep.parameter", {"sweep": {"parameter": "zeta", "min": 31.4, "max": 31.8, "points": 11}}),
        ("sweep.min", {"sweep": {"parameter": "omega", "min": -1.0, "max": 31.8, "points": 11}}),
        ("sweep.min", {"sweep": {"parameter": "omega", "min": 0, "max": 31.8, "points": 11}}),
        ("zeta_grid[1]", {"zeta_grid": [3.0, 1.0, 5.0]}),
    ],
)
def test_single_key_rule_names_its_key(key, overrides):
    with pytest.raises(ConfigError, match=rf"^{re.escape(key)} must be "):
        parse_config(base_config(**overrides))


SINGLE_CAVITY = {"zeta": 20.0, "cavity_length": 1.0, "cavity_order": 10, "single_cavity": True}


@pytest.mark.parametrize(
    "overrides",
    [
        {},
        {"geometry": SINGLE_CAVITY},
        {"fiber_alignment": "nominal", "geometry": {**base_config()["geometry"], "fiber_order": 48}},
        {
            "sweep": {"parameter": "omega", "min": 31.4, "max": 31.8, "points": 11},
            "zeta_grid": [2, 5.5, 200],
            "phase_grid": {"min": -1.0, "max": 2.0, "points": 7},
            "output": {"directory": "run--1", "svg": True},
        },
    ],
    ids=["minimal", "single_cavity", "nominal_fiber_order", "grids_and_output"],
)
def test_resolved_parses_back_to_the_config(overrides):
    cfg = parse_config(base_config(**overrides))
    assert parse_config(json.loads(json.dumps(cfg.resolved()))) == cfg


class TestLoadConfig:
    def test_loads_from_file(self, tmp_path):
        path = tmp_path / "run.json"
        path.write_text(json.dumps(base_config()))
        cfg = load_config(path)
        assert cfg.geometry.zeta == 5.0

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read"):
            load_config(tmp_path / "absent.json")

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError, match="not valid JSON"):
            load_config(path)
