"""Experiment configuration: a single JSON file per run, strictly validated.

Schema (version 1); unknown keys anywhere are rejected by name:

    {
      "schema_version": 1,
      "geometry": {
        "zeta": 5.0,              # mirror polarizability, > 0
        "cavity_length": 1.0,     # cavity gap, units of the reference length
        "fiber_length": 5.0,      # middle gap; omit when single_cavity
        "cavity_order": 10,       # resonance order n >= 1
        "fiber_order": 50,        # optional; default: nearest to omega_c
        "single_cavity": false    # compare one two-mirror cavity instead
      },
      "model": "both",            # "scattering" | "coupled" | "both"
      "fiber_alignment": "resonant",  # or "nominal" (keep fiber_length exactly)
      "sweep": {"parameter": "omega", "min": 31.4, "max": 31.8, "points": 4001},
      "zeta_grid": [3, 5, 8, 12, 20],          # delta runs only
      "phase_grid": {"min": -3.14159, "max": 3.14159, "points": 181},
      "drive": {"a_in": 1.0, "d_in": 0.0, "d_phase": 0.0},
      #   or    {"eta_l": 0.14, "eta_r": 0.0, "phi": 0.0}
      "output": {"directory": "out", "svg": false}
    }

All sections except ``geometry`` are optional and default as above; ``sweep``
defaults to the standard window around the matched resonance.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

from .errors import ConfigError

SCHEMA_VERSION = 1

MODELS = ("scattering", "coupled", "both")
ALIGNMENTS = ("resonant", "nominal")
# The keys of each drive kind; a config and its resolved form carry one kind's keys only.
DRIVE_KEYS = {"field": ("a_in", "d_in", "d_phase"), "pump": ("eta_l", "eta_r", "phi")}


def _require_keys(section: dict, allowed: set[str], where: str):
    for key in section:
        if key not in allowed:
            raise ConfigError(f"unknown key {where}.{key!r}" if where else f"unknown key {key!r}")


def _number(section: dict, key: str, where: str, *, default=None, minimum=None, exclusive=False):
    if key not in section:
        if default is None:
            raise ConfigError(f"missing required key {where}.{key}")
        return default
    v = section[key]
    if isinstance(v, bool) or not isinstance(v, (int, float)) or not math.isfinite(v):
        raise ConfigError(f"{where}.{key} must be a finite number, got {v!r}")
    if minimum is not None and (v <= minimum if exclusive else v < minimum):
        op = ">" if exclusive else ">="
        raise ConfigError(f"{where}.{key} must be {op} {minimum}, got {v!r}")
    return float(v)


def _integer(section: dict, key: str, where: str, *, default=None, minimum=None):
    if key not in section:
        if default is None:
            raise ConfigError(f"missing required key {where}.{key}")
        return default
    v = section[key]
    if isinstance(v, bool) or not isinstance(v, int):
        raise ConfigError(f"{where}.{key} must be an integer, got {v!r}")
    if minimum is not None and v < minimum:
        raise ConfigError(f"{where}.{key} must be >= {minimum}, got {v!r}")
    return v


@dataclass(frozen=True)
class GeometryConfig:
    zeta: float
    cavity_length: float
    cavity_order: int
    fiber_length: float | None = None
    fiber_order: int | None = None
    single_cavity: bool = False


@dataclass(frozen=True)
class SweepConfig:
    parameter: str
    lo: float
    hi: float
    points: int


@dataclass(frozen=True)
class PhaseConfig:
    lo: float = -math.pi
    hi: float = math.pi
    points: int = 181


@dataclass(frozen=True)
class DriveConfig:
    """Two-sided drive, either as incident field amplitudes or pump strengths."""

    kind: str = "field"  # "field": a_in/d_in/d_phase; "pump": eta_l/eta_r/phi
    a_in: float = 1.0
    d_in: float = 0.0
    d_phase: float = 0.0
    eta_l: float | None = None
    eta_r: float | None = None
    phi: float | None = None


@dataclass(frozen=True)
class OutputConfig:
    directory: str = "out"
    svg: bool = False


@dataclass(frozen=True)
class ExperimentConfig:
    geometry: GeometryConfig
    model: str = "both"
    fiber_alignment: str = "resonant"
    sweep: SweepConfig | None = None
    zeta_grid: tuple[float, ...] = ()
    phase_grid: PhaseConfig = field(default_factory=PhaseConfig)
    drive: DriveConfig = field(default_factory=DriveConfig)
    output: OutputConfig = field(default_factory=OutputConfig)

    def resolved(self) -> dict:
        """Plain-dict form embedded in output file headers."""
        d = {
            "schema_version": SCHEMA_VERSION,
            "geometry": {
                "zeta": self.geometry.zeta,
                "cavity_length": self.geometry.cavity_length,
                "cavity_order": self.geometry.cavity_order,
                "fiber_length": self.geometry.fiber_length,
                "fiber_order": self.geometry.fiber_order,
                "single_cavity": self.geometry.single_cavity,
            },
            "model": self.model,
            "fiber_alignment": self.fiber_alignment,
            "drive": {
                "kind": self.drive.kind,
                **{key: getattr(self.drive, key) for key in DRIVE_KEYS[self.drive.kind]},
            },
            "output": {"directory": self.output.directory, "svg": self.output.svg},
        }
        if self.sweep is not None:
            d["sweep"] = {
                "parameter": self.sweep.parameter,
                "min": self.sweep.lo,
                "max": self.sweep.hi,
                "points": self.sweep.points,
            }
        if self.zeta_grid:
            d["zeta_grid"] = list(self.zeta_grid)
        d["phase_grid"] = {
            "min": self.phase_grid.lo,
            "max": self.phase_grid.hi,
            "points": self.phase_grid.points,
        }
        return d


def _parse_geometry(raw) -> GeometryConfig:
    if not isinstance(raw, dict):
        raise ConfigError("geometry must be an object")
    _require_keys(
        raw,
        {"zeta", "cavity_length", "fiber_length", "cavity_order", "fiber_order", "single_cavity"},
        "geometry",
    )
    single = raw.get("single_cavity", False)
    if not isinstance(single, bool):
        raise ConfigError(f"geometry.single_cavity must be a boolean, got {single!r}")
    zeta = _number(raw, "zeta", "geometry", minimum=0.0, exclusive=True)
    l_c = _number(raw, "cavity_length", "geometry", minimum=0.0, exclusive=True)
    n_c = _integer(raw, "cavity_order", "geometry", minimum=1)
    l_f = None
    n_f = None
    if not single:
        l_f = _number(raw, "fiber_length", "geometry", minimum=0.0, exclusive=True)
        if "fiber_order" in raw:
            n_f = _integer(raw, "fiber_order", "geometry", minimum=1)
    elif "fiber_length" in raw or "fiber_order" in raw:
        raise ConfigError("geometry.single_cavity excludes fiber_length and fiber_order")
    return GeometryConfig(zeta, l_c, n_c, l_f, n_f, single)


def _parse_sweep(raw) -> SweepConfig:
    if not isinstance(raw, dict):
        raise ConfigError("sweep must be an object")
    _require_keys(raw, {"parameter", "min", "max", "points"}, "sweep")
    parameter = raw.get("parameter", "omega")
    if parameter != "omega":
        raise ConfigError(f"sweep.parameter must be 'omega', got {parameter!r}")
    lo = _number(raw, "min", "sweep")
    hi = _number(raw, "max", "sweep")
    points = _integer(raw, "points", "sweep", minimum=2)
    if not lo < hi:
        raise ConfigError(f"sweep.min ({lo}) must be below sweep.max ({hi})")
    if lo <= 0:
        raise ConfigError(f"sweep.min must be positive, got {lo}")
    return SweepConfig(parameter, lo, hi, points)


def _parse_phase(raw) -> PhaseConfig:
    if not isinstance(raw, dict):
        raise ConfigError("phase_grid must be an object")
    _require_keys(raw, {"min", "max", "points"}, "phase_grid")
    lo = _number(raw, "min", "phase_grid", default=-math.pi)
    hi = _number(raw, "max", "phase_grid", default=math.pi)
    points = _integer(raw, "points", "phase_grid", default=181, minimum=2)
    if not lo < hi:
        raise ConfigError(f"phase_grid.min ({lo}) must be below phase_grid.max ({hi})")
    return PhaseConfig(lo, hi, points)


def _parse_drive(raw) -> DriveConfig:
    if not isinstance(raw, dict):
        raise ConfigError("drive must be an object")
    field_keys, pump_keys = set(DRIVE_KEYS["field"]), set(DRIVE_KEYS["pump"])
    _require_keys(raw, field_keys | pump_keys, "drive")
    has_field = bool(field_keys & raw.keys())
    has_pump = bool(pump_keys & raw.keys())
    if has_field and has_pump:
        raise ConfigError("drive mixes field keys (a_in/d_in/d_phase) with pump keys (eta_l/eta_r/phi)")
    if has_pump:
        eta_l = _number(raw, "eta_l", "drive", default=0.0, minimum=0.0)
        eta_r = _number(raw, "eta_r", "drive", default=0.0, minimum=0.0)
        phi = _number(raw, "phi", "drive", default=0.0)
        return DriveConfig(kind="pump", eta_l=eta_l, eta_r=eta_r, phi=phi)
    a_in = _number(raw, "a_in", "drive", default=1.0, minimum=0.0)
    d_in = _number(raw, "d_in", "drive", default=0.0, minimum=0.0)
    d_phase = _number(raw, "d_phase", "drive", default=0.0)
    return DriveConfig(kind="field", a_in=a_in, d_in=d_in, d_phase=d_phase)


def _parse_output(raw) -> OutputConfig:
    if not isinstance(raw, dict):
        raise ConfigError("output must be an object")
    _require_keys(raw, {"directory", "svg"}, "output")
    directory = raw.get("directory", "out")
    if not isinstance(directory, str) or not directory:
        raise ConfigError(f"output.directory must be a nonempty string, got {directory!r}")
    svg = raw.get("svg", False)
    if not isinstance(svg, bool):
        raise ConfigError(f"output.svg must be a boolean, got {svg!r}")
    return OutputConfig(directory, svg)


def parse_config(raw: dict) -> ExperimentConfig:
    if not isinstance(raw, dict):
        raise ConfigError("configuration root must be an object")
    _require_keys(
        raw,
        {
            "schema_version",
            "geometry",
            "model",
            "fiber_alignment",
            "sweep",
            "zeta_grid",
            "phase_grid",
            "drive",
            "output",
        },
        "",
    )
    version = raw.get("schema_version", SCHEMA_VERSION)
    if version != SCHEMA_VERSION:
        raise ConfigError(f"unsupported schema_version {version!r} (expected {SCHEMA_VERSION})")
    if "geometry" not in raw:
        raise ConfigError("missing required key 'geometry'")
    geometry = _parse_geometry(raw["geometry"])
    model = raw.get("model", "both")
    if model not in MODELS:
        raise ConfigError(f"model must be one of {MODELS}, got {model!r}")
    alignment = raw.get("fiber_alignment", "resonant")
    if alignment not in ALIGNMENTS:
        raise ConfigError(f"fiber_alignment must be one of {ALIGNMENTS}, got {alignment!r}")
    sweep = _parse_sweep(raw["sweep"]) if "sweep" in raw else None
    zeta_grid: tuple[float, ...] = ()
    if "zeta_grid" in raw:
        grid = raw["zeta_grid"]
        if not isinstance(grid, list) or not grid:
            raise ConfigError("zeta_grid must be a nonempty array of numbers")
        values = []
        for i, v in enumerate(grid):
            if isinstance(v, bool) or not isinstance(v, (int, float)) or not math.isfinite(v):
                raise ConfigError(f"zeta_grid[{i}] must be a finite number, got {v!r}")
            if v <= 1:
                raise ConfigError(f"zeta_grid[{i}] must be > 1 for resolvable peaks, got {v!r}")
            values.append(float(v))
        zeta_grid = tuple(values)
    phase = _parse_phase(raw["phase_grid"]) if "phase_grid" in raw else PhaseConfig()
    drive = _parse_drive(raw["drive"]) if "drive" in raw else DriveConfig()
    output = _parse_output(raw["output"]) if "output" in raw else OutputConfig()
    return ExperimentConfig(
        geometry=geometry,
        model=model,
        fiber_alignment=alignment,
        sweep=sweep,
        zeta_grid=zeta_grid,
        phase_grid=phase,
        drive=drive,
        output=output,
    )


def load_config(path) -> ExperimentConfig:
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read configuration file {path}: {exc}") from exc
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"configuration file {path} is not valid JSON: {exc}") from exc
    return parse_config(raw)
