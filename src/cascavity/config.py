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
      "drive": {"a_in": 1.0, "d_in": 0.0, "d_phase": 0.0},  # incident fields; spectrum needs a_in > 0
      "output": {"directory": "out", "svg": false}
    }

All sections except ``geometry`` are optional; ``sweep`` defaults to the
standard window around the matched resonance.

The dataclasses below are the schema.  Each key is declared once, as a field
that carries its default (none when required) and the check that parses its
JSON value (``_key``), so every rule on one key lives on its field;
``_section`` parses every section from these fields.  ``parse_config`` then
checks only the rules that tie keys together: ``single_cavity`` excludes the
fiber keys, a cascade requires ``fiber_length``, and ``min`` lies below
``max`` in ``sweep`` and ``phase_grid``.
``ExperimentConfig.resolved()`` walks the same fields back into JSON form,
leaving out unset keys, so the config in every output header is itself a
valid input that reproduces the run.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import MISSING, dataclass, field, fields, is_dataclass
from functools import partial
from pathlib import Path

from .errors import ConfigError

SCHEMA_VERSION = 1

MODELS = ("scattering", "coupled", "both")
ALIGNMENTS = ("resonant", "nominal")


def _float(v, name) -> float:
    # json reads integers of any size, and float() of one beyond the float64 range raises OverflowError
    try:
        return float(v)
    except OverflowError:
        raise ConfigError(f"{name} must fit in a float64, got an integer above {sys.float_info.max:.4g}") from None


def _number(v, name, minimum=None, exclusive=False) -> float:
    if isinstance(v, bool) or not isinstance(v, (int, float)) or not math.isfinite(x := _float(v, name)):
        raise ConfigError(f"{name} must be a finite number, got {v!r}")
    if minimum is not None and (x <= minimum if exclusive else x < minimum):
        raise ConfigError(f"{name} must be {'>' if exclusive else '>='} {minimum}, got {v!r}")
    return x


def _integer(v, name, minimum) -> int:
    if isinstance(v, bool) or not isinstance(v, int):
        raise ConfigError(f"{name} must be an integer, got {v!r}")
    _float(v, name)  # every integer key ends up in float arithmetic
    if v < minimum:
        raise ConfigError(f"{name} must be >= {minimum}, got {v!r}")
    return v


def _flag(v, name) -> bool:
    if not isinstance(v, bool):
        raise ConfigError(f"{name} must be a boolean, got {v!r}")
    return v


def _text(v, name) -> str:
    if not isinstance(v, str) or not v:
        raise ConfigError(f"{name} must be a nonempty string, got {v!r}")
    return v


def _numbers(v, name, **bound) -> tuple[float, ...]:
    if not isinstance(v, list) or not v:
        raise ConfigError(f"{name} must be a nonempty array of numbers")
    return tuple(_number(x, f"{name}[{i}]", **bound) for i, x in enumerate(v))


def _choice(v, name, options) -> str:
    if v not in options:
        raise ConfigError(f"{name} must be one of {options}, got {v!r}")
    return v


def _version(v, name) -> int:
    if v != SCHEMA_VERSION:
        raise ConfigError(f"unsupported {name} {v!r} (expected {SCHEMA_VERSION})")
    return SCHEMA_VERSION


_positive = partial(_number, minimum=0.0, exclusive=True)
_nonnegative = partial(_number, minimum=0.0)
_order = partial(_integer, minimum=1)
_points = partial(_integer, minimum=2)


def _key(check, default=MISSING):
    """A schema key: its default (none: the key is required) and the check that parses its JSON value."""
    return field(default=default, metadata={"check": check})


def _section(cls, raw, where: str):
    """Parse one section into ``cls``: unknown keys are rejected, absent keys take the field defaults."""
    if not isinstance(raw, dict):
        raise ConfigError(f"{where or 'configuration root'} must be an object")
    keys = fields(cls)
    names = {f.name for f in keys}
    for key in raw:
        if key not in names:
            raise ConfigError(f"unknown key {where}.{key!r}" if where else f"unknown key {key!r}")
    values = {}
    for f in keys:
        name = f"{where}.{f.name}" if where else f.name
        if f.name in raw:
            check = f.metadata.get("check")
            values[f.name] = check(raw[f.name], name) if check else raw[f.name]
        elif f.default is MISSING:
            raise ConfigError(f"missing required key {name}" if where else f"missing required key {name!r}")
    return cls(**values)


def _plain(value):
    """The JSON form of a config value; a dataclass leaves out its fields that are None or empty."""
    if is_dataclass(value):
        items = ((f.name, _plain(getattr(value, f.name))) for f in fields(value))
        return {k: v for k, v in items if v is not None and v != []}
    return list(value) if isinstance(value, tuple) else value


@dataclass(frozen=True)
class GeometryConfig:
    zeta: float = _key(_positive)
    cavity_length: float = _key(_positive)
    cavity_order: int = _key(_order)
    fiber_length: float | None = _key(_positive, None)
    fiber_order: int | None = _key(_order, None)
    single_cavity: bool = _key(_flag, False)


@dataclass(frozen=True)
class SweepConfig:
    min: float = _key(_positive)
    max: float = _key(_number)
    points: int = _key(_points)
    parameter: str = _key(partial(_choice, options=("omega",)), "omega")


@dataclass(frozen=True)
class PhaseConfig:
    min: float = _key(_number, -math.pi)
    max: float = _key(_number, math.pi)
    points: int = _key(_points, 181)


@dataclass(frozen=True)
class FieldDrive:
    """Incident field amplitudes: a_in from the left, d_in * exp(-i d_phase) from the right.

    Both models take these fields; the coupled engine turns each into a pump
    through its port rate, eta = sqrt(kappa) * A.  A run written with pumps
    eta_l, eta_r * exp(-i phi) is the field drive a_in = eta_l / sqrt(kappa),
    d_in = eta_r / sqrt(kappa), d_phase = phi.
    """

    a_in: float = _key(_nonnegative, 1.0)
    d_in: float = _key(_nonnegative, 0.0)
    d_phase: float = _key(_number, 0.0)


@dataclass(frozen=True)
class OutputConfig:
    directory: str = _key(_text, "out")
    svg: bool = _key(_flag, False)


@dataclass(frozen=True, kw_only=True)
class ExperimentConfig:
    schema_version: int = _key(_version, SCHEMA_VERSION)
    geometry: GeometryConfig = _key(partial(_section, GeometryConfig))
    model: str = _key(partial(_choice, options=MODELS), "both")
    fiber_alignment: str = _key(partial(_choice, options=ALIGNMENTS), "resonant")
    sweep: SweepConfig | None = _key(partial(_section, SweepConfig), None)
    zeta_grid: tuple[float, ...] = _key(partial(_numbers, minimum=1.0, exclusive=True), ())  # > 1: resolvable peaks
    phase_grid: PhaseConfig = _key(partial(_section, PhaseConfig), PhaseConfig())
    drive: FieldDrive = _key(partial(_section, FieldDrive), FieldDrive())
    output: OutputConfig = _key(partial(_section, OutputConfig), OutputConfig())

    def resolved(self) -> dict:
        """Plain-dict form embedded in output file headers; ``parse_config`` reads it back to this config."""
        return _plain(self)


def _ordered(grid, where: str):
    if not grid.min < grid.max:
        raise ConfigError(f"{where}.min ({grid.min}) must be below {where}.max ({grid.max})")


def parse_config(raw: dict) -> ExperimentConfig:
    """The config that ``raw`` describes: each key checked on its field, then the rules that tie keys together."""
    config = _section(ExperimentConfig, raw, "")
    geo = config.geometry
    if geo.single_cavity and (geo.fiber_length is not None or geo.fiber_order is not None):
        raise ConfigError("geometry.single_cavity excludes fiber_length and fiber_order")
    if not geo.single_cavity and geo.fiber_length is None:
        raise ConfigError("missing required key geometry.fiber_length")
    if config.sweep is not None:
        _ordered(config.sweep, "sweep")
    _ordered(config.phase_grid, "phase_grid")
    return config


def load_config(path) -> ExperimentConfig:
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read configuration file {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ConfigError(f"configuration file {path} is not UTF-8 text: {exc}") from exc
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"configuration file {path} is not valid JSON: {exc}") from exc
    except RecursionError as exc:
        raise ConfigError(f"configuration file {path} nests JSON too deeply to read: {exc}") from exc
    except ValueError as exc:  # valid JSON that Python cannot hold, e.g. an integer past int()'s digit limit
        raise ConfigError(f"cannot read configuration file {path}: {exc}") from exc
    return parse_config(raw)
