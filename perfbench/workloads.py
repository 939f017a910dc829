"""Seeded workloads: the configs each op reads, the CLI commands it runs, and its checks.

One op is one pass over a workload's command list.  The seed picks the
geometry, the rows the checks read and the order of the zeta grid; grid sizes
are fixed per workload, so the work per op does not depend on the seed.

Why these three (each stresses a different layer):

* ``sweep-400k``: ``spectrum`` then ``profile`` at 400,001 omega points.  One
  big batch per call: output formatting dominates, scattering is ~10%.
* ``peaks-zeta``: ``delta`` over 10 fixed log-spaced zeta in [2, 1000], in
  seeded order, at 40,001 points.  Peak finding and Lorentzian fits dominate; the CSV is a
  few rows, so this is the workload that bypasses any output optimisation.
* ``darkmode-map``: ``darkmode --svg`` at the default 401 x 181 grid, then
  ``match``.  Scattering runs as 181 small calls instead of one big one, and
  this is the only workload that draws an SVG.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from pathlib import Path

import reference


@dataclass(frozen=True)
class Sizes:
    """Grid sizes of one op.  ``dark_omega_points=None`` keeps the CLI's default 401."""

    sweep_points: int = 400_001
    delta_points: int = 40_001
    zeta_count: int = 10
    zeta_max: float = 1000.0
    dark_omega_points: int | None = None
    dark_phase_points: int = 181
    check_rows: int = 8


FULL = Sizes()
# Small enough for the self-test to finish in seconds.  zeta_max drops with the
# grid so that every zeta keeps enough samples per line width.
TINY = Sizes(
    sweep_points=2001,
    delta_points=4001,
    zeta_count=3,
    zeta_max=40.0,
    dark_omega_points=41,
    dark_phase_points=19,
    check_rows=4,
)
DARK_DEFAULT_OMEGA_POINTS = 401  # runs.DARKMODE_DEFAULT_POINTS
DARK_DEFAULT_PHASE_POINTS = 181  # config.PhaseConfig default
# The README's standard comparison; zeta is unused by ``delta``.
STANDARD_GEOMETRY = {"zeta": 5.0, "cavity_length": 1.0, "fiber_length": 5.0, "cavity_order": 10}


def _log_uniform(rng: random.Random, lo: float, hi: float) -> float:
    return lo * (hi / lo) ** rng.random()


def _geometry(rng: random.Random) -> dict:
    return {
        "zeta": round(_log_uniform(rng, 3.0, 20.0), 6),
        "cavity_length": 1.0,
        "fiber_length": round(rng.uniform(2.0, 8.0), 6),
        "cavity_order": rng.randint(5, 20),
    }


def _config(geometry: dict, **extra) -> dict:
    return {"schema_version": 1, "geometry": geometry, "model": "both", **extra}


def _peak_rows(points: int) -> list[int]:
    """Rows at the three resonances of the default window omega_c +- 3*sqrt(2)*g."""
    mid = (points - 1) // 2
    side = (points - 1) // 6
    return [mid - side, mid, mid + side]


def _rows(rng: random.Random, points: int, count: int) -> list[int]:
    return sorted(set(_peak_rows(points) + rng.sample(range(points), count)))


class Workload:
    """A workload instance for one seed: configs, commands, check points."""

    def __init__(self, name: str, seed: int, sizes: Sizes = FULL):
        if name not in NAMES:
            raise ValueError(f"unknown workload {name!r}; choose from {', '.join(NAMES)}")
        self.name, self.seed, self.sizes = name, seed, sizes
        rng = random.Random(f"{name}/{seed}")
        s = sizes
        if name == "sweep-400k":
            self.configs = {"sweep.json": _config(_geometry(rng))}
            self.checkpoints = {"rows": _rows(rng, s.sweep_points, s.check_rows)}
            self.samples_per_op = 4 * s.sweep_points  # 2 commands x 2 models
        elif name == "peaks-zeta":
            # Fixed geometry and zeta values; the seed only orders them.  Above
            # zeta ~ 300 rounding noise in the scattering spectrum adds hundreds
            # of spurious local maxima, and find_peaks walks each one, so its
            # cost per op swings 0.4-2.6 s with the exact zeta and geometry.
            # Drawing those from the seed would make the op time a function of
            # the seed rather than of the program.
            zetas = [round(2.0 * (s.zeta_max / 2.0) ** (i / (s.zeta_count - 1)), 6) for i in range(s.zeta_count)]
            rng.shuffle(zetas)
            self.configs = {"delta.json": _config(dict(STANDARD_GEOMETRY), zeta_grid=zetas)}
            self.checkpoints = {}
            self.samples_per_op = 2 * s.zeta_count * s.delta_points  # 2 models per zeta
        else:
            # darkmode ignores the drive; match reports it
            drive = {"a_in": 1.0, "d_in": round(rng.uniform(0.0, 1.0), 6), "d_phase": round(rng.uniform(-math.pi, math.pi), 6)}
            extra = {"drive": drive}
            if s.dark_phase_points != DARK_DEFAULT_PHASE_POINTS:
                extra["phase_grid"] = {"min": -math.pi, "max": math.pi, "points": s.dark_phase_points}
            self.configs = {"dark.json": _config(_geometry(rng), **extra)}
            n_omega = s.dark_omega_points or DARK_DEFAULT_OMEGA_POINTS
            omega_rows = _peak_rows(n_omega) + rng.sample(range(n_omega), s.check_rows)
            self.checkpoints = {"cells": sorted((i, rng.randrange(s.dark_phase_points)) for i in omega_rows)}
            self.samples_per_op = n_omega * s.dark_phase_points  # one model, one drive per phi

    def write_configs(self, directory: Path) -> None:
        directory.mkdir(parents=True, exist_ok=True)
        for file_name, config in self.configs.items():
            (directory / file_name).write_text(json.dumps(config, indent=1), encoding="utf-8")

    def commands(self, config_dir: Path, out_dir: Path) -> list[list[str]]:
        """argv lists for ``cascavity.cli.main``, in op order."""
        s = self.sizes

        def cmd(command: str, config: str, *extra: str) -> list[str]:
            return [command, "--config", str(config_dir / config), "--out", str(out_dir), "--quiet", *extra]

        if self.name == "sweep-400k":
            grid = ("--grid-points", str(s.sweep_points))
            return [cmd("spectrum", "sweep.json", *grid), cmd("profile", "sweep.json", *grid)]
        if self.name == "peaks-zeta":
            return [cmd("delta", "delta.json", "--grid-points", str(s.delta_points))]
        grid = ("--grid-points", str(s.dark_omega_points)) if s.dark_omega_points else ()
        return [cmd("darkmode", "dark.json", "--svg", *grid), cmd("match", "dark.json")]

    def output_files(self) -> list[str]:
        return {
            "sweep-400k": ["spectrum.csv", "profile.csv"],
            "peaks-zeta": ["delta.csv"],
            "darkmode-map": ["darkmode.csv", "darkmode_fit.csv", "darkmode.svg", "params.json"],
        }[self.name]

    def check(self, out_dir: Path) -> list[str]:
        """Compare the op's outputs with the scalar reference; returns failure messages."""
        try:
            if self.name == "sweep-400k":
                config, rows = self.configs["sweep.json"], self.checkpoints["rows"]
                return reference.check_spectrum(out_dir / "spectrum.csv", config, rows) + reference.check_profile(
                    out_dir / "profile.csv", config, rows
                )
            if self.name == "peaks-zeta":
                return reference.check_delta(out_dir / "delta.csv", self.configs["delta.json"])
            config = self.configs["dark.json"]
            return reference.check_darkmode(
                out_dir / "darkmode.csv",
                out_dir / "darkmode_fit.csv",
                config,
                self.checkpoints["cells"],
                self.sizes.dark_phase_points,
            ) + reference.check_params(out_dir / "params.json", config)
        except (OSError, ValueError, KeyError) as exc:
            return [f"unreadable output: {type(exc).__name__}: {exc}"]


NAMES = ("sweep-400k", "peaks-zeta", "darkmode-map")
