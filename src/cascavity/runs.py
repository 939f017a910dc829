"""Experiment runners: turn a validated configuration into CSV/JSON/SVG files.

The sampled runs (``spectrum``, ``profile``, ``darkmode``) go through one
pipeline, ``_sampled``, whose stages run in this order:

1. grid: ``_omega_grid`` samples ``sweep`` or the default window around the
   matched resonance, and refuses a grid too fine for float64;
2. compute: the runner's ``compute(grid)`` gives its tables and its plot;
3. write: each table gains ``omega_over_omega_c``, its first column over the
   matched ``omega_c``, as its last column, and ``_write`` writes it as CSV;
4. plot: with ``--svg``, ``_write`` draws the plot the runner named.

``delta`` has no grid and goes straight to ``_write``; ``match`` writes one
JSON file.  Each stage looks up the layer entry points it calls
(``write_csv``, ``write_json``, ``dark_mode_scan``, ``intensity_comparison``,
``peak_separation_delta`` here; ``line_plot`` and ``heat_map`` in ``svgplot``)
as module attributes when it runs, and never keeps them in a table built at
import: the benchmark tracer (``perfbench/spans.py``) times each layer by
patching those attributes, and a runner captured early would record no span.
The CLI looks up ``run_<command>`` in this module the same way, so a test can
monkeypatch a runner.  ``svgplot`` is imported only when a plot is drawn.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import __version__
from .config import ExperimentConfig, FieldDrive, PumpDrive, SweepConfig
from .errors import ConfigError
from .matching import eta_from_input, kappa_from_geometry
from .output import config_json, write_csv, write_json
from .spectra import (
    DEFAULT_GRID_POINTS,
    build_cascade,
    build_single_cavity,
    dark_mode_scan,
    default_omega_window,
    intensity_comparison,
    peak_separation_delta,
    sweep_coupled,
    sweep_scattering,
)

DARKMODE_DEFAULT_POINTS = 401


def _svg_meta(resolved: dict) -> str:
    return f"cascavity {__version__} config " + config_json(resolved)


def _resolve_drive(drive: FieldDrive | PumpDrive, kappa: float):
    """Return (a_in, d_in, phase, eta_l, eta_r) for a given kappa; the right drive carries exp(-i*phase)."""
    if isinstance(drive, PumpDrive):
        root = math.sqrt(kappa)
        return drive.eta_l / root, drive.eta_r / root, drive.phi, drive.eta_l, drive.eta_r
    eta_l = eta_from_input(kappa, drive.a_in)
    eta_r = eta_from_input(kappa, drive.d_in)
    return drive.a_in, drive.d_in, drive.d_phase, eta_l, eta_r


def _cascaded_geometry(config: ExperimentConfig, command: str):
    if config.geometry.single_cavity:
        raise ConfigError(f"{command} runs require the cascaded geometry")
    return config.geometry


def _cascade(config: ExperimentConfig, command: str):
    """The configured four-mirror stack and its matched mode system."""
    geo = _cascaded_geometry(config, command)
    return build_cascade(
        geo.zeta,
        geo.cavity_length,
        geo.fiber_length,
        geo.cavity_order,
        geo.fiber_order,
        fiber_alignment=config.fiber_alignment,
    )


def _omega_grid(command: str, config: ExperimentConfig, setup, grid_points: int | None, default_points: int):
    """The grid to sample, and the resolved configuration with it as ``sweep`` (which linspace reproduces exactly).

    A grid whose step float64 cannot resolve at its top repeats points; that is
    a configuration error naming where the grid came from.
    """
    flag = " and --grid-points" if grid_points else ""
    if config.sweep is not None:
        grid = np.linspace(config.sweep.min, config.sweep.max, grid_points or config.sweep.points)
        source = "sweep.min/sweep.max" + (flag or "/sweep.points")
    else:
        grid = default_omega_window(setup, grid_points or default_points)
        source = f"the default window at geometry.zeta = {config.geometry.zeta!r}{flag}"
    sampled = SweepConfig(min=float(grid[0]), max=float(grid[-1]), points=grid.size)
    if not np.all(np.diff(grid) > 0):
        step = (sampled.max - sampled.min) / (sampled.points - 1)
        raise ConfigError(
            f"{command}: the grid from {source} ({sampled.points} points over [{sampled.min!r}, {sampled.max!r}])"
            f" is not strictly increasing: its step {step:.3g} is not above the float64 spacing"
            f" {np.spacing(sampled.max):.3g} at its top; use fewer points or a wider range"
        )
    return grid, replace(config, sweep=sampled).resolved()


def _write(out_dir: Path, command: str, resolved: dict, tables, plot, svg: bool):
    """Write each (file name, columns) table as CSV, and with ``svg`` the plot as ``<command>.svg``.

    ``plot`` is (``svgplot`` function name, positional arguments, labels).
    """
    paths = [write_csv(out_dir / name, columns, __version__, resolved) for name, columns in tables]
    tables.clear()  # a plot is a run's memory peak, so the written columns are freed first
    if svg:
        from . import svgplot

        kind, args, labels = plot
        paths.append(getattr(svgplot, kind)(out_dir / f"{command}.svg", *args, meta=_svg_meta(resolved), **labels))
    return paths


def _sampled(command: str, config: ExperimentConfig, setup, out_dir: Path, svg: bool, grid_points, default_points, compute):
    """Run the sampled pipeline: grid -> ``compute(grid)`` -> write -> plot; returns the paths written.

    ``compute`` returns the run's tables, each with omega as its first column, and its plot.
    """
    grid, resolved = _omega_grid(command, config, setup, grid_points, default_points)
    tables, plot = compute(grid)
    omega_c = setup.system.omega_c
    tables = [(name, [*columns, ("omega_over_omega_c", columns[0][1] / omega_c)]) for name, columns in tables]
    return _write(out_dir, command, resolved, tables, plot, svg)


def run_spectrum(config: ExperimentConfig, out_dir: Path, svg: bool, grid_points: int | None):
    """Transmission spectra of the selected model(s) -> spectrum.csv [spectrum.svg]."""
    geo = config.geometry
    kappa = kappa_from_geometry(geo.zeta, geo.cavity_length)
    a_in, d_in, phase, eta_l, eta_r = _resolve_drive(config.drive, kappa)
    if a_in == 0 and config.model != "coupled":
        raise ConfigError("the scattering spectrum needs a left drive: drive.a_in (or drive.eta_l) must be > 0")
    if not geo.single_cavity:
        setup = _cascade(config, "spectrum")
        pumps = (eta_l, eta_r * cmath.exp(-1j * phase))
    elif d_in != 0.0:
        raise ConfigError("single_cavity runs support left-side drive only: drive.d_in (or drive.eta_r) must be 0")
    else:
        setup = build_single_cavity(geo.zeta, geo.cavity_length, geo.cavity_order)
        pumps = (0.0, eta_l)  # the single cavity is the measured mode b

    def compute(grid):
        columns = [("omega", grid)]
        series = []
        if config.model in ("scattering", "both"):
            scat = sweep_scattering(setup.stack, grid, a_in, d_in * np.exp(-1j * phase))
            columns.append(("scattering_value", scat.values))
            series.append(("scattering", scat.values))
        if config.model in ("coupled", "both"):
            coup = sweep_coupled(setup.system, grid, *pumps)
            columns.append(("coupled_value", coup.values))
            series.append(("coupled", coup.values))
        labels = dict(xlabel="omega (c/L)", ylabel="transmitted photocurrent", title="transmission spectrum", logy=True)
        return [("spectrum.csv", columns)], ("line_plot", (grid, series), labels)

    return _sampled("spectrum", config, setup, out_dir, svg, grid_points, DEFAULT_GRID_POINTS, compute)


def run_delta(config: ExperimentConfig, out_dir: Path, svg: bool, grid_points: int | None):
    """Side-to-middle resonance distance differences over the zeta grid -> delta.csv [delta.svg].

    The resonances are complex poles, so no frequency grid is used and
    ``grid_points`` has no effect.
    """
    if not config.zeta_grid:
        raise ConfigError("delta runs require a zeta_grid")
    if config.sweep is not None:
        raise ConfigError(
            "delta runs do not read 'sweep': the resonances are poles, found without a frequency grid"
            " (--grid-points has no effect either)"
        )
    geo = _cascaded_geometry(config, "delta")
    entries = peak_separation_delta(
        config.zeta_grid,
        geo.cavity_length,
        geo.fiber_length,
        geo.cavity_order,
        fiber_alignment=config.fiber_alignment,
    )
    columns = [
        ("zeta", [e.zeta for e in entries]),
        ("delta_left", [e.delta_left for e in entries]),
        ("delta_right", [e.delta_right for e in entries]),
        ("delta_mean", [e.delta_mean for e in entries]),
        ("kappa", [e.kappa for e in entries]),
        ("error", [e.error or "" for e in entries]),
        ("delta_mean_over_kappa", [e.delta_mean / e.kappa for e in entries]),
    ]
    for model, attr in (("scat", "scattering_poles"), ("coupled", "coupled_poles")):
        for i, side in enumerate(("lo", "mid", "hi")):
            columns.append((f"{model}_hw_{side}", [-getattr(e, attr)[i].imag for e in entries]))
    abs_mean = [abs(e.delta_mean) if e.error is None else math.nan for e in entries]
    series = [("|delta_mean|", abs_mean), ("kappa", [e.kappa for e in entries])]
    labels = dict(
        xlabel="zeta",
        ylabel="peak-distance difference (c/L)",
        title="model disagreement vs mirror polarizability",
        logy=True,
    )
    plot = ("line_plot", ([e.zeta for e in entries], series), labels)
    return _write(out_dir, "delta", config.resolved(), [("delta.csv", columns)], plot, svg)


def run_profile(config: ExperimentConfig, out_dir: Path, svg: bool, grid_points: int | None):
    """Intracavity intensity curves for both models -> profile.csv [profile.svg]."""
    setup = _cascade(config, "profile")

    def compute(grid):
        curves = intensity_comparison(setup, grid)
        columns = [
            ("omega", curves.omega),
            ("scat_left", curves.scattering_left),
            ("scat_right", curves.scattering_right),
            ("coupled_left", curves.coupled_left),
            ("coupled_right", curves.coupled_right),
        ]
        series = [
            ("scattering left", curves.scattering_left),
            ("scattering right", curves.scattering_right),
            ("coupled left", curves.coupled_left),
            ("coupled right", curves.coupled_right),
        ]
        labels = dict(
            xlabel="omega (c/L)",
            ylabel="intracavity intensity",
            title="intracavity intensities, left-side drive",
            logy=True,
        )
        return [("profile.csv", columns)], ("line_plot", (curves.omega, series), labels)

    return _sampled("profile", config, setup, out_dir, svg, grid_points, DEFAULT_GRID_POINTS, compute)


def run_darkmode(config: ExperimentConfig, out_dir: Path, svg: bool, grid_points: int | None):
    """Fiber intensity vs (omega, phi) -> darkmode.csv, darkmode_fit.csv [darkmode.svg]."""
    setup = _cascade(config, "darkmode")
    phase = config.phase_grid

    def compute(omega):
        scan = dark_mode_scan(setup.stack, omega, np.linspace(phase.min, phase.max, phase.points))
        n_omega, n_phi = scan.intensity.shape
        closed_form = scan.c0[:, None] + scan.c1[:, None] * np.cos(scan.phi_grid - scan.phi0[:, None])
        scan_columns = [
            ("omega", np.repeat(scan.omega_grid, n_phi)),
            ("phi", np.tile(scan.phi_grid, n_omega)),
            ("fiber_intensity", scan.intensity.reshape(-1)),
        ]
        fit_columns = [
            ("omega", scan.omega_grid),
            ("c0", scan.c0),
            ("c1", scan.c1),
            ("phi0", scan.phi0),
            ("residual", np.max(np.abs(scan.intensity - closed_form), axis=1)),
            ("phi_min", np.remainder(scan.phi0, 2 * math.pi) - math.pi),
        ]
        labels = dict(xlabel="omega (c/L)", ylabel="phi (rad)", title="fiber intensity (log scale)", logz=True)
        tables = [("darkmode.csv", scan_columns), ("darkmode_fit.csv", fit_columns)]
        return tables, ("heat_map", (scan.omega_grid, scan.phi_grid, scan.intensity), labels)

    return _sampled("darkmode", config, setup, out_dir, svg, grid_points, DARKMODE_DEFAULT_POINTS, compute)


def run_match(config: ExperimentConfig, out_dir: Path, svg: bool, grid_points: int | None):
    """Matched coupled-mode parameters with formula provenance -> params.json."""
    setup = _cascade(config, "match")
    match = setup.match
    a_in, d_in, phase, eta_l, eta_r = _resolve_drive(config.drive, match.kappa)
    payload = {
        "version": __version__,
        "config": config.resolved(),
        "kappa": {
            "value": match.kappa,
            "formula": "1/(2*l_c*zeta*sqrt(zeta^2+1))",
        },
        "omega_c": {
            "value": match.omega_c,
            "order": match.order_n,
            "formula": "(n*pi + atan2(1, zeta))/l_c",
        },
        "omega_f": {
            "value": match.omega_f,
            "order": match.fiber_order,
            "formula": "(n_f*pi + atan2(1, zeta))/l_f",
            "detuning_from_omega_c": match.fiber_detuning,
            "order_within_half_fsr": match.fiber_order_in_range,
        },
        "g": {
            "value": match.g,
            "formula": "1/(2*sqrt(l_c*l_f)*sqrt(1+zeta^2))",
            # the coupled model's g is taken at the stack's fiber gap, which
            # fiber_alignment "resonant" snaps to resonant_fiber_length
            "model_value": setup.system.g,
            "model_fiber_length": setup.stack.elements[3].length,
        },
        "eta_l": {"value": eta_l, "formula": "sqrt(kappa)*a_in", "a_in": a_in},
        "eta_r": {"value": eta_r, "formula": "sqrt(kappa)*d_in", "d_in": d_in, "phi": phase},
        "resonant_fiber_length": {
            "value": match.resonant_fiber_length,
            "formula": "(n_f*pi + atan2(1, zeta))/omega_c",
            "nominal_fiber_length": match.fiber_length,
        },
    }
    return [write_json(out_dir / "params.json", payload)]
