"""Experiment runners: turn a validated configuration into CSV/JSON/SVG files."""

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


def _cascade(config: ExperimentConfig, command: str):
    """The configured four-mirror stack and its matched mode system."""
    geo = config.geometry
    if geo.single_cavity:
        raise ConfigError(f"{command} runs require the cascaded geometry")
    return build_cascade(
        geo.zeta,
        geo.cavity_length,
        geo.fiber_length,
        geo.cavity_order,
        geo.fiber_order,
        fiber_alignment=config.fiber_alignment,
    )


def _omega_grid(config: ExperimentConfig, setup, grid_points: int | None, default_points: int):
    """The grid to sample, and the resolved configuration with it as ``sweep`` (which linspace reproduces exactly)."""
    if config.sweep is not None:
        grid = np.linspace(config.sweep.min, config.sweep.max, grid_points or config.sweep.points)
    else:
        grid = default_omega_window(setup, grid_points or default_points)
    sampled = SweepConfig(min=float(grid[0]), max=float(grid[-1]), points=grid.size)
    return grid, replace(config, sweep=sampled).resolved()


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
    grid, resolved = _omega_grid(config, setup, grid_points, DEFAULT_GRID_POINTS)

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
    columns.append(("omega_over_omega_c", grid / setup.system.omega_c))

    paths = [write_csv(out_dir / "spectrum.csv", columns, __version__, resolved)]
    if svg:
        from .svgplot import line_plot

        paths.append(
            line_plot(
                out_dir / "spectrum.svg",
                grid,
                series,
                xlabel="omega (c/L)",
                ylabel="transmitted photocurrent",
                title="transmission spectrum",
                logy=True,
                meta=_svg_meta(resolved),
            )
        )
    return paths


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
    geo = config.geometry
    if geo.single_cavity:
        raise ConfigError("delta runs require the cascaded geometry")
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
    paths = [write_csv(out_dir / "delta.csv", columns, __version__, config.resolved())]
    if svg:
        from .svgplot import line_plot

        abs_mean = [abs(e.delta_mean) if e.error is None else math.nan for e in entries]
        paths.append(
            line_plot(
                out_dir / "delta.svg",
                [e.zeta for e in entries],
                [("|delta_mean|", abs_mean), ("kappa", [e.kappa for e in entries])],
                xlabel="zeta",
                ylabel="peak-distance difference (c/L)",
                title="model disagreement vs mirror polarizability",
                logy=True,
                meta=_svg_meta(config.resolved()),
            )
        )
    return paths


def run_profile(config: ExperimentConfig, out_dir: Path, svg: bool, grid_points: int | None):
    """Intracavity intensity curves for both models -> profile.csv [profile.svg]."""
    setup = _cascade(config, "profile")
    grid, resolved = _omega_grid(config, setup, grid_points, DEFAULT_GRID_POINTS)
    curves = intensity_comparison(setup, grid)
    omega_c = setup.system.omega_c
    columns = [
        ("omega", curves.omega),
        ("scat_left", curves.scattering_left),
        ("scat_right", curves.scattering_right),
        ("coupled_left", curves.coupled_left),
        ("coupled_right", curves.coupled_right),
        ("omega_over_omega_c", curves.omega / omega_c),
    ]
    paths = [write_csv(out_dir / "profile.csv", columns, __version__, resolved)]
    if svg:
        from .svgplot import line_plot

        paths.append(
            line_plot(
                out_dir / "profile.svg",
                curves.omega,
                [
                    ("scattering left", curves.scattering_left),
                    ("scattering right", curves.scattering_right),
                    ("coupled left", curves.coupled_left),
                    ("coupled right", curves.coupled_right),
                ],
                xlabel="omega (c/L)",
                ylabel="intracavity intensity",
                title="intracavity intensities, left-side drive",
                logy=True,
                meta=_svg_meta(resolved),
            )
        )
    return paths


def run_darkmode(config: ExperimentConfig, out_dir: Path, svg: bool, grid_points: int | None):
    """Fiber intensity vs (omega, phi) -> darkmode.csv, darkmode_fit.csv [darkmode.svg]."""
    setup = _cascade(config, "darkmode")
    phase = config.phase_grid
    omega, resolved = _omega_grid(config, setup, grid_points, DARKMODE_DEFAULT_POINTS)
    phis = np.linspace(phase.min, phase.max, phase.points)
    scan = dark_mode_scan(setup.stack, omega, phis)

    n_omega, n_phi = scan.intensity.shape
    omega_c = setup.match.omega_c
    paths = [
        write_csv(
            out_dir / "darkmode.csv",
            [
                ("omega", np.repeat(scan.omega_grid, n_phi)),
                ("phi", np.tile(scan.phi_grid, n_omega)),
                ("fiber_intensity", scan.intensity.reshape(-1)),
                ("omega_over_omega_c", np.repeat(scan.omega_grid / omega_c, n_phi)),
            ],
            __version__,
            resolved,
        )
    ]
    closed_form = scan.c0[:, None] + scan.c1[:, None] * np.cos(scan.phi_grid - scan.phi0[:, None])
    paths.append(
        write_csv(
            out_dir / "darkmode_fit.csv",
            [
                ("omega", scan.omega_grid),
                ("c0", scan.c0),
                ("c1", scan.c1),
                ("phi0", scan.phi0),
                ("residual", np.max(np.abs(scan.intensity - closed_form), axis=1)),
                ("phi_min", np.remainder(scan.phi0, 2 * math.pi) - math.pi),
                ("omega_over_omega_c", scan.omega_grid / omega_c),
            ],
            __version__,
            resolved,
        )
    )
    if svg:
        from .svgplot import heat_map

        paths.append(
            heat_map(
                out_dir / "darkmode.svg",
                scan.omega_grid,
                scan.phi_grid,
                scan.intensity,
                xlabel="omega (c/L)",
                ylabel="phi (rad)",
                title="fiber intensity (log scale)",
                logz=True,
                meta=_svg_meta(resolved),
            )
        )
    return paths


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
