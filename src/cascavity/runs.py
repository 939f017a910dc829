"""Experiment runners: turn a validated configuration into CSV/JSON/SVG files.

The sampled runs (``spectrum``, ``profile``, ``darkmode``) go through one
pipeline, ``_sampled``, whose stages run in this order:

1. grid: ``_omega_grid`` samples ``sweep`` or the default window around the
   matched resonance, and refuses a grid too fine for float64 to space evenly;
2. compute: ``_blocks`` splits the grid into near-equal blocks of at most
   ``_BLOCK_POINTS`` points, runs the runner's ``compute(block)`` on each in
   grid order, and copies each block's tables into full-length columns, so no
   engine allocates a full-grid temporary.  Every engine is elementwise in
   omega, so the tables do not depend on the block size; near-equal blocks
   keep every block at half the size or more, since numpy may round a product
   over a very short array differently.  A grid of at most ``_BLOCK_POINTS``
   points is one ``compute`` call with no copy.  The blocks run serially: the
   benchmark tracer keeps one span stack, which is not thread-safe, and two
   threads over the same blocks measured slower end to end than one;
3. write: each table gains ``omega_over_omega_c``, its first column over the
   matched ``omega_c``, as its last column, and ``_write`` writes it as CSV;
4. plot: with ``--svg``, the runner's ``plot`` names its series by table
   column, and ``_write`` draws it from the full tables.

``delta`` has no grid and goes straight to ``_write``; ``match`` writes one
JSON file.  Every cascaded run builds its models with ``_cascade_at``,
``delta`` at each zeta of its grid.  Each stage looks up the layer entry
points it calls (``write_csv``, ``write_json``, ``dark_mode_scan``,
``intensity_comparison``, ``peak_separation_delta`` here; ``line_plot`` and
``heat_map`` in ``svgplot``) as module attributes when it runs, and never
keeps them in a table built at import: the benchmark tracer (``perfbench/spans.py``) times each layer by
patching those attributes, and a runner captured early would record no span.
The CLI looks up ``run_<command>`` in this module the same way, so a test can
monkeypatch a runner.  ``svgplot`` is imported only when a plot is drawn.
"""

from __future__ import annotations

import math
from dataclasses import replace
from functools import partial
from pathlib import Path

import numpy as np

from . import __version__
from .config import ExperimentConfig, SweepConfig
from .errors import ConfigError
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
# omega points per compute call; see CHANGES.md for the measured block sizes
_BLOCK_POINTS = 16384


def _svg_meta(resolved: dict) -> str:
    return f"cascavity {__version__} config " + config_json(resolved)


def _cascade_at(config: ExperimentConfig, command: str):
    """``zeta -> CascadeSetup``: the configured four-mirror stack and its matched mode chain at that zeta."""
    geo = config.geometry
    if geo.single_cavity:
        raise ConfigError(f"{command} runs require the cascaded geometry")
    return partial(
        build_cascade,
        l_c=geo.cavity_length,
        l_f=geo.fiber_length,
        n_c=geo.cavity_order,
        n_f=geo.fiber_order,
        fiber_alignment=config.fiber_alignment,
    )


def _omega_grid(command: str, config: ExperimentConfig, setup, grid_points: int | None, default_points: int):
    """The grid to sample, and the resolved configuration with it as ``sweep`` (which linspace reproduces exactly).

    The steps must lie within 1% of the step of each other, else the grid is a
    configuration error naming its source and the range of its steps.  They
    average the step, so a repeated point (a step of 0, where float64 cannot
    resolve the step at the grid's top) puts them a step apart, or all at 0.
    """
    flag = " and --grid-points" if grid_points else ""
    if config.sweep is not None:
        grid = np.linspace(config.sweep.min, config.sweep.max, grid_points or config.sweep.points)
        source = "sweep.min/sweep.max" + (flag or "/sweep.points")
    else:
        grid = default_omega_window(setup, grid_points or default_points)
        source = f"the default window at geometry.zeta = {config.geometry.zeta!r}{flag}"
    sampled = SweepConfig(min=float(grid[0]), max=float(grid[-1]), points=grid.size)
    where = f"{command}: the grid from {source} ({sampled.points} points over [{sampled.min!r}, {sampled.max!r}])"
    steps = np.diff(grid)
    step = (sampled.max - sampled.min) / (sampled.points - 1)
    if not steps.max() - steps.min() < 0.01 * step:  # the heat map draws every omega column the same width
        raise ConfigError(
            f"{where} does not increase evenly: its steps run from {steps.min():.3g} to {steps.max():.3g},"
            f" not within 1% of its step {step:.3g} of each other; the float64 spacing at its top is"
            f" {np.spacing(sampled.max):.3g}; use fewer points or a wider range"
        )
    return grid, replace(config, sweep=sampled).resolved()


def _write(out_dir: Path, command: str, resolved: dict, tables, plot, svg: bool):
    """Write each (file name, columns) table as CSV, and with ``svg`` the plot as ``<command>.svg``.

    ``plot`` is (``svgplot`` function name, positional arguments, labels).
    """
    paths = [write_csv(out_dir / name, columns, __version__, resolved) for name, columns in tables]
    tables.clear()  # the written columns that the plot does not draw are freed before it runs
    if svg:
        from . import svgplot

        kind, args, labels = plot
        paths.append(getattr(svgplot, kind)(out_dir / f"{command}.svg", *args, meta=_svg_meta(resolved), **labels))
    return paths


def _blocks(grid: np.ndarray, compute):
    """``compute(block)``'s tables over near-equal blocks of at most ``_BLOCK_POINTS`` points, joined in grid order.

    A table may give each omega point several rows (``darkmode.csv`` gives one
    per phase).  Each block's columns are copied into full-length columns and
    freed before the next block is computed.
    """
    blocks = np.array_split(grid, -(-grid.size // _BLOCK_POINTS))
    joined = []
    start = 0
    for block in blocks:
        tables = compute(block)
        if len(blocks) == 1:
            return tables
        if not joined:
            joined = [
                (name, [(key, np.empty(grid.size * (col.size // block.size), col.dtype)) for key, col in columns])
                for name, columns in tables
            ]
        for (_, whole), (_, columns) in zip(joined, tables):
            for (_, out), (_, col) in zip(whole, columns):
                rows = col.size // block.size
                out[start * rows : (start + block.size) * rows] = col
        start += block.size
        del tables
    return joined


def _sampled(
    command: str, config: ExperimentConfig, setup, out_dir: Path, svg: bool, grid_points, default_points, compute, plot
):
    """Run the sampled pipeline: grid -> ``compute`` by blocks -> write -> plot; returns the paths written.

    ``compute(block)`` returns the block's tables, each (file name, columns)
    with omega as its first column.  ``plot`` maps ``{file name: {column:
    values}}`` of the full tables to the ``_write`` plot.
    """
    grid, resolved = _omega_grid(command, config, setup, grid_points, default_points)
    tables = _blocks(grid, compute)
    omega_c = setup.system.omegas[0]
    tables = [(name, [*columns, ("omega_over_omega_c", columns[0][1] / omega_c)]) for name, columns in tables]
    figure = plot({name: dict(columns) for name, columns in tables}) if svg else None
    return _write(out_dir, command, resolved, tables, figure, svg)


def _line_plot(table: str, series, **labels):
    """A ``plot`` of ``table``'s (label, column) ``series`` against its omega column."""

    def plot(tables):
        columns = tables[table]
        return "line_plot", (columns["omega"], [(label, columns[key]) for label, key in series]), labels

    return plot


def run_spectrum(config: ExperimentConfig, out_dir: Path, svg: bool, grid_points: int | None):
    """Transmission spectra of the selected model(s), per unit incident power |a_in|^2 -> spectrum.csv [spectrum.svg]."""
    geo = config.geometry
    if geo.single_cavity:
        setup = build_single_cavity(geo.zeta, geo.cavity_length, geo.cavity_order)
    else:
        setup = _cascade_at(config, "spectrum")(geo.zeta)
    drive = config.drive
    if drive.a_in == 0:
        raise ConfigError("spectrum values are per unit incident power: drive.a_in must be > 0")
    if geo.single_cavity and drive.d_in != 0.0:
        raise ConfigError("single_cavity runs support left-side drive only: drive.d_in must be 0")
    d_drive = drive.d_in * np.exp(-1j * drive.d_phase)

    def compute(grid):
        columns = [("omega", grid)]
        if config.model in ("scattering", "both"):
            columns.append(("scattering_value", sweep_scattering(setup.stack, grid, drive.a_in, d_drive).values))
        if config.model in ("coupled", "both"):
            columns.append(("coupled_value", sweep_coupled(setup.system, grid, drive.a_in, d_drive).values))
        return [("spectrum.csv", columns)]

    series = [(model, f"{model}_value") for model in ("scattering", "coupled") if config.model in (model, "both")]
    labels = dict(xlabel="omega (c/L)", ylabel="transmitted photocurrent", title="transmission spectrum")
    plot = _line_plot("spectrum.csv", series, **labels)
    return _sampled("spectrum", config, setup, out_dir, svg, grid_points, DEFAULT_GRID_POINTS, compute, plot)


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
    entries = peak_separation_delta(config.zeta_grid, _cascade_at(config, "delta"))
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
    columns.append(("fiber_order", [e.fiber_order for e in entries]))
    series = [("|delta_mean|", [abs(e.delta_mean) for e in entries]), ("kappa", [e.kappa for e in entries])]
    labels = dict(
        xlabel="zeta", ylabel="peak-distance difference (c/L)", title="model disagreement vs mirror polarizability"
    )
    plot = ("line_plot", ([e.zeta for e in entries], series), labels)
    return _write(out_dir, "delta", config.resolved(), [("delta.csv", columns)], plot, svg)


def run_profile(config: ExperimentConfig, out_dir: Path, svg: bool, grid_points: int | None):
    """Intracavity intensity curves for both models -> profile.csv [profile.svg]."""
    setup = _cascade_at(config, "profile")(config.geometry.zeta)

    def compute(grid):
        curves = intensity_comparison(setup, grid)
        names = ("scat_left", "scat_right", "coupled_left", "coupled_right")
        return [("profile.csv", [("omega", grid), *zip(names, curves)])]

    series = [
        ("scattering left", "scat_left"),
        ("scattering right", "scat_right"),
        ("coupled left", "coupled_left"),
        ("coupled right", "coupled_right"),
    ]
    labels = dict(xlabel="omega (c/L)", ylabel="intracavity intensity", title="intracavity intensities, left-side drive")
    plot = _line_plot("profile.csv", series, **labels)
    return _sampled("profile", config, setup, out_dir, svg, grid_points, DEFAULT_GRID_POINTS, compute, plot)


def run_darkmode(config: ExperimentConfig, out_dir: Path, svg: bool, grid_points: int | None):
    """Fiber intensity vs (omega, phi) -> darkmode.csv, darkmode_fit.csv [darkmode.svg]."""
    setup = _cascade_at(config, "darkmode")(config.geometry.zeta)
    phase = config.phase_grid
    phis = np.linspace(phase.min, phase.max, phase.points)

    def compute(omega):
        scan = dark_mode_scan(setup.stack, omega, phis)
        closed_form = scan.c0[:, None] + scan.c1[:, None] * np.cos(phis - scan.phi0[:, None])
        scan_columns = [
            ("omega", np.repeat(omega, phis.size)),
            ("phi", np.tile(phis, omega.size)),
            ("fiber_intensity", scan.intensity.reshape(-1)),
        ]
        fit_columns = [
            ("omega", omega),
            ("c0", scan.c0),
            ("c1", scan.c1),
            ("phi0", scan.phi0),
            ("residual", np.max(np.abs(scan.intensity - closed_form), axis=1)),
            ("phi_min", np.remainder(scan.phi0, 2 * math.pi) - math.pi),
        ]
        return [("darkmode.csv", scan_columns), ("darkmode_fit.csv", fit_columns)]

    def plot(tables):
        omega = tables["darkmode_fit.csv"]["omega"]
        intensity = tables["darkmode.csv"]["fiber_intensity"].reshape(omega.size, phis.size)
        labels = dict(xlabel="omega (c/L)", ylabel="phi (rad)", title="fiber intensity (log scale)")
        return "heat_map", (omega, phis, intensity), labels

    return _sampled("darkmode", config, setup, out_dir, svg, grid_points, DARKMODE_DEFAULT_POINTS, compute, plot)


def run_match(config: ExperimentConfig, out_dir: Path, svg: bool, grid_points: int | None):
    """Matched coupled-mode parameters with formula provenance -> params.json."""
    setup = _cascade_at(config, "match")(config.geometry.zeta)
    match, drive = setup.match, config.drive
    eta_l, eta_r = (math.sqrt(match.kappa) * field for field in (drive.a_in, drive.d_in))
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
            "model_value": setup.system.couplings[0],
            "model_fiber_length": setup.stack.elements[3].length,
        },
        "eta_l": {"value": eta_l, "formula": "sqrt(kappa)*a_in", "a_in": drive.a_in},
        "eta_r": {"value": eta_r, "formula": "sqrt(kappa)*d_in", "d_in": drive.d_in, "phi": drive.d_phase},
        "resonant_fiber_length": {
            "value": match.resonant_fiber_length,
            "formula": "(n_f*pi + atan2(1, zeta))/omega_c",
            "nominal_fiber_length": match.fiber_length,
        },
    }
    return [write_json(out_dir / "params.json", payload)]
