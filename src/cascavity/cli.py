"""Command-line interface: spectrum, delta, profile, darkmode, match.

Exit codes: 0 success, 2 configuration error, 3 numerical failure.
"""

from __future__ import annotations

import sys
from pathlib import Path

import click
import numpy as np

from . import __version__
from .config import load_config
from .errors import CascavityError, ConfigError
from . import runs

EXIT_CONFIG = 2
EXIT_NUMERICAL = 3


def _common_options(f):
    f = click.option("--config", "config_path", required=True, type=click.Path(), help="Path to the JSON run configuration.")(f)
    f = click.option("--out", "out_dir", type=click.Path(file_okay=False), default=None, help="Output directory (overrides output.directory).")(f)
    f = click.option("--svg", is_flag=True, default=False, help="Also write SVG plots.")(f)
    f = click.option("--grid-points", type=int, default=None, help="Override the sweep grid size (delta and match use no grid).")(f)
    f = click.option("--quiet", is_flag=True, default=False, help="Suppress the file summary.")(f)
    return f


def _execute(command, config_path, out_dir, svg, grid_points, quiet):
    try:
        config = load_config(config_path)
        if grid_points is not None and grid_points < 2:
            raise ConfigError(f"--grid-points must be at least 2, got {grid_points}")
        target = Path(out_dir) if out_dir is not None else Path(config.output.directory)
        try:
            target.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise ConfigError(f"cannot create the output directory {str(target)!r}: {exc.strerror or exc}") from exc
    except ConfigError as exc:
        click.echo(f"configuration error: {exc}", err=True)
        sys.exit(EXIT_CONFIG)

    want_svg = svg or config.output.svg

    try:
        paths = getattr(runs, f"run_{command}")(config, target, want_svg, grid_points)
    except ConfigError as exc:
        click.echo(f"configuration error: {exc}", err=True)
        sys.exit(EXIT_CONFIG)
    except (CascavityError, ArithmeticError, np.linalg.LinAlgError) as exc:
        click.echo(f"numerical failure: {exc}", err=True)
        sys.exit(EXIT_NUMERICAL)

    if not quiet:
        for p in paths:
            click.echo(f"wrote {p}")


@click.group()
@click.version_option(__version__, prog_name="cascavity")
def main():
    """Cascaded-cavity simulator: scattering and coupled-mode models side by side."""


# command name -> help text; each command runs runs.run_<name>, looked up when the command runs
COMMANDS = {
    "spectrum": "Transmission spectrum of the selected model(s).",
    "delta": "Side-peak distance difference between the models over a zeta grid.",
    "profile": "Intracavity intensities of both models versus drive frequency.",
    "darkmode": "Fiber intensity under two-sided drive versus frequency and pump phase.",
    "match": "Matched coupled-mode parameters for a geometry, with provenance.",
}


def _add_command(name: str, help_text: str) -> None:
    @main.command(name, help=help_text)
    @_common_options
    def command(config_path, out_dir, svg, grid_points, quiet):
        _execute(name, config_path, out_dir, svg, grid_points, quiet)


for _name, _help in COMMANDS.items():
    _add_command(_name, _help)


if __name__ == "__main__":
    main()
