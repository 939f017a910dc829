"""Deterministic CSV and JSON emission.

Floats are written with Python's repr (the shortest decimal that round-trips
to the same float64), so identical inputs produce byte-identical files; the
convention is declared in every file's comment header.

``write_csv`` formats column by column and writes the file in blocks of
``_BLOCK_ROWS`` rows: a numeric array column is formatted by one
``float.__repr__`` map per block instead of ``format_value`` per cell, and
only one block of formatted rows is held in memory at a time.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

_BLOCK_ROWS = 8192


def format_value(v) -> str:
    if v is None:
        return ""
    if isinstance(v, str):
        return v
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, int):
        return str(v)
    return repr(float(v))


def format_floats(values) -> list[str]:
    """``format_value`` of each element of a real numeric array, i.e. its float64 repr."""
    return list(map(float.__repr__, np.asarray(values).astype(float, copy=False).tolist()))


def _format_block(block) -> Iterable[str]:
    if isinstance(block, np.ndarray) and block.dtype.kind in "biuf":
        return format_floats(block)
    return map(format_value, block)


def header_lines(version: str, resolved_config: dict) -> list[str]:
    return [
        f"# cascavity {version}",
        "# float format: shortest round-trip decimal (Python repr)",
        "# config: " + json.dumps(resolved_config, sort_keys=True, separators=(",", ":")),
    ]


def write_csv(
    path,
    columns: Sequence[tuple[str, Sequence]],
    version: str,
    resolved_config: dict,
) -> Path:
    """Write named columns as CSV with '#' comment headers; returns the path.

    Cells are written as ``format_value`` gives them: the elements of numeric
    arrays (bool and int arrays too) as floats, ``str`` cells unchanged.
    """
    path = Path(path)
    names = [name for name, _ in columns]
    cells = [values if isinstance(values, np.ndarray) else list(values) for _, values in columns]
    n = len(cells[0]) if cells else 0
    if any(len(c) != n for c in cells):
        raise ValueError("all CSV columns must have equal length")
    with path.open("w", encoding="utf-8") as f:
        f.write("\n".join([*header_lines(version, resolved_config), ",".join(names)]) + "\n")
        for start in range(0, n, _BLOCK_ROWS):
            rows = zip(*(_format_block(c[start : start + _BLOCK_ROWS]) for c in cells))
            f.write("\n".join(map(",".join, rows)) + "\n")
    return path


def write_json(path, payload: dict) -> Path:
    path = Path(path)
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return path
