"""Deterministic CSV and JSON emission.

Floats are written as orjson prints them: the shortest decimal that
round-trips to the same float64 (Ryu's digits, the digits of Python's repr),
in fixed notation for ``1e-5 <= |x| < 1e16`` and zero, and otherwise as
``<digits>e<exponent>`` with no ``+`` and no leading exponent zero
(``0.00001234``, ``9.06e-7``, ``1e16``, where repr writes ``1.234e-05``,
``9.06e-07``, ``1e+16``).  nan and inf, which orjson prints as ``null``, are
written ``nan``, ``inf`` and ``-inf``.  Identical inputs produce
byte-identical files; the convention is declared in every file's comment
header.  A ``str`` cell that holds ``,``, ``"``, a newline or a carriage
return is quoted the way the ``csv`` module's minimal quoting does it.

``write_csv`` writes blocks of ``_BLOCK_ROWS`` rows, one after another, and
holds only the block it is formatting.  A block whose columns are all real
numeric arrays (int and bool too, written as floats) and whose cells are all
finite is written from one ``orjson.dumps`` of its float64 cells, flattened
row by row: the text ``[a,b,c,d]`` is copied once into a ``bytearray``, and
every ncol-th comma and the closing bracket are set to a newline in place,
which gives ``a,b\\nc,d\\n`` after the opening bracket.  Every other block (one
that holds nan or inf, or a list, tuple or object-array column) is written
cell by cell through ``format_value``.
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from typing import Sequence

import numpy as np

# With the flat dump, 8192 rows against 4096 read op_s.p50 0.403 against 0.411 s on the
# 400,001-row sweep (median of 5 seeds, within the 0.046 s quartile spread) and peak RSS
# 4 MB higher on one seed of the 5 (one benchmark run per seed, 2-vCPU x86-64 VM, glibc).
_BLOCK_ROWS = 4096
_QUOTED_CHARS = (",", '"', "\n", "\r")


def _dumps(x) -> bytes:
    # Imported on first use, not with the module: this keeps orjson out of the CLI's start-up.
    import orjson

    return orjson.dumps(x, option=orjson.OPT_SERIALIZE_NUMPY)


def _format_float(v: float) -> str:
    # orjson prints nan and inf as null
    return _dumps(v).decode("ascii") if math.isfinite(v) else repr(v)


def format_value(v) -> str:
    """One CSV cell: None empty, text quoted if it must be, bool and int as such, any other number as a float."""
    if v is None:
        return ""
    if isinstance(v, str):  # only text can hold a character that needs quoting
        return '"' + v.replace('"', '""') + '"' if any(c in v for c in _QUOTED_CHARS) else v
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, int):
        return str(v)
    return _format_float(float(v))


def _block_bytes(cells, start: int) -> bytes | memoryview:
    blocks = [c[start : start + _BLOCK_ROWS] for c in cells]
    if all(isinstance(b, np.ndarray) and b.dtype.kind in "biuf" for b in blocks):
        x = np.column_stack([b.astype(float, copy=False) for b in blocks])
        if np.isfinite(x).all():
            # "[a,b,c,d]" -> "a,b\nc,d\n": every ncol-th comma and the closing bracket end a row;
            # a finite number's text holds no comma, so every comma separates two cells
            text = bytearray(_dumps(x.ravel()))
            buf = np.frombuffer(text, np.uint8)
            ncol = x.shape[1]
            buf[np.flatnonzero(buf == ord(","))[ncol - 1 :: ncol]] = ord("\n")
            buf[-1] = ord("\n")
            return memoryview(text)[1:]
    return "".join(",".join(map(format_value, row)) + "\n" for row in zip(*blocks)).encode("utf-8")


def config_json(resolved_config: dict) -> str:
    """A resolved configuration as one line of JSON, the form CSV headers and SVG comments carry."""
    return json.dumps(resolved_config, sort_keys=True, separators=(",", ":"))


def header_lines(version: str, resolved_config: dict) -> list[str]:
    return [
        f"# cascavity {version}",
        "# float format: shortest round-trip decimal (orjson layout: 0.00001234, 9.06e-7, 1e16)",
        "# config: " + config_json(resolved_config),
    ]


def write_csv(
    path,
    columns: Sequence[tuple[str, Sequence]],
    version: str,
    resolved_config: dict,
) -> Path:
    """Write named columns as CSV with '#' comment headers; returns the path.

    Cells are written as ``format_value`` gives them: the elements of numeric
    arrays (bool and int arrays too) as floats, ``str`` cells unchanged unless
    they need quoting.
    """
    path = Path(path)
    names = [format_value(name) for name, _ in columns]
    cells = [values if isinstance(values, np.ndarray) else list(values) for _, values in columns]
    n = len(cells[0]) if cells else 0
    if any(len(c) != n for c in cells):
        raise ValueError("all CSV columns must have equal length")
    with path.open("wb") as f:
        f.write(("\n".join([*header_lines(version, resolved_config), ",".join(names)]) + "\n").encode("utf-8"))
        for start in range(0, n, _BLOCK_ROWS):
            f.write(_block_bytes(cells, start))
    return path


def write_json(path, payload: dict) -> Path:
    path = Path(path)
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return path
