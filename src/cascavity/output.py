"""Deterministic CSV and JSON emission.

Floats are written with Python's repr (the shortest decimal that round-trips
to the same float64), so identical inputs produce byte-identical files; the
convention is declared in every file's comment header.  A ``str`` cell that
holds ``,``, ``"``, a newline or a carriage return is quoted the way the
``csv`` module's minimal quoting does it.

``write_csv`` writes blocks of ``_BLOCK_ROWS`` rows, one after another, and
holds only the block it is formatting.  A block whose columns are all real
numeric arrays (int and bool too, written as floats) and whose cells are all
finite is written from one ``orjson.dumps`` of its float64 matrix.  orjson
writes repr's shortest round-trip digits (Ryu); where ``_orjson_prints_repr``
is False it lays them out differently (``0.00001``, ``9.06e-7``, ``1e16`` for
``1e-05``, ``9.06e-07``, ``1e+16``), and ``_repr_dumps`` edits those cells'
text into repr's layout without calling repr.  Every other block is
formatted column by column and joined per row: a numeric array column the
same way, with repr on its nan and inf, any other column (lists, tuples,
object arrays) by ``format_value`` per cell.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Sequence

import numpy as np

# At 8192 rows the 400,001-row sweep's peak RSS read 1-4 MB higher than at 4096, for
# about 4% less time (one benchmark run on each of 5 seeds, 2-vCPU x86-64 VM, glibc).
_BLOCK_ROWS = 4096
_QUOTED_CHARS = (",", '"', "\n", "\r")


def _quote(s: str) -> str:
    if any(c in s for c in _QUOTED_CHARS):
        return '"' + s.replace('"', '""') + '"'
    return s


def _format_unquoted(v) -> str:
    if v is None:
        return ""
    if isinstance(v, str):
        return v
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, int):
        return str(v)
    return repr(float(v))


def format_value(v) -> str:
    return _quote(_format_unquoted(v))


def _dumps_numpy(x: np.ndarray) -> bytes:
    # Imported on first use, not with the module: this keeps orjson out of the
    # CLI's start-up and out of commands whose CSVs hold no numeric array (delta).
    import orjson

    return orjson.dumps(x, option=orjson.OPT_SERIALIZE_NUMPY)


def _orjson_prints_repr(x: np.ndarray) -> np.ndarray:
    """Where orjson prints a float64 with the same characters as repr (False at nan and inf)."""
    a = np.abs(x)
    return ((a >= 1e-4) & (a < 1e16)) | (a < 1e-9)


def _e05_cells(x: np.ndarray) -> list[bytes]:
    """repr of floats with 1e-5 <= |x| < 1e-4: orjson's "0.0000DREST" laid out as "D.RESTe-05"."""
    text = _dumps_numpy(x)[1:-1].replace(b",", b"e-05,") + b"e-05"
    b = np.frombuffer(text, np.uint8).copy()
    dot = np.flatnonzero(b == ord("."))
    b[dot - 1] = b[dot + 5]  # "0.0000DREST" -> "D.0000DREST"
    for i in range(1, 6):  # then the "0000D" goes
        b[dot + i] = 0
    b[dot[b[dot + 6] == ord("e")]] = 0  # and so does the dot of a one-digit mantissa
    return b.tobytes().translate(None, b"\0").split(b",")


def _relaid_cells(x: np.ndarray) -> list[bytes]:
    """repr of each float64 in x, all finite and none printed by orjson as repr prints it."""
    a = np.abs(x)
    edits = [
        ((a >= 1e-5) & (a < 1e-4), _e05_cells),
        (a < 1e-5, lambda v: _dumps_numpy(v)[1:-1].replace(b"e-", b"e-0").split(b",")),  # "e-6": "e-06"
        (a >= 1e16, lambda v: _dumps_numpy(v)[1:-1].replace(b"e", b"e+").split(b",")),  # "e16": "e+16"
    ]
    edits = [(where, edit) for where, edit in edits if where.any()]
    if len(edits) == 1:
        return edits[0][1](x)
    cells = np.empty(x.size, dtype=object)
    for where, edit in edits:
        cells[where] = edit(x[where])
    return cells.tolist()


def _repr_dumps(x: np.ndarray) -> bytes:
    """orjson's text of a C-contiguous array of finite float64, each number laid out as repr lays it out."""
    other = ~_orjson_prints_repr(x)
    if not other.any():
        return _dumps_numpy(x)
    # orjson prints nan as "null", which no number holds: split there, put the relaid cells between
    pieces = _dumps_numpy(np.where(other, np.nan, x)).split(b"null")
    joined = [b""] * (2 * len(pieces) - 1)
    joined[::2] = pieces
    joined[1::2] = _relaid_cells(x[other])
    return b"".join(joined)


def format_floats(values) -> list[str]:
    """``format_value`` of each element of a real numeric array, i.e. its float64 repr."""
    x = np.ascontiguousarray(values, dtype=float)
    finite = np.isfinite(x)
    cells = _repr_dumps(np.where(finite, x, 0.0))[1:-1].decode("ascii").split(",") if x.size else []
    for i in np.flatnonzero(~finite).tolist():
        cells[i] = repr(float(x[i]))
    return cells


def _is_numeric_array(column) -> bool:
    return isinstance(column, np.ndarray) and column.dtype.kind in "biuf"


def _format_block(block) -> list[str]:
    if _is_numeric_array(block):
        return format_floats(block)
    cells = list(map(_format_unquoted, block))
    # only str cells can hold a quoted character: scan the block once, not each cell
    joined = "".join(cells)
    return list(map(_quote, cells)) if any(c in joined for c in _QUOTED_CHARS) else cells


def _block_bytes(cells, start: int) -> bytes:
    blocks = [c[start : start + _BLOCK_ROWS] for c in cells]
    if all(map(_is_numeric_array, blocks)):
        x = np.column_stack([b.astype(float, copy=False) for b in blocks])
        if np.isfinite(x).all():
            # "[[a,b],[c,d]]" -> "a,b\nc,d\n"
            return _repr_dumps(x)[2:-2].replace(b"],[", b"\n") + b"\n"
    rows = zip(*map(_format_block, blocks))
    return ("\n".join(map(",".join, rows)) + "\n").encode("utf-8")


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
