"""Reference for ``cascavity.output.write_csv``: the per-cell writer.

Every cell goes through ``format_value`` and the whole file is built as one
string before it is written.  A ``str`` cell holding a comma, a double quote
or a line break is wrapped in double quotes with inner quotes doubled.  The
package's writer must produce the same bytes on every input.

Floats are laid out from Python's repr, without orjson: repr's shortest
round-trip digits, with an exponent of -5 written out in fixed notation
(``1.234e-05`` -> ``0.00001234``) and any other exponent without ``+`` and
without a leading zero (``9.06e-07`` -> ``9.06e-7``, ``1e+16`` -> ``1e16``).
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Sequence


def format_value(v) -> str:
    if v is None:
        return ""
    if isinstance(v, str):
        if "," in v or '"' in v or "\n" in v or "\r" in v:
            return '"' + v.replace('"', '""') + '"'
        return v
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, int):
        return str(v)
    mantissa, e, exponent = repr(float(v)).partition("e")
    if not e:  # fixed notation, nan or inf
        return mantissa
    if exponent == "-05":
        sign, digits = ("-", mantissa[1:]) if mantissa.startswith("-") else ("", mantissa)
        return sign + "0.0000" + digits.replace(".", "")
    return f"{mantissa}e{int(exponent)}"


def header_lines(version: str, resolved_config: dict) -> list[str]:
    return [
        f"# cascavity {version}",
        "# float format: shortest round-trip decimal (orjson layout: 0.00001234, 9.06e-7, 1e16)",
        "# config: " + json.dumps(resolved_config, sort_keys=True, separators=(",", ":")),
    ]


def write_csv(
    path,
    columns: Sequence[tuple[str, Sequence]],
    version: str,
    resolved_config: dict,
    extra_header: Sequence[str] = (),
) -> Path:
    """Write named columns as CSV with '#' comment headers; returns the path."""
    path = Path(path)
    names = [name for name, _ in columns]
    arrays = [list(values) for _, values in columns]
    n = len(arrays[0]) if arrays else 0
    if any(len(a) != n for a in arrays):
        raise ValueError("all CSV columns must have equal length")
    lines = header_lines(version, resolved_config)
    lines.extend(extra_header)
    lines.append(",".join(format_value(name) for name in names))
    for i in range(n):
        lines.append(",".join(format_value(a[i]) for a in arrays))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path
