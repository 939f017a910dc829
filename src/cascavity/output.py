"""Deterministic CSV and JSON emission.

Floats are written with Python's repr (the shortest decimal that round-trips
to the same float64), so identical inputs produce byte-identical files; the
convention is declared in every file's comment header.  A ``str`` cell that
holds ``,``, ``"``, a newline or a carriage return is quoted the way the
``csv`` module's minimal quoting does it.

``write_csv`` formats column by column in blocks of ``_BLOCK_ROWS`` rows: a
numeric array column is formatted by one ``float.__repr__`` map per block
instead of ``format_value`` per cell, and a process holds only the block it is
formatting.  That repr is nearly all of the cost of a large file, so the blocks
are dealt round-robin to w processes: one per usable CPU, but no more than one
per ``_MIN_BLOCKS_PER_PROCESS`` blocks, since a forked process has a start-up
cost of its own.  The calling process formats blocks 0, w, 2w, ...; each of the
w - 1 forked children formats its own share, sends each block's bytes,
length-prefixed, over a pipe, and leaves through ``os._exit`` so that inherited
buffers (the file's header, stdout) are never flushed twice.  The calling
process writes every block in row order, so the bytes do not depend on the CPU
count.  With w = 1 (a small file, one usable CPU, or no ``os.fork`` or
``os.sched_getaffinity`` on the platform) the same loop runs with no children.

The file is opened in binary mode because the children's blocks arrive as
UTF-8 bytes and are written as they come; the calling process encodes its own
blocks the same way, and no newline translation applies to either.
"""

from __future__ import annotations

import json
import os
import struct
from pathlib import Path
from typing import BinaryIO, Sequence

import numpy as np

_BLOCK_ROWS = 8192
# A forked process first pays copy-on-write faults over a block's working set, then a pipe
# copy per block: on a 2-vCPU VM a 9-block darkmode.csv was about 12% slower forked.
_MIN_BLOCKS_PER_PROCESS = 8
_QUOTED_CHARS = (",", '"', "\n", "\r")
_FRAME = struct.Struct("<?Q")  # block formatted (else an error message follows), payload length


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


def format_floats(values) -> list[str]:
    """``format_value`` of each element of a real numeric array, i.e. its float64 repr."""
    return list(map(float.__repr__, np.asarray(values).astype(float, copy=False).tolist()))


def _format_block(block) -> list[str]:
    if isinstance(block, np.ndarray) and block.dtype.kind in "biuf":
        return format_floats(block)
    cells = list(map(_format_unquoted, block))
    # only str cells can hold a quoted character: scan the block once, not each cell
    joined = "".join(cells)
    return list(map(_quote, cells)) if any(c in joined for c in _QUOTED_CHARS) else cells


def _block_bytes(cells, start: int) -> bytes:
    rows = zip(*(_format_block(c[start : start + _BLOCK_ROWS]) for c in cells))
    return ("\n".join(map(",".join, rows)) + "\n").encode("utf-8")


def _worker_count(n_blocks: int) -> int:
    if not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")):
        return 1
    return max(1, min(len(os.sched_getaffinity(0)), n_blocks // _MIN_BLOCKS_PER_PROCESS))


def _serve_blocks(pipe_fd: int, stale_fds: list[int], cells, starts) -> None:
    """Forked child: send each block of ``starts`` as a frame, then exit without cleanup."""
    status = 1
    try:
        for fd in stale_fds:  # inherited read ends: the caller closing one must reach its writer
            os.close(fd)
        with os.fdopen(pipe_fd, "wb") as pipe:
            for start in starts:
                try:
                    ok, payload = True, _block_bytes(cells, start)
                except Exception as exc:
                    ok, payload = False, f"{type(exc).__name__}: {exc}".encode()
                pipe.write(_FRAME.pack(ok, len(payload)))
                pipe.write(payload)
                if not ok:
                    break
        status = 0
    finally:
        os._exit(status)


def _receive_block(reader, start: int) -> bytes:
    head = reader.read(_FRAME.size)
    if len(head) == _FRAME.size:
        ok, size = _FRAME.unpack(head)
        payload = reader.read(size)
        if len(payload) == size:
            if ok:
                return payload
            raise RuntimeError(f"formatting CSV rows from {start} failed in a worker process: {payload.decode()}")
    raise RuntimeError(f"a CSV worker process exited before sending the rows from {start}")


def _write_blocks(f, cells, starts: range, workers: int) -> None:
    children: list[tuple[int, BinaryIO]] = []  # (pid, read end of its pipe), for workers 1, 2, ...
    try:
        for k in range(1, workers):
            r, w = os.pipe()
            try:
                pid = os.fork()
            except OSError:
                os.close(r)
                os.close(w)
                raise
            if pid == 0:
                _serve_blocks(w, [r, *(reader.fileno() for _, reader in children)], cells, starts[k::workers])
            os.close(w)
            children.append((pid, os.fdopen(r, "rb")))
        for i, start in enumerate(starts):
            k = i % workers
            f.write(_block_bytes(cells, start) if k == 0 else _receive_block(children[k - 1][1], start))
    finally:
        for _, reader in children:  # a child still writing gets BrokenPipeError and exits
            reader.close()
        for pid, _ in children:
            os.waitpid(pid, 0)


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
    starts = range(0, n, _BLOCK_ROWS)
    with path.open("wb") as f:
        f.write(("\n".join([*header_lines(version, resolved_config), ",".join(names)]) + "\n").encode("utf-8"))
        _write_blocks(f, cells, starts, _worker_count(len(starts)))
    return path


def write_json(path, payload: dict) -> Path:
    path = Path(path)
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return path
