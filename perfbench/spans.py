"""In-memory spans around the public entry points of each cascavity layer.

The traced run rebinds each entry point, in every module that imported it,
to a wrapper that records a span (name, start, end, parent, op id) and the
work counts of the call.  Nothing is written until the run ends.  Untraced
ops run with the original functions restored.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import time
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path


def _size(x) -> int:
    return int(getattr(x, "size", None) or len(x))


def _file_bytes(path) -> int:
    return os.stat(path).st_size


def _csv_counts(args, kwargs, result):
    columns = args[1] if len(args) > 1 else kwargs["columns"]
    rows = len(columns[0][1]) if columns else 0
    return {"cells": rows * len(columns), "bytes": _file_bytes(result)}


# span name -> (modules that bind it, attribute, work counts of one call)
ENTRY_POINTS = {
    "config.load_config": (["cascavity.cli"], "load_config", None),
    "matching.match_cascaded": (["cascavity.spectra", "cascavity.runs"], "match_cascaded", None),
    "scattering.region_amplitude_sweep": (
        ["cascavity.spectra"],
        "region_amplitude_sweep",
        lambda a, kw, r: {"points": _size(a[1])},
    ),
    "coupled.steady_state_arrays": (
        ["cascavity.spectra"],
        "_steady_state_arrays",
        lambda a, kw, r: {"points": _size(a[1])},
    ),
    "spectra.find_peaks": (["cascavity.spectra"], "find_peaks", lambda a, kw, r: {"samples": len(a[0].values)}),
    "spectra.lorentzian_fit": (["cascavity.spectra"], "lorentzian_fit", None),
    "spectra.sinusoid_fit": (["cascavity.spectra"], "sinusoid_fit", None),
    "spectra.dark_mode_scan": (["cascavity.runs"], "dark_mode_scan", None),
    "spectra.peak_separation_delta": (["cascavity.runs"], "peak_separation_delta", None),
    "spectra.intensity_comparison": (["cascavity.runs"], "intensity_comparison", None),
    "output.write_csv": (["cascavity.runs"], "write_csv", _csv_counts),
    "output.write_json": (["cascavity.runs"], "write_json", None),
    # runs imports svgplot lazily inside each runner, so the module attribute is enough
    "svgplot.heat_map": (["cascavity.svgplot"], "heat_map", lambda a, kw, r: {"bytes": _file_bytes(r)}),
    "svgplot.line_plot": (["cascavity.svgplot"], "line_plot", lambda a, kw, r: {"bytes": _file_bytes(r)}),
}
ROOT = "runs"  # the op's own span: the CLI call and the runner glue around the layers


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int | None = None
    op: int = 0
    ok: bool = True
    counts: dict = field(default_factory=dict)


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._open: list[int] = []
        self._patches = []  # (module, attribute, original, wrapper)
        for name, (modules, attr, counter) in ENTRY_POINTS.items():
            loaded = [importlib.import_module(m) for m in modules]
            original = getattr(loaded[0], attr)
            wrapper = self._wrap(name, original, counter)
            self._patches += [(m, attr, original, wrapper) for m in loaded]

    def _begin(self, name: str, op: int) -> int:
        parent = self._open[-1] if self._open else None
        self.spans.append(Span(name, time.perf_counter(), parent=parent, op=op))
        self._open.append(len(self.spans) - 1)
        return self._open[-1]

    def _finish(self, index: int) -> Span:
        span = self.spans[index]
        span.end = time.perf_counter()
        self._open.pop()
        return span

    def _wrap(self, name, fn, counter):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self._begin(name, self.spans[self._open[0]].op if self._open else -1)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self._finish(index).ok = False
                raise
            span = self._finish(index)
            if counter is not None:
                span.counts = counter(args, kwargs, result)
            return result

        return traced

    def run_op(self, op: int, body):
        """Run body() under a root span of op ``op``, every entry point traced; returns (result, seconds).

        An op may be run in several parts; its time is the sum of its root spans.
        """
        for module, attr, _, wrapper in self._patches:
            setattr(module, attr, wrapper)
        index = self._begin(ROOT, op)
        try:
            result = body()
        finally:
            span = self._finish(index)
            for module, attr, original, _ in self._patches:
                setattr(module, attr, original)
        return result, span.end - span.start

    def self_times(self) -> list[float]:
        """Each span's duration minus the time its child spans cover."""
        own = [s.end - s.start for s in self.spans]
        for s in self.spans:
            if s.parent is not None:
                own[s.parent] -= s.end - s.start
        return own

    def write(self, path: Path) -> None:
        rows = [
            {"name": s.name, "start": s.start, "end": s.end, "parent": s.parent, "op": s.op, "ok": s.ok, **s.counts}
            for s in self.spans
        ]
        path.write_text(json.dumps(rows, separators=(",", ":")) + "\n", encoding="utf-8")

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name, totals over all traced ops: calls, ok, busy, self, counts."""
        totals: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        for s, own in zip(self.spans, self.self_times()):
            t = totals[s.name]
            t["calls"] += 1
            t["ok"] += s.ok
            t["busy_s"] += s.end - s.start
            t["self_s"] += own
            for key, value in s.counts.items():
                t[key] += value
        return totals
