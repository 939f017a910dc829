"""cascavity benchmark: run a workload's CLI commands in-process and report metrics.

    python3 perfbench/run.py --workload sweep-400k --seed 1 --seconds 25 --trace 0
    python3 -m pytest perfbench -q        # self-test at tiny grids

Run from the root of a source checkout; cascavity is imported from ``src/``.
Each op runs the workload's commands (``workloads.py``) through
``cascavity.cli.main`` with ``--quiet``, reading configs generated from the
seed and writing into a work directory; then, untimed, its outputs are
checked against the scalar reference in ``reference.py``.  An op fails on a
non-zero exit or a failed check.  The first op is a warm-up and is not timed.

End-to-end metrics (``--trace 0``, nothing patched):

* ``op_s.p50``: median seconds per op, each op rescaled to a reference host
  speed by the calibration kernel in ``hostspeed.py`` (wall times are in the
  result file);
* ``samples_per_s``: model evaluations per op (omega samples x drive settings
  x models x zetas) over ``op_s.p50``;
* ``peak_rss_mb``: ``ru_maxrss`` of this process;
* ``setup_s``: median, over fresh interpreters, of the seconds from process
  start to ready (imports of ``cascavity.cli``/``runs``/``svgplot`` plus
  writing the configs), rescaled like ``op_s`` by the kernel run in each
  interpreter once it is ready.

``--trace 1`` alternates untraced and traced ops and reports the per-layer
metrics per traced op from the spans in ``spans.py``, the share of failed
ops, and the tracing overhead (traced minus untraced ``op_s.p50``); it also
prints each layer's self time per op.

The last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  The full result (provenance, seed, configs,
every op time, output digests, spans) goes to ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from importlib import metadata
from pathlib import Path

import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
RESULTS = ROOT / ".perfbench_out"
SETUP_PROBES = 3
SETUP_KERNEL_PIECES = 7  # kernel runs per probe; more than an op's, as a probe gets one bracket
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS")
LAYERS = ("config", "matching", "scattering", "coupled", "spectra", "output", "svgplot", "runs")


def cap_blas_threads() -> int:
    """Cap BLAS/OpenMP threads at the usable CPU count; must run before numpy loads."""
    nproc = len(os.sched_getaffinity(0))
    for var in BLAS_THREAD_VARS:
        current = os.environ.get(var, "")
        if not (current.isdigit() and 0 < int(current) <= nproc):
            os.environ[var] = str(nproc)
    return nproc


def setup(workload: workloads.Workload, config_dir: Path):
    """Import the CLI and every module it loads lazily, then write the configs."""
    sys.path.insert(0, str(SRC))
    import cascavity.cli
    import cascavity.runs  # noqa: F401
    import cascavity.svgplot  # noqa: F401

    if not Path(cascavity.cli.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"cascavity was imported from {cascavity.cli.__file__}, not from {SRC}")
    workload.write_configs(config_dir)
    return cascavity.cli.main


def time_setup(args, probe_dir: Path) -> tuple[list[float], list[float]]:
    """Seconds from process start to ready in fresh interpreters (``--probe-setup``): wall and rescaled.

    Each probe runs the host-speed kernel after it is ready, in the same
    process, and its time is rescaled by that kernel like an op's.
    """
    import hostspeed

    wall, rescaled = [], []
    for i in range(SETUP_PROBES):
        argv = [sys.executable, __file__, "--workload", args.workload, "--seed", str(args.seed)]
        argv += ["--probe-setup", str(probe_dir / str(i))] + (["--tiny"] if args.tiny else [])
        start = time.perf_counter()
        with subprocess.Popen(argv, stdout=subprocess.PIPE, text=True) as child:
            line = child.stdout.readline()
            ready = time.perf_counter()
            kernel_times = child.stdout.read().split()
            if child.wait(timeout=120) != 0 or line.strip() != "ready":
                raise RuntimeError(f"setup probe {i} failed with exit code {child.returncode}")
        wall.append(ready - start)
        rescaled.append(hostspeed.rescale(wall[-1], [float(t) for t in kernel_times]))
    return wall, rescaled


def run_commands(cli_main, commands: list[list[str]]) -> list[str]:
    """Run each command as ``cascavity <argv>``; returns failure messages."""
    errors = []
    for argv in commands:
        try:
            cli_main(args=argv, prog_name="cascavity")
        except SystemExit as exc:
            if exc.code not in (0, None):
                errors.append(f"{argv[0]} exited with {exc.code}")
        except Exception:  # a crash inside the program is a failed op, not a failed benchmark
            errors.append(f"{argv[0]} raised:\n{traceback.format_exc()}")
    return errors


def quartiles(values: list[float]) -> dict:
    if len(values) < 2:
        return {"p25": values[0], "p50": values[0], "p75": values[0], "n": len(values)}
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"p25": q1, "p50": q2, "p75": q3, "n": len(values)}


def _read_first(path: Path, key: str) -> str:
    try:
        for line in path.read_text(encoding="utf-8").splitlines():
            if line.startswith(key):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def git_commit() -> str:
    """HEAD of the checkout read from .git, or 'unknown' when it is not a git checkout."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text(encoding="utf-8").strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text(encoding="utf-8").strip()
        for line in (ROOT / ".git" / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def provenance(nproc: int, digests: dict) -> dict:
    import numpy

    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if level in ("2", "3"):
            caches[f"L{level}"] = size
    source = hashlib.sha256()
    for path in sorted((SRC / "cascavity").glob("*.py")):
        source.update(path.name.encode() + b"\0" + path.read_bytes())
    try:
        blas = numpy.__config__.CONFIG["Build Dependencies"]["blas"]["name"]
    except (AttributeError, KeyError):
        blas = "unknown"
    return {
        "git_commit": git_commit(),
        "source_sha256": source.hexdigest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": metadata.version("scipy"),
        "click": metadata.version("click"),
        "nproc": nproc,
        "cpu_model": _read_first(Path("/proc/cpuinfo"), "model name"),
        "caches": caches,
        "blas": blas,
        "blas_threads": {var: os.environ[var] for var in BLAS_THREAD_VARS},
        "output_sha256": digests,
    }


def per_layer_metrics(tracer, traced: list[float], untraced: list[float], failed_ratio: float) -> dict:
    ops = len(traced)
    totals = tracer.summary()

    def total(name, key):
        return totals.get(name, {}).get(key, 0.0)

    def per_op(name, key):
        return total(name, key) / ops

    def rate(name, key):
        busy = total(name, "busy_s")
        return total(name, key) / busy if busy > 0 else 0.0

    def m(value, unit):
        return {"value": value, "unit": unit}

    out = {"config.load_config.busy_s": m(per_op("config.load_config", "busy_s"), "s")}
    for name, keys in (
        ("matching.match_cascaded", ("calls", "busy_s")),
        ("scattering.region_amplitude_sweep", ("calls", "busy_s", "points")),
        ("coupled.steady_state_arrays", ("calls", "busy_s", "points")),
        ("spectra.find_peaks", ("calls", "busy_s", "samples")),
        ("spectra.lorentzian_fit", ("calls", "busy_s")),
        ("spectra.sinusoid_fit", ("calls", "busy_s")),
        ("output.write_csv", ("calls", "busy_s", "cells", "bytes")),
        ("output.write_json", ("busy_s",)),
        ("svgplot.heat_map", ("calls", "busy_s", "bytes")),
        ("svgplot.line_plot", ("calls", "busy_s", "bytes")),
    ):
        for key in keys:
            unit = {"busy_s": "s", "bytes": "B"}.get(key, "count")
            out[f"{name}.{key}"] = m(per_op(name, key), unit)
    out["scattering.region_amplitude_sweep.points_per_s"] = m(rate("scattering.region_amplitude_sweep", "points"), "1/s")
    out["output.write_csv.cells_per_s"] = m(rate("output.write_csv", "cells"), "1/s")
    fits = total("spectra.lorentzian_fit", "calls")
    # no fits attempted wastes none: report 1
    out["spectra.lorentzian_fit.ok_ratio"] = m(total("spectra.lorentzian_fit", "ok") / fits if fits else 1.0, "ratio")
    for name in ("spectra.dark_mode_scan", "spectra.peak_separation_delta", "spectra.intensity_comparison", "runs"):
        out[f"{name}.self_s"] = m(per_op(name, "self_s"), "s")
    out["tracing.overhead_s"] = m(statistics.median(traced) - statistics.median(untraced), "s")
    out["ops_failed_ratio"] = m(failed_ratio, "ratio")
    return out


def print_layer_table(workload: str, tracer, traced: list[float]) -> None:
    """Per-layer and per-span self time per traced op; layers sum to the op time."""
    ops = len(traced)
    totals = tracer.summary()
    layers = dict.fromkeys(LAYERS, 0.0)
    print(f"\nself time per traced op, {workload} ({ops} ops)")
    print(f"  {'span':40s} {'calls/op':>10s} {'self_s/op':>11s}")
    for name in sorted(totals, key=lambda n: -totals[n]["self_s"]):
        t = totals[name]
        layers[name.split(".")[0]] += t["self_s"] / ops
        print(f"  {name:40s} {t['calls'] / ops:10.1f} {t['self_s'] / ops:11.5f}")
    print(f"  {'layer':40s} {'share':>10s} {'self_s/op':>11s}")
    mean_op = sum(traced) / ops
    for layer, value in sorted(layers.items(), key=lambda kv: -kv[1]):
        print(f"  {layer:40s} {value / mean_op:10.1%} {value:11.5f}")
    print(f"  {'sum of layers':40s} {'':10s} {sum(layers.values()):11.5f}")
    print(f"  {'traced op time (mean)':40s} {'':10s} {mean_op:11.5f}")


def benchmark(args) -> dict:
    nproc = cap_blas_threads()
    workload = workloads.Workload(args.workload, args.seed, workloads.TINY if args.tiny else workloads.FULL)
    RESULTS.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = RESULTS / f"work-{tag}-{os.getpid()}"
    config_dir, out_dir = work / "configs", work / "out"
    try:
        cli_main = setup(workload, config_dir)
        import hostspeed
        from spans import Tracer

        setup_wall, setup_samples = time_setup(args, work / "probes")
        commands = workload.commands(config_dir, out_dir)
        tracer = Tracer() if args.trace else None

        attempted = failed = 0
        failures: list[str] = []
        wall = {"untraced": [], "traced": []}
        times = {"untraced": [], "traced": []}  # rescaled, see hostspeed

        def op(index: int, traced: bool) -> tuple[float, float]:
            """Run one op; returns its wall seconds and its rescaled seconds.

            Traced ops run without the in-op sampler, so that no span holds
            kernel time; their rescaled time uses the kernel runs around them.
            """
            nonlocal attempted, failed
            errors: list[str] = []
            kernel_times = hostspeed.sample()
            seconds = 0.0
            for argv in commands:
                if traced:
                    errs, elapsed = tracer.run_op(index, lambda: run_commands(cli_main, [argv]))
                else:
                    with hostspeed.Sampler() as sampler:
                        start = time.perf_counter()
                        errs = run_commands(cli_main, [argv])
                        elapsed = time.perf_counter() - start - sampler.busy
                    kernel_times += sampler.samples
                errors += errs
                seconds += elapsed
            kernel_times += hostspeed.sample()
            errors += workload.check(out_dir)
            attempted += 1
            if errors:
                failed += 1
                failures.extend(f"op {index}: {e}" for e in errors)
            return seconds, hostspeed.rescale(seconds, kernel_times)

        op(0, False)  # warm-up: lazy imports, first-call set-up, output files created
        deadline = time.perf_counter() + args.seconds
        index = 1
        while True:
            traced = bool(args.trace) and index % 2 == 0
            kind = "traced" if traced else "untraced"
            seconds, rescaled = op(index, traced)
            wall[kind].append(seconds)
            times[kind].append(rescaled)
            index += 1
            done = time.perf_counter() >= deadline
            if done and (not args.trace or times["traced"]):
                break

        digests = {
            name: hashlib.sha256((out_dir / name).read_bytes()).hexdigest()
            for name in workload.output_files()
            if (out_dir / name).is_file()
        }
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        op_p50 = statistics.median(times["untraced"])
        if args.trace:
            metrics = per_layer_metrics(tracer, wall["traced"], wall["untraced"], failed / attempted)
            tracer.write(RESULTS / f"spans-{tag}.json")
            print_layer_table(args.workload, tracer, wall["traced"])
        else:
            metrics = {
                "op_s.p50": {"value": op_p50, "unit": "s"},
                "samples_per_s": {"value": workload.samples_per_op / op_p50, "unit": "1/s"},
                "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
                "setup_s": {"value": statistics.median(setup_samples), "unit": "s"},
            }
        detail = {
            "workload": args.workload,
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": args.trace,
            "tiny": args.tiny,
            "configs": workload.configs,
            "checkpoints": workload.checkpoints,
            "commands": [argv[:1] + argv[5:] for argv in commands],
            "samples_per_op": workload.samples_per_op,
            "op_s": {k: quartiles(v) for k, v in times.items() if v},
            "op_s_samples": times,
            "op_wall_s": {k: quartiles(v) for k, v in wall.items() if v},
            "op_wall_s_samples": wall,
            "setup_s_samples": setup_samples,
            "setup_wall_s_samples": setup_wall,
            "ops_failed_ratio": failed / attempted,
            "failures": failures[:20],
            "metrics": metrics,
            "provenance": provenance(nproc, digests),
        }
        detail_path = RESULTS / f"result-{tag}.json"
        detail_path.write_text(json.dumps(detail, indent=1) + "\n", encoding="utf-8")
        for line in failures[:5]:
            print(f"FAILED {line}", file=sys.stderr)
        u, w = detail["op_s"]["untraced"], detail["op_wall_s"]["untraced"]
        print(
            f"{args.workload} seed {args.seed}: {u['n']} untraced ops, op_s p25/p50/p75"
            f" {u['p25']:.4f}/{u['p50']:.4f}/{u['p75']:.4f} (wall {w['p25']:.4f}/{w['p50']:.4f}/{w['p75']:.4f}),"
            f" setup_s {statistics.median(setup_samples):.4f} (wall {statistics.median(setup_wall):.4f}),"
            f" {failed}/{attempted} ops failed; details in {detail_path.relative_to(ROOT)}"
        )
        return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    finally:
        shutil.rmtree(work, ignore_errors=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="small grids, for the benchmark's self-test")
    parser.add_argument("--probe-setup", type=Path, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "cascavity" / "cli.py").is_file():
        print(f"error: no cascavity sources at {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    if args.probe_setup is not None:
        cap_blas_threads()
        setup(workloads.Workload(args.workload, args.seed, workloads.TINY if args.tiny else workloads.FULL), args.probe_setup)
        print("ready", flush=True)
        import hostspeed

        print(*hostspeed.sample(SETUP_KERNEL_PIECES))
        return 0
    result = benchmark(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
