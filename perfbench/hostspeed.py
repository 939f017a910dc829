"""Rescale wall times by the host's current CPU speed, read from a fixed kernel.

On a shared virtual machine the CPU speed can swing by 2x for seconds to
minutes at a time.  On the 2-vCPU Xeon VM this benchmark was written on, the
same op took 0.63-1.5 s within one minute, while the guest saw no steal time,
an idle second vCPU, and process CPU time equal to wall time.  Medians of raw
wall times then differ by ~30% between runs made minutes apart, which hides
any regression smaller than that.

So each op's time, and each set-up time, is reported as

    wall seconds * REFERENCE_S / median(kernel times),

that is, in seconds at the host speed at which a fixed calibration kernel
takes REFERENCE_S.  For an op the kernel times come from ``PIECES`` runs
before and after it and from runs every ``INTERVAL_S`` during it
(``Sampler``), whose own time is taken out of the op's time; for a set-up,
from runs in the new interpreter once it is ready.  The kernel is
the benchmark's own code and never changes with the program, so a faster
program still shows as a smaller number.  Wall times go into the result file
next to the rescaled ones.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

# The kernel's time at the fast end of its range (10th percentile over a
# minute) on the VM above.  Only the ratio to the kernel matters when runs are
# compared; this constant makes the numbers read close to wall seconds on that
# machine when it is quiet.
REFERENCE_S = 0.013
PIECES = 3
INTERVAL_S = 0.3

# The kernel mixes the program's kinds of work: float formatting and string
# joins over a list of Python floats (CSV output), complex numpy element-wise
# math whose temporaries outgrow L2 (scattering sweeps), and a scalar Python
# loop (peak finding).  Its working set makes it feel memory and last-level
# cache contention, which slows the 400k-point ops more than cache-resident
# code.
_ARRAY = np.linspace(1.0, 2.0, 60_000)


def _kernel() -> None:
    values = _ARRAY.tolist()
    "\n".join(map(repr, values[::4]))
    np.abs(np.exp(1j * _ARRAY)) ** 2
    top = 0.0
    for v in values[::8]:
        if v > top:
            top = v


def sample(pieces: int = PIECES) -> list[float]:
    """Wall seconds of ``pieces`` consecutive kernel runs."""
    out = []
    for _ in range(pieces):
        start = time.perf_counter()
        _kernel()
        out.append(time.perf_counter() - start)
    return out


def rescale(seconds: float, kernel_times: list[float]) -> float:
    return seconds * REFERENCE_S / statistics.median(kernel_times)


class Sampler:
    """Runs the kernel from SIGALRM every INTERVAL_S while in use, recording its times.

    ``busy`` is the time spent in the kernel, to be taken out of the interval.
    """

    def __enter__(self) -> "Sampler":
        self.samples: list[float] = []
        self.busy = 0.0
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def _tick(self, signum, frame) -> None:
        start = time.perf_counter()
        _kernel()
        elapsed = time.perf_counter() - start
        self.samples.append(elapsed)
        self.busy += elapsed
