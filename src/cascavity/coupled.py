"""Steady state of three coupled driven-dissipative bosonic modes.

Two cavity modes a, b (resonance ``omega_c``, amplitude decay ``kappa``)
couple with strength ``g`` to a lossless intermediate mode c (resonance
``omega_f``).  ``ModeSystem`` holds only these four parameters; the drive
is an argument of each solve, as in the scattering engine.  Complex
coherent pumps ``eta_l`` (on a) and ``eta_r`` (on b, carrying any relative
phase, e.g. eta * e^{-i*phi}) oscillate at the drive frequency ``omega``.
In the frame rotating at the drive frequency the mean-field steady state
solves, with detunings dc = omega_c - omega and df = omega_f - omega,

    (i*dc + kappa) * alpha + i*g*gamma = -i * eta_l
    (i*dc + kappa) * beta  + i*g*gamma = -i * eta_r
    i*df * gamma + i*g * (alpha + beta) = 0

The system is linear in the drive, so the steady state is a coherent state
and (alpha, beta, gamma) determine every observable; photon numbers are
|alpha|^2 etc., and the flux detected behind the right cavity is
kappa * |beta|^2.  The solver works in the symmetric/antisymmetric basis
s = alpha + beta, d = alpha - beta, where the equations decouple into a 1x1
and a 2x2 block; the 2x2 block is nonsingular whenever g > 0, and for g = 0
the undriven gamma is set to zero (degenerate only when df = 0 as well,
which needs no special treatment beyond that convention).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidParameterError, SingularSystemError


@dataclass(frozen=True)
class ModeSystem:
    """Parameters of the coupled three-mode model, all in units of c/L."""

    omega_c: float
    omega_f: float
    g: float
    kappa: float

    def __post_init__(self):
        for name in ("omega_c", "omega_f", "g", "kappa"):
            v = getattr(self, name)
            if not math.isfinite(v):
                raise InvalidParameterError(f"{name} must be finite, got {v!r}")
        if self.kappa <= 0:
            raise InvalidParameterError(f"kappa must be positive, got {self.kappa!r}")
        if self.g < 0:
            raise InvalidParameterError(f"g must be nonnegative, got {self.g!r}")


def _steady_state_arrays(system: ModeSystem, omega, eta_l: complex, eta_r: complex):
    """Steady state (alpha, beta, gamma) over drive frequencies ``omega`` for complex pumps eta_l, eta_r."""
    eta_l, eta_r = complex(eta_l), complex(eta_r)
    if not (cmath.isfinite(eta_l) and cmath.isfinite(eta_r)):
        raise InvalidParameterError(f"pump amplitudes must be finite, got eta_l={eta_l!r}, eta_r={eta_r!r}")
    omega = np.asarray(omega, dtype=float)
    dc = system.omega_c - omega
    df = system.omega_f - omega
    denom_d = 1j * dc + system.kappa
    drive_sum = -1j * (eta_l + eta_r)
    drive_diff = -1j * (eta_l - eta_r)

    d = drive_diff / denom_d
    if system.g == 0.0:
        s = drive_sum / denom_d
        gamma = np.zeros_like(s)
    else:
        det2 = denom_d * (1j * df) + 2.0 * system.g**2
        bad = np.abs(det2) == 0.0
        if np.any(bad):
            raise SingularSystemError("steady-state system is singular at some drive frequency")
        s = drive_sum * (1j * df) / det2
        gamma = -1j * system.g * drive_sum / det2
    alpha = 0.5 * (s + d)
    beta = 0.5 * (s - d)
    return alpha, beta, gamma


def two_mode_eigenfrequencies(omega_c: float, g: float) -> tuple[float, float]:
    """Normal-mode frequencies of two degenerate modes coupled with strength g."""
    if g < 0:
        raise InvalidParameterError(f"g must be nonnegative, got {g!r}")
    return omega_c - g, omega_c + g


def three_mode_eigenfrequencies(sys: ModeSystem) -> tuple[float, float, float]:
    """Drive-free normal-mode frequencies, sorted ascending.

    The coupling matrix [[wc, 0, g], [0, wc, g], [g, g, wf]] always has the
    antisymmetric cavity combination (a - b) as an eigenvector at exactly
    ``omega_c``; the symmetric combination hybridizes with the middle mode.
    The middle value of the returned triple is omega_c exactly.
    """
    avg = 0.5 * (sys.omega_c + sys.omega_f)
    half = 0.5 * (sys.omega_c - sys.omega_f)
    r = math.sqrt(half * half + 2.0 * sys.g**2)
    return avg - r, sys.omega_c, avg + r
