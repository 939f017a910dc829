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
and a 2x2 block; the 2x2 block is nonsingular whenever g > 0 in exact
arithmetic (in floats only when 2*g^2 does not underflow), and for g = 0
the undriven gamma is set to zero (degenerate only when df = 0 as well,
which needs no special treatment beyond that convention).

The model's resonances are the complex eigenvalues of its matrix,
``mode_poles``; the lossless normal-mode frequencies are their real parts
as kappa goes to 0, and the antisymmetric pole is omega_c - i*kappa
exactly.
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
        # reachable: 2*g**2 underflows to 0 for g near 1e-200, and at omega = omega_f det2 is then exactly 0
        bad = np.abs(det2) == 0.0
        if np.any(bad):
            raise SingularSystemError(
                f"steady-state system is singular at omega = {float(omega[bad][0])!r}:"
                f" 2*g**2 underflows to {2.0 * system.g**2!r} for g = {system.g!r}"
            )
        s = drive_sum * (1j * df) / det2
        gamma = -1j * system.g * drive_sum / det2
    alpha = 0.5 * (s + d)
    beta = 0.5 * (s - d)
    return alpha, beta, gamma


def mode_poles(system: ModeSystem) -> tuple[complex, complex, complex]:
    """Complex eigenfrequencies of the damped three-mode matrix, sorted by real part.

    The matrix [[wc - i*kappa, 0, g], [0, wc - i*kappa, g], [g, g, wf]] has
    the antisymmetric cavity combination (a - b) as an eigenvector at exactly
    ``omega_c - i*kappa``; the symmetric combination hybridizes with the
    lossless middle mode, giving avg +- sqrt(half^2 + 2 g^2) with
    avg = (wc - i*kappa + wf)/2 and half = (wc - i*kappa - wf)/2.  Each
    pole's half width is minus its imaginary part.
    """
    damped = complex(system.omega_c, -system.kappa)
    avg = 0.5 * (damped + system.omega_f)
    root = cmath.sqrt((0.5 * (damped - system.omega_f)) ** 2 + 2.0 * system.g**2)
    lo, mid, hi = sorted((avg - root, damped, avg + root), key=lambda p: p.real)
    return lo, mid, hi
