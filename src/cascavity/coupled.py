"""Steady state of three coupled driven-dissipative bosonic modes.

Two cavity modes a, b (resonance ``omega_c``, amplitude decay ``kappa``)
couple with strength ``g`` to a lossless intermediate mode c (resonance
``omega_f``).  ``ModeSystem`` holds only these four parameters; the drive
is an argument of each solve, spelled as in the scattering engine: complex
incident fields ``a_in`` on a and ``d_in`` on b (carrying any relative
phase, e.g. d * e^{-i*phi}) at the drive frequency ``omega``.  Each field
enters its mode through the port rate (input-output theory), as the pump
eta = sqrt(kappa) * field, which makes the single-cavity peak transmission
that of the scattering model.  In the frame rotating at the drive
frequency the mean-field steady state solves, with detunings
dc = omega_c - omega and df = omega_f - omega,

    (i*dc + kappa) * alpha + i*g*gamma = -i * eta_l
    (i*dc + kappa) * beta  + i*g*gamma = -i * eta_r
    i*df * gamma + i*g * (alpha + beta) = 0

The system is linear in the drive, so the steady state is a coherent state
and (alpha, beta, gamma) determine every observable; photon numbers are
|alpha|^2 etc., and the flux detected behind the right cavity is
kappa * |beta|^2.  The solver eliminates both cavities from the fiber
row, solves it for gamma, and feeds gamma back into each cavity row: with
det = (i*dc + kappa)*(i*df) + 2*g^2,

    gamma = -g * (eta_l + eta_r) / det
    alpha = -i * (eta_l + g*gamma) / (i*dc + kappa)
    beta  = -i * (eta_r + g*gamma) / (i*dc + kappa)

so an undriven cavity's amplitude is a product, never a difference of
nearly equal terms, and keeps its digits at any zeta.  det is nonzero
whenever g > 0 in exact arithmetic (in floats only when 2*g^2 does not
underflow).  For g = 0 the fiber row is 0/0 at omega = omega_f, and the
undriven gamma is set to zero by convention.

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


def _steady_state_arrays(system: ModeSystem, omega, a_in: complex, d_in: complex):
    """Steady state (alpha, beta, gamma) over drive frequencies ``omega`` for incident fields a_in (on a), d_in (on b)."""
    a_in, d_in = complex(a_in), complex(d_in)
    if not (cmath.isfinite(a_in) and cmath.isfinite(d_in)):
        raise InvalidParameterError(f"incident fields must be finite, got a_in={a_in!r}, d_in={d_in!r}")
    eta_l, eta_r = math.sqrt(system.kappa) * a_in, math.sqrt(system.kappa) * d_in
    omega = np.asarray(omega, dtype=float)
    cavity = 1j * (system.omega_c - omega) + system.kappa
    if system.g == 0.0:
        gamma = np.zeros_like(cavity)
    else:
        det = cavity * (1j * (system.omega_f - omega)) + 2.0 * system.g**2
        # reachable: 2*g**2 underflows to 0 for g near 1e-200, and at omega = omega_f det is then exactly 0
        bad = det == 0.0
        if np.any(bad):
            raise SingularSystemError(
                f"steady-state system is singular at omega = {float(omega[bad][0])!r}:"
                f" 2*g**2 underflows to {2.0 * system.g**2!r} for g = {system.g!r}"
            )
        gamma = -system.g * (eta_l + eta_r) / det
    alpha = -1j * (eta_l + system.g * gamma) / cavity
    beta = -1j * (eta_r + system.g * gamma) / cavity
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
