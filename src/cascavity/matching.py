"""Closed-form translation from stack geometry to coupled-mode parameters.

For a symmetric two-mirror cavity (polarizability ``zeta`` > 0, length
``l_c``) the transmission near a resonance is Lorentzian with half width

    kappa = (c / l_c) / (2 * zeta * sqrt(zeta^2 + 1))

and the resonance of order n sits at

    omega_c = (c / l_c) * (n*pi + arccot(zeta)).

The phase offset arccot(zeta) = atan2(1, zeta) is the reflection-phase
contribution of a lossless point scatterer: it runs continuously from pi/2
(weak scatterer, half-integer resonances) to 0 (perfect mirror, integer
resonances).  Both relations are exact properties of the stack model and
are verified against brute-force sweeps in the test suite.

Two resonators of lengths l1, l2 sharing a common resonance and one mirror
split by 2g with

    g = c / (2 * sqrt(l1 * l2) * sqrt(1 + zeta^2)),

the geometric-mean length entering through the mode normalizations.  Both
models take the same incident fields; the coupled model turns them into
pumps through its port rate sqrt(kappa) (``cascavity.coupled``).

All functions use c = 1 and require zeta > 0 (reflective mirrors, where the
Lorentzian description of a resonance is meaningful).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import InvalidParameterError


def _require_positive(**kwargs):
    for name, v in kwargs.items():
        if not (isinstance(v, (int, float)) and math.isfinite(v) and v > 0):
            raise InvalidParameterError(f"{name} must be positive and finite, got {v!r}")


@dataclass(frozen=True)
class CascadedMatch:
    """Full parameter set for the cavity-fiber-cavity comparison.

    ``omega_f`` is the fiber resonance nearest ``omega_c`` for the nominal
    fiber length; ``fiber_detuning = omega_f - omega_c`` measures how far
    the nominal geometry is from the common-resonance condition, and
    ``resonant_fiber_length`` is the nearby length that satisfies it
    exactly (fiber resonance of order ``fiber_order`` at ``omega_c``).
    ``g`` is the coupling for the nominal fiber length.
    """

    kappa: float
    omega_c: float
    order_n: int
    g: float
    omega_f: float
    fiber_order: int
    fiber_detuning: float
    fiber_length: float
    resonant_fiber_length: float
    fiber_order_in_range: bool


def kappa_from_geometry(zeta: float, l_c: float) -> float:
    """Cavity amplitude decay rate (half width of the transmission resonance)."""
    _require_positive(zeta=zeta, l_c=l_c)
    # zeta*zeta overflows above about 1.3e154, making kappa 0.0; a tiny zeta*l_c makes the width 0.0
    width = l_c * 2.0 * zeta * math.sqrt(zeta * zeta + 1.0)
    kappa = 1.0 / width if width else math.inf
    if not 0.0 < kappa < math.inf:
        raise InvalidParameterError(f"kappa is {kappa!r} for zeta = {zeta!r} and l_c = {l_c!r} (float range exceeded)")
    return kappa


def resonance_phase(zeta: float) -> float:
    """Intracavity phase offset of the resonance condition, arccot(zeta) in (0, pi/2)."""
    _require_positive(zeta=zeta)
    return math.atan2(1.0, zeta)


def omega_c_from_geometry(zeta: float, l_c: float, n: int) -> float:
    """Resonance frequency of order n of the symmetric two-mirror cavity."""
    _require_positive(zeta=zeta, l_c=l_c)
    if not (isinstance(n, int) and n >= 1):
        raise InvalidParameterError(f"resonance order must be an integer >= 1, got {n!r}")
    return (n * math.pi + resonance_phase(zeta)) / l_c


def nearest_order(zeta: float, l_c: float, target_omega: float) -> int:
    """Resonance order whose frequency is closest to ``target_omega`` (at least 1)."""
    _require_positive(zeta=zeta, l_c=l_c, target_omega=target_omega)
    n = round((target_omega * l_c - resonance_phase(zeta)) / math.pi)
    return max(1, int(n))


def g_from_geometry(zeta: float, l1: float, l2: float) -> float:
    """Coupling rate of two resonators of lengths l1, l2 joined by one mirror.

    Half the brute-force splitting of the corresponding three-mirror
    transmission doublet; reduces to 1/((l1+l2)*sqrt(1+zeta^2)) when
    l1 == l2.
    """
    _require_positive(zeta=zeta, l1=l1, l2=l2)
    return 1.0 / (2.0 * math.sqrt(l1 * l2) * math.sqrt(1.0 + zeta * zeta))


def match_cascaded(
    zeta: float, l_c: float, l_f: float, n_c: int, n_f: int | None = None
) -> CascadedMatch:
    """Assemble the full matched parameter set for the cascaded geometry.

    The fiber order ``n_f`` defaults to the one minimizing the detuning
    |omega_f - omega_c|.  A detuning beyond half the fiber free spectral
    range is flagged (``fiber_order_in_range = False``) but not fatal.
    """
    _require_positive(zeta=zeta, l_c=l_c, l_f=l_f)
    kappa = kappa_from_geometry(zeta, l_c)
    omega_c = omega_c_from_geometry(zeta, l_c, n_c)
    g = g_from_geometry(zeta, l_c, l_f)
    if n_f is None:
        n_f = nearest_order(zeta, l_f, omega_c)
    elif not (isinstance(n_f, int) and n_f >= 1):
        raise InvalidParameterError(f"fiber order must be an integer >= 1, got {n_f!r}")
    omega_f = omega_c_from_geometry(zeta, l_f, n_f)
    detuning = omega_f - omega_c
    half_fsr = math.pi / (2.0 * l_f)
    return CascadedMatch(
        kappa=kappa,
        omega_c=omega_c,
        order_n=n_c,
        g=g,
        omega_f=omega_f,
        fiber_order=int(n_f),
        fiber_detuning=detuning,
        fiber_length=l_f,
        resonant_fiber_length=(n_f * math.pi + resonance_phase(zeta)) / omega_c,
        fiber_order_in_range=abs(detuning) <= half_fsr,
    )
