"""Steady state and resonances of a chain of coupled driven-dissipative modes.

``ModeChain`` holds N bosonic modes: mode i at ``omegas[i]``, neighbours
coupled by ``couplings[i]``, and the two end modes decaying at ``kappa``
through their outer mirror (a one-mode chain is both ends): the cascade is
(omega_c, omega_f, omega_c) with couplings (g, g), the single cavity
(omega_c,).  The incident fields of each solve, ``a_in`` on the first mode
and ``d_in`` on the last, enter through the port rate as pumps
eta = sqrt(kappa) * field, and the flux detected behind the last mode is
kappa * |x_{N-1}|^2.  At drive frequency omega the mean-field steady state
solves the tridiagonal system

    d_i * x_i + i*g_{i-1} * x_{i-1} + i*g_i * x_{i+1} = -i * eta_i

with d_i = i*(omega_i - omega), plus kappa at an end.  It is solved from
both ends, as ``region_amplitude_sweep`` solves the stack: with K_j the
determinant of rows j..N-1 (K_N = 1, K_j = d_j*K_{j+1} + g_j^2*K_{j+2}),
the part of mode i driven from the left is
-i*eta_l * (-i*g_0) ... (-i*g_{i-1}) * K_{i+1} / K_0 and the part driven
from the right the same on the reversed chain: products, never differences
of nearly equal terms, so an undriven cavity keeps its digits at any zeta.

The resonances, ``mode_poles``, are the eigenvalues of the damped matrix
(diagonal omega_i, minus i*kappa at an end; off-diagonal g_i).  A
mirror-symmetric chain of odd length N = 2m + 1 splits into blocks of even
and odd parity under mode i <-> N-1-i: the odd block is rows 0..m-1, and
the even block adds the middle mode, coupled by sqrt(2)*g_{m-1}.  The
cascade's odd block is the 1x1 [omega_c - i*kappa]: its pole is exact.
"""

from __future__ import annotations

import cmath
import itertools
import math
import operator
from dataclasses import dataclass

import numpy as np

from .errors import InvalidParameterError, SingularSystemError


@dataclass(frozen=True)
class ModeChain:
    """A chain of coupled modes, rates in units of c/L; ``omegas`` and ``couplings`` are kept as float tuples."""

    omegas: tuple[float, ...]
    couplings: tuple[float, ...]
    kappa: float

    def __post_init__(self):
        object.__setattr__(self, "omegas", tuple(map(float, self.omegas)))
        object.__setattr__(self, "couplings", tuple(map(float, self.couplings)))
        if not (self.omegas and len(self.couplings) == len(self.omegas) - 1):
            raise InvalidParameterError(f"a chain needs a mode and one coupling fewer than modes, got {self!r}")
        rates = (self.kappa, *self.couplings)
        if not (all(map(math.isfinite, (*self.omegas, *rates))) and all(r > 0 for r in rates)):
            raise InvalidParameterError(f"chain parameters must be finite, kappa and every coupling positive, got {self!r}")


def _continuants(rows, couplings) -> list:
    """[K_0, ..., K_N], K_j the determinant of rows j..N-1 of the chain with diagonal ``rows``."""
    dets = [1.0, rows[-1]]
    for d, g in zip(rows[-2::-1], couplings[::-1]):
        dets.append(d * dets[-1] + g * g * dets[-2])
    return dets[::-1]


def _steady_state_arrays(chain: ModeChain, omega, a_in: complex, d_in: complex) -> list:
    """Amplitudes [x_0, ..., x_{N-1}] over drive frequencies ``omega``; a_in drives the first mode, d_in the last."""
    a_in, d_in = complex(a_in), complex(d_in)
    if not (cmath.isfinite(a_in) and cmath.isfinite(d_in)):
        raise InvalidParameterError(f"incident fields must be finite, got a_in={a_in!r}, d_in={d_in!r}")
    omegas, couplings, n = chain.omegas, chain.couplings, len(chain.omegas)
    omega = np.asarray(omega, dtype=float)
    rows = [1j * (w - omega) + chain.kappa if i in (0, n - 1) else 1j * (w - omega) for i, w in enumerate(omegas)]
    dets = _continuants(rows, couplings)
    if np.any(bad := dets[0] == 0.0):
        raise SingularSystemError(
            f"steady-state system is singular at omega = {float(omega[bad][0])!r}: the chain determinant"
            f" rounds to 0 with couplings {couplings!r} (squares {tuple(g * g for g in couplings)!r})"
        )
    # L_i, the determinant of rows 0..i-1, is K_{N-i} of the reversed chain, which a mirror-symmetric chain is
    mirrored = omegas == omegas[::-1] and couplings == couplings[::-1]
    heads = dets[::-1] if mirrored else _continuants(rows[::-1], couplings[::-1])[::-1]
    # -i*eta * (-i*g_0) ... (-i*g_{i-1}): each end's pump carried down the chain to mode i
    port, links = math.sqrt(chain.kappa), [-1j * g for g in couplings]
    left = list(itertools.accumulate(links, operator.mul, initial=-1j * (port * a_in)))
    right = list(itertools.accumulate(links[::-1], operator.mul, initial=-1j * (port * d_in)))[::-1]
    # the middle mode of a mirror-symmetric chain meets both pumps through one continuant, so they add
    # first: an antisymmetric drive leaves it dark to the rounding of the drive itself
    middle = n // 2 if mirrored else None
    return [
        ((left[i] + right[i]) * dets[i + 1] if i == middle else left[i] * dets[i + 1] + right[i] * heads[i]) / dets[0]
        for i in range(n)
    ]


def mode_poles(chain: ModeChain) -> tuple[complex, ...]:
    """Eigenvalues of the damped chain matrix, from its parity blocks in detuning from omegas[0], sorted by real part."""
    omegas, couplings = chain.omegas, chain.couplings
    if len(omegas) % 2 == 0 or omegas != omegas[::-1] or couplings != couplings[::-1]:
        raise InvalidParameterError(f"mode_poles needs a mirror-symmetric chain of odd length, got {chain!r}")
    m = len(omegas) // 2
    diagonal = [complex(w - omegas[0], -chain.kappa if i == 0 else 0.0) for i, w in enumerate(omegas[: m + 1])]
    links = [*couplings[: m - 1], math.sqrt(2.0) * couplings[m - 1]] if m else []
    poles = []
    for block, off in ((diagonal[:m], links[:-1]), (diagonal, links)):
        if len(block) > 1:
            matrix = np.diag(block)
            matrix.flat[1 :: len(block) + 1] = matrix.flat[len(block) :: len(block) + 1] = off
            block = np.linalg.eigvals(matrix).tolist()
        poles += [omegas[0] + p for p in block]
    return tuple(sorted(poles, key=lambda p: p.real))
