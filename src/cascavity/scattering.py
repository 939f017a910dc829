"""One-dimensional transfer-matrix model of lossless point-scatterer stacks.

Conventions (fixed throughout the package):

* At every point the field is a pair of plane-wave amplitudes (A, B):
  A right-propagating, B left-propagating.  Across an optical element the
  pairs on the two sides are related by ``(C, D)^T = M (A, B)^T`` with
  (A, B) on the left side and (C, D) on the right side.
* A lossless point mirror of real polarizability ``zeta`` has

      M = [[1 + i*zeta,  i*zeta],
           [-i*zeta,     1 - i*zeta]]

  equivalent to reflectivity r = i*zeta/(1 - i*zeta) and transmissivity
  t = 1/(1 - i*zeta); |r|^2 + |t|^2 = 1 and t = 1 + r.
* Free propagation over a distance d is diag(e^{ikd}, e^{-ikd}): the
  right-mover advances its phase.
* Units: c = 1, so wavenumber and angular frequency coincide; lengths are
  measured in units of the reference cavity length.

One engine evaluates every stack, over wavenumbers and drives of any
broadcast shape: ``compose`` gives the stack's matrix entries,
``region_amplitude_sweep`` the amplitude pair of every homogeneous region
under two-sided drive, ``field_profile`` the amplitudes at arbitrary
positions, and ``transmission_poles`` the complex zeros of m22, which are the
stack's resonances.  Every matrix factor has determinant exactly 1, which the
boundary solve exploits: with det M = 1 the outgoing amplitudes are

    b_out = (d_in - m21 * a_in) / m22
    c_out = (a_in + m12 * d_in) / m22

both free of the catastrophic cancellation that the textbook form
``c_out = m11*a_in + m12*b_out`` suffers for highly reflective stacks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Union

import numpy as np

from .errors import InvalidParameterError, PoleSearchError, SingularBoundaryError

# m22 of a lossless stack is 1/t*; |t| > 0 for finite real zeta, so this
# guard only trips on numerically degenerate input.
_M22_FLOOR = 1e-300
# Newton steps per start before the pole search gives up; 3-6 suffice for
# the cascade's poles from the mode-model eigenvalues at zeta 2 to 2000.
_NEWTON_MAX_ITER = 50
# Newton stops once |step| <= _NEWTON_RTOL * |omega|.
_NEWTON_RTOL = 1e-15
# Two poles closer than this times |omega| are the same pole.
_SAME_POLE_RTOL = 1e-12


@dataclass(frozen=True)
class Mirror:
    """Lossless point scatterer; zeta is the real, dimensionless polarizability."""

    zeta: float

    def __post_init__(self):
        if not math.isfinite(self.zeta):
            raise InvalidParameterError(f"mirror polarizability must be finite, got {self.zeta!r}")


@dataclass(frozen=True)
class Gap:
    """Free-propagation segment of positive length (units of the cavity length)."""

    length: float

    def __post_init__(self):
        if not (math.isfinite(self.length) and self.length > 0):
            raise InvalidParameterError(f"gap length must be positive and finite, got {self.length!r}")


StackElement = Union[Mirror, Gap]


@dataclass(frozen=True)
class OpticalStack:
    """Ordered left-to-right sequence of mirrors and gaps.

    Mirrors are zero-thickness, so element positions are cumulative gap
    lengths.  An empty stack acts as the identity (free space).
    """

    elements: tuple[StackElement, ...]

    def __init__(self, elements: Iterable[StackElement]):
        elems = tuple(elements)
        for e in elems:
            if not isinstance(e, (Mirror, Gap)):
                raise InvalidParameterError(f"stack elements must be Mirror or Gap, got {type(e).__name__}")
        object.__setattr__(self, "elements", elems)

    def __len__(self) -> int:
        return len(self.elements)

    @property
    def total_length(self) -> float:
        return sum(e.length for e in self.elements if isinstance(e, Gap))

    @property
    def mirror_count(self) -> int:
        return sum(1 for e in self.elements if isinstance(e, Mirror))

    def boundary_positions(self) -> list[float]:
        """Positions of the region boundaries, one entry per region.

        Entry i is the left edge of the (possibly zero-width) homogeneous
        region before element i; the final entry is the right edge of the
        stack.  Length is ``len(elements) + 1``.
        """
        pos = [0.0]
        x = 0.0
        for e in self.elements:
            if isinstance(e, Gap):
                x += e.length
            pos.append(x)
        return pos

    def gap_region_indices(self) -> list[int]:
        """Region indices whose amplitudes describe each gap interior, in order."""
        return [i for i, e in enumerate(self.elements) if isinstance(e, Gap)]


def reflectivity(zeta: float) -> complex:
    """Amplitude reflectivity r = i*zeta / (1 - i*zeta)."""
    if not math.isfinite(zeta):
        raise InvalidParameterError(f"mirror polarizability must be finite, got {zeta!r}")
    return 1j * zeta / (1.0 - 1j * zeta)


def transmissivity(zeta: float) -> complex:
    """Amplitude transmissivity t = 1 / (1 - i*zeta)."""
    if not math.isfinite(zeta):
        raise InvalidParameterError(f"mirror polarizability must be finite, got {zeta!r}")
    return 1.0 / (1.0 - 1j * zeta)


# ---------------------------------------------------------------------------
# Standard geometries


def symmetric_cavity(zeta: float, length: float = 1.0) -> OpticalStack:
    """Two identical mirrors enclosing one gap."""
    return OpticalStack([Mirror(zeta), Gap(length), Mirror(zeta)])


def three_mirror_chain(zeta: float, l1: float, l2: float) -> OpticalStack:
    """Two coupled cavities of lengths l1, l2 sharing the middle mirror."""
    return OpticalStack([Mirror(zeta), Gap(l1), Mirror(zeta), Gap(l2), Mirror(zeta)])


def four_mirror_chain(zeta: float, cavity_length: float, fiber_length: float) -> OpticalStack:
    """Cavity - fiber - cavity chain: four identical mirrors, three gaps.

    Gap interiors map to region indices 1 (left cavity), 3 (fiber) and
    5 (right cavity), per ``OpticalStack.gap_region_indices``.
    """
    return OpticalStack(
        [
            Mirror(zeta),
            Gap(cavity_length),
            Mirror(zeta),
            Gap(fiber_length),
            Mirror(zeta),
            Gap(cavity_length),
            Mirror(zeta),
        ]
    )


# ---------------------------------------------------------------------------
# The transfer-matrix engine.  A matrix is its four entries (m11, m12, m21,
# m22); mirror entries are scalars, gap entries arrays shaped like k.


def _check_wavenumbers(k) -> np.ndarray:
    k = np.asarray(k, dtype=float)
    bad = k[~(np.isfinite(k) & (k > 0))]
    if bad.size:
        raise InvalidParameterError(f"wavenumber must be positive and finite, got {float(bad[0])!r}")
    return k


def _element_factors(stack: OpticalStack, k: np.ndarray) -> list[tuple]:
    factors = []
    for e in stack.elements:
        if isinstance(e, Mirror):
            iz = 1j * e.zeta
            factors.append((1.0 + iz, iz, -iz, 1.0 - iz))
        else:
            phase = np.exp(1j * k * e.length)
            factors.append((phase, 0.0, 0.0, 1.0 / phase))
    return factors


def _apply(m, right, left):
    """Map an amplitude pair across one element (left side -> right side)."""
    m11, m12, m21, m22 = m
    return m11 * right + m12 * left, m21 * right + m22 * left


def _product(factors):
    """Left-to-right product: composing [X, Y] gives M(Y) @ M(X), column by column."""
    m11, m12, m21, m22 = 1.0 + 0j, 0j, 0j, 1.0 + 0j
    for m in factors:
        m11, m21 = _apply(m, m11, m21)
        m12, m22 = _apply(m, m12, m22)
    return m11, m12, m21, m22


def compose(stack: OpticalStack, k):
    """Entries (m11, m12, m21, m22) of the stack's transfer matrix, read-only arrays shaped like ``k``."""
    k = _check_wavenumbers(k)
    entries = _product(_element_factors(stack, k))
    return tuple(np.broadcast_to(np.asarray(m, dtype=complex), k.shape) for m in entries)


def region_amplitude_sweep(stack: OpticalStack, k, a_in, d_in) -> list[tuple[np.ndarray, np.ndarray]]:
    """Amplitude pair (A, B) of every region for incoming a_in (left) and d_in (right).

    ``k``, ``a_in`` and ``d_in`` broadcast together, and every returned array
    has their broadcast shape (the drive arrays are read-only views).  Region
    0 lies left of the stack and region i right of element i - 1, so the
    first pair is (a_in, b_out) and the last (c_out, d_in).  Interior regions
    are propagated forward from the left.  Linear in the drive.
    """
    k = _check_wavenumbers(k)
    a = np.asarray(a_in, dtype=complex)
    d = np.asarray(d_in, dtype=complex)
    if not (np.all(np.isfinite(a)) and np.all(np.isfinite(d))):
        raise InvalidParameterError("drive amplitudes a_in and d_in must be finite")
    shape = np.broadcast_shapes(k.shape, a.shape, d.shape)
    a, d = np.broadcast_to(a, shape), np.broadcast_to(d, shape)
    factors = _element_factors(stack, k)
    _, m12, m21, m22 = _product(factors)
    if np.any(np.abs(m22) < _M22_FLOOR):
        smallest = float(np.min(np.abs(m22)))
        raise SingularBoundaryError(f"stack transfer matrix is numerically singular (|m22| = {smallest:.3e})")
    b_out = (d - m21 * a) / m22
    # det M = 1 exactly for mirror/gap products, so m11 - m12*m21/m22 = 1/m22.
    c_out = (a + m12 * d) / m22

    regions = [(a, b_out)]
    for m in factors[:-1]:
        regions.append(_apply(m, *regions[-1]))
    if factors:
        # not propagated: the last step would reintroduce the cancellation
        regions.append((c_out, d))
    return regions


def field_profile(stack: OpticalStack, k, a_in, d_in, positions) -> tuple[np.ndarray, np.ndarray]:
    """Amplitudes (A(x), B(x)) at arbitrary positions; the intensity is |A|^2 + |B|^2.

    The arrays have the broadcast shape of ``k``, ``a_in`` and ``d_in``
    followed by one axis over the 1-d ``positions``.  A position on a mirror
    belongs to the region on the mirror's right; positions outside the stack
    use the outer-region amplitudes.
    """
    x = np.atleast_1d(np.asarray(positions, dtype=float))
    if x.ndim != 1:
        raise InvalidParameterError("positions must be a 1-d sequence")
    regions = region_amplitude_sweep(stack, k, a_in, d_in)
    refs = np.asarray(stack.boundary_positions())
    idx = np.maximum(np.searchsorted(refs, x, side="right") - 1, 0)
    k = np.broadcast_to(np.asarray(k, dtype=float), regions[0][0].shape)[..., None]
    phase = np.exp(1j * k * (x - refs[idx]))
    right = np.stack([r for r, _ in regions], axis=-1)[..., idx] * phase
    left = np.stack([b for _, b in regions], axis=-1)[..., idx] / phase
    return right, left


def _m22_and_derivative(stack: OpticalStack, omega: np.ndarray):
    """m22 and dm22/domega at complex ``omega``, from one forward-mode pass over the factors.

    The running product's second column (m12, m22) and its derivative are
    carried together.  Mirrors do not depend on omega; a gap factor
    diag(e^{i*omega*l}, e^{-i*omega*l}) has derivative
    i*l * diag(e^{i*omega*l}, -e^{-i*omega*l}).
    """
    col = (np.zeros_like(omega), np.ones_like(omega))
    dcol = (np.zeros_like(omega), np.zeros_like(omega))
    for e, m in zip(stack.elements, _element_factors(stack, omega)):
        dcol = _apply(m, *dcol)
        if isinstance(e, Gap):
            il = 1j * e.length
            d12, d22 = _apply((il * m[0], 0.0, 0.0, -il * m[3]), *col)
            dcol = (dcol[0] + d12, dcol[1] + d22)
        col = _apply(m, *col)
    return col[1], dcol[1]


def transmission_poles(stack: OpticalStack, starts) -> np.ndarray:
    """The complex zeros of m22(omega), the stack's transmission poles, by Newton's method.

    Entry i is the pole reached from ``starts[i]``: its real part is the
    resonance frequency and minus its imaginary part the half width.  Each
    start iterates until |step| <= 1e-15 * |omega|.  Raises PoleSearchError
    when a start has not converged within ``_NEWTON_MAX_ITER`` steps or when
    two starts reach the same pole; the message holds no comma, so it fits
    a CSV cell.
    """
    omega = np.array(starts, dtype=complex)
    if omega.ndim != 1 or not np.all(np.isfinite(omega)):
        raise InvalidParameterError("pole search starts must be a finite 1-d sequence")
    active = np.ones(omega.shape, dtype=bool)
    for _ in range(_NEWTON_MAX_ITER):
        m22, dm22 = _m22_and_derivative(stack, omega[active])
        step = m22 / dm22
        omega[active] -= step
        # written as not-converged so that a NaN step stays active and fails
        active[active] = ~(np.abs(step) <= _NEWTON_RTOL * np.abs(omega[active]))
        if not active.any():
            break
    else:
        i = int(np.flatnonzero(active)[0])
        raise PoleSearchError(
            f"pole search (Newton on m22): start {i} at {complex(starts[i]):.15g} did not converge"
            f" within {_NEWTON_MAX_ITER} steps; last iterate {omega[i]:.15g}"
        )
    same = np.abs(omega[:, None] - omega[None, :]) <= _SAME_POLE_RTOL * np.abs(omega)
    i, j = np.nonzero(np.triu(same, 1))
    if i.size:
        raise PoleSearchError(
            f"pole search (distinct-pole check): starts {i[0]} and {j[0]} reached the same pole {omega[i[0]]:.15g}"
        )
    return omega
