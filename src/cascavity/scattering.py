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
``region_amplitude_sweep`` the amplitude pair of the homogeneous regions a
caller asks for (``regions``, default all) under two-sided drive, and
``transmission_poles`` the complex zeros of m22, which are the stack's
resonances, by Newton's method with each start iterated on its own as one
complex number.  A region's intensity |A|^2 + |B|^2 is the same at every
point inside it.

The stack is lossless: at real k every factor, and so every product, has the
form [[conj(m22), m12], [conj(m12), m22]], so the engine carries only the
second column (m12, m22) through the stack.  A mirror maps (x, y) to
(x + w, y - w) with w = i*zeta*(x + y), a gap to (p*x, y/p) with p = e^{ikl};
gaps of equal length share one phase, so the cavity-fiber-cavity chain takes
two exponentials, not three.  The same steps propagate region amplitudes and,
at complex omega, carry dm22/domega for the pole search.  Every factor has
determinant exactly 1, which the boundary solve exploits: the outgoing
amplitudes are

    b_out = (d_in - m21 * a_in) / m22,    m21 = conj(m12)
    c_out = (a_in + m12 * d_in) / m22

both free of the catastrophic cancellation that the textbook form
``c_out = m11*a_in + m12*b_out`` suffers for highly reflective stacks.
Each interior region is propagated from the nearer outer region, (a_in,
b_out) or (c_out, d_in), through at most half the stack.  Only the regions a
caller asks for are built; the last needs neither b_out nor any propagation.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Iterable, Sequence, Union

import numpy as np

from .errors import InvalidParameterError, PoleSearchError, SingularBoundaryError

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

    Mirrors are zero-thickness, so region i + 1 lies right of element i.  An
    empty stack acts as the identity (free space).
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
    def mirror_count(self) -> int:
        return sum(1 for e in self.elements if isinstance(e, Mirror))

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
# The transfer-matrix engine.  A step maps a pair across one element: a
# mirror's step is (i*zeta, None), a gap's (e^{ikl}, e^{-ikl}).


def _check_wavenumbers(k) -> np.ndarray:
    k = np.asarray(k, dtype=float)
    bad = k[~(np.isfinite(k) & (k > 0))]
    if bad.size:
        raise InvalidParameterError(f"wavenumber must be positive and finite, got {float(bad[0])!r}")
    return k


def _steps(stack: OpticalStack, k) -> list[tuple]:
    """One step per element, at real or complex ``k``; gaps of equal length share their phase arrays."""
    phases = {}
    steps = []
    for e in stack.elements:
        if isinstance(e, Mirror):
            steps.append((1j * e.zeta, None))
        else:
            if e.length not in phases:
                p = np.exp(1j * e.length * k)
                phases[e.length] = (p, 1.0 / p)
            steps.append(phases[e.length])
    return steps


def _step(step, x, y):
    """Map an amplitude pair, or the second matrix column, across one element (left side -> right side).

    A mirror adds into array arguments in place (scalars are replaced); a gap
    returns new arrays, because numpy rounds an in-place product on a
    1-element array differently from the same product on a longer one.
    """
    s, q = step
    if q is None:
        w = s * (x + y)
        x += w
        y -= w
        return x, y
    return s * x, q * y


def _second_column(steps):
    """(m12, m22) of the left-to-right product: composing [X, Y] gives M(Y) @ M(X)."""
    col = (0j, 1.0 + 0j)
    for step in steps:
        col = _step(step, *col)
    return col


def _walk(x, y, steps, stops) -> dict:
    """The pair (x, y) after j of ``steps``, for each j in ``stops``; takes only the steps it needs."""
    found = {}
    end = max(stops)
    for j in range(end + 1):
        if j in stops:
            found[j] = (x, y)
        if j < end:
            # a step updates its arrays in place: never the drive view or a returned pair
            if j == 0 or j in stops:
                x, y = x.copy(), y.copy()
            x, y = _step(steps[j], x, y)
    return found


def compose(stack: OpticalStack, k):
    """Entries (m11, m12, m21, m22) of the stack's transfer matrix, read-only arrays shaped like ``k``.

    The matrix is lossless: m11 = conj(m22) and m21 = conj(m12) exactly.
    """
    k = _check_wavenumbers(k)
    m12, m22 = _second_column(_steps(stack, k))
    entries = (np.conj(m22), m12, np.conj(m12), m22)
    return tuple(np.broadcast_to(np.asarray(m, dtype=complex), k.shape) for m in entries)


def region_amplitude_sweep(
    stack: OpticalStack, k, a_in, d_in, *, regions: Sequence[int] | None = None
) -> list[tuple[np.ndarray, np.ndarray]]:
    """Amplitude pair (A, B) of every region for incoming a_in (left) and d_in (right).

    ``k``, ``a_in`` and ``d_in`` broadcast together, and every returned array
    has their broadcast shape (the drive arrays are read-only views).  Region
    0 lies left of the stack and region i right of element i - 1, so the
    first pair is (a_in, b_out) and the last (c_out, d_in).  Each interior
    region is propagated from the nearer end: forward from (a_in, b_out) or
    backward from (c_out, d_in).  Linear in the drive.

    ``regions`` lists the region indices to return, in that order; negative
    indices count from the end and ``None`` means every region.  Only those
    regions are computed, and only the steps they need are taken: the last
    region needs neither b_out nor any propagation.
    """
    count = len(stack.elements) + 1
    if regions is None:
        wanted = list(range(count))
    else:
        wanted = []
        for i in regions:
            if not (isinstance(i, (int, np.integer)) and not isinstance(i, bool) and -count <= i < count):
                msg = f"region index {i!r} is not an int in [{-count}, {count - 1}] ({count} regions)"
                raise InvalidParameterError(msg)
            wanted.append(int(i) % count)
    k = _check_wavenumbers(k)
    a = np.asarray(a_in, dtype=complex)
    d = np.asarray(d_in, dtype=complex)
    if not (np.all(np.isfinite(a)) and np.all(np.isfinite(d))):
        raise InvalidParameterError("drive amplitudes a_in and d_in must be finite")
    shape = np.broadcast_shapes(k.shape, a.shape, d.shape)
    a, d = np.broadcast_to(a, shape), np.broadcast_to(d, shape)
    steps = _steps(stack, k)
    # |m22|^2 = 1 + |m12|^2 at real k, so m22 never vanishes, but the column overflows for
    # large zeta (near 1e77 for four mirrors)
    with np.errstate(over="ignore", invalid="ignore"):
        m12, m22 = _second_column(steps)
    bad = ~(np.isfinite(m12) & np.isfinite(m22))
    if bad.any():
        k_bad = float(np.broadcast_to(k, shape)[np.broadcast_to(bad, shape)][0])
        zeta = max(abs(e.zeta) for e in stack.elements if isinstance(e, Mirror))
        raise SingularBoundaryError(
            f"boundary solve: the transfer matrix overflows at k = {k_bad!r} (largest mirror zeta = {zeta!r})"
        )

    # each region from the nearer end, so that no region is propagated through more than half the stack
    last = count - 1
    from_left = [i for i in wanted if 2 * i <= last]
    from_right = [last - i for i in wanted if 2 * i > last]
    found = {}
    # det M = 1 exactly for mirror/gap products: the closed forms for b_out and c_out
    if from_left:
        found.update(_walk(a, (d - np.conj(m12) * a) / m22, steps, from_left))
    if from_right:
        # the inverse steps, right to left: a mirror's with -zeta, a gap's with p and 1/p swapped
        back = [(-s, None) if q is None else (q, s) for s, q in reversed(steps)]
        found.update((last - j, pair) for j, pair in _walk((a + m12 * d) / m22, d, back, from_right).items())
    return [found[i] for i in wanted]


def _m22_and_derivative(stack: OpticalStack, omega: complex) -> tuple[complex, complex]:
    """m22 and dm22/domega at one complex ``omega``, from one forward-mode pass over the steps.

    The second column (m12, m22) and its derivative are carried together.
    Mirrors do not depend on omega; a gap maps (x, y) to (p*x, y/p) with
    p = e^{i*omega*l}, whose derivative adds (i*l*p*x, -i*l*y/p).
    """
    col, dcol = (0j, 1.0 + 0j), (0j, 0j)
    for e, step in zip(stack.elements, _steps(stack, omega)):
        dcol = _step(step, *dcol)
        col = _step(step, *col)
        if isinstance(e, Gap):
            il = 1j * e.length
            dcol = (dcol[0] + il * col[0], dcol[1] - il * col[1])
    return col[1], dcol[1]


# as in the boundary solve, the column overflows for large zeta: the finite check in the Newton loop names it
@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def transmission_poles(stack: OpticalStack, starts) -> np.ndarray:
    """The complex zeros of m22(omega), the stack's transmission poles, by Newton's method.

    Entry i is the pole reached from ``starts[i]``: its real part is the
    resonance frequency and minus its imaginary part the half width.  Each
    start iterates on its own until |step| <= 1e-15 * |omega|.  Raises
    PoleSearchError when m22 or its derivative overflows, when a start has
    not converged within ``_NEWTON_MAX_ITER`` steps or when two starts reach
    the same pole; the message holds no comma, so it fits a CSV cell.
    """
    starts = np.array(starts, dtype=complex)
    if starts.ndim != 1 or not np.all(np.isfinite(starts)):
        raise InvalidParameterError("pole search starts must be a finite 1-d sequence")
    if not any(isinstance(e, Gap) for e in stack.elements):
        raise InvalidParameterError("pole search needs a stack with a gap: without one m22 does not depend on omega")
    poles = np.empty_like(starts)
    for i, start in enumerate(starts.tolist()):
        omega = start
        for n in range(1, _NEWTON_MAX_ITER + 1):
            m22, dm22 = _m22_and_derivative(stack, omega)
            if not (cmath.isfinite(m22) and cmath.isfinite(dm22)):
                raise PoleSearchError(
                    f"pole search (Newton on m22): m22 or dm22/domega overflows at step {n} from start {i}"
                    f" at {start:.15g}; iterate {omega:.15g}"
                )
            step = m22 / dm22
            omega -= step
            if abs(step) <= _NEWTON_RTOL * abs(omega):
                break
        else:
            raise PoleSearchError(
                f"pole search (Newton on m22): start {i} at {start:.15g} did not converge"
                f" within {_NEWTON_MAX_ITER} steps; last iterate {omega:.15g}"
            )
        poles[i] = omega
    tolerance = _SAME_POLE_RTOL * np.abs(poles)
    distance = np.abs(poles[:, None] - poles[None, :])
    i, j = np.nonzero(np.triu(distance <= tolerance, 1))
    if i.size:
        i, j = i[0], j[0]
        raise PoleSearchError(
            f"pole search (distinct-pole check): starts {i} and {j} reached the same pole {poles[i]:.15g}:"
            f" they end {distance[i, j]:.3g} apart: below the tolerance {tolerance[j]:.3g}"
            f" ({_SAME_POLE_RTOL:g} |omega|) within which two poles count as one"
        )
    return poles
