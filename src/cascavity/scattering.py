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
  t = 1/(1 - i*zeta), the b_out and c_out of ``mirror_chain(zeta)`` under
  the drive (1, 0); |r|^2 + |t|^2 = 1 and t = 1 + r.
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
two exponentials, not three.  One walk takes these steps for every caller,
on arrays or, in the pole search, on Python complex scalars.

Every region is solved from both ends at once.  With L and R the products of
the elements left and right of a region, the drive fixes l22*A - l12*B = a_in
and r21*A + r22*B = d_in, a system of determinant m22 because every factor
has determinant exactly 1:

    A = (a_in * r22 + l12 * d_in) / m22,    B = (l22 * d_in - r21 * a_in) / m22

A walk of the steps from the left gives (l12, l22) at each region and
(m12, m22) at the last; a walk of the reversed steps gives (-r21, r22), since
each factor's transpose is J M J with J = diag(1, -1).  On a mirror-symmetric
stack, which every CLI geometry is, the reversed steps are the steps, so the
one walk from the left gives both: the pair at i steps is (l12, l22) of
region i and (-r21, r22) of region n - i.  So the a_in part of a
region is the transmitted wave (a_in/m22, 0) carried back through R and the
d_in part the wave (0, d_in/m22) carried through L: no amplitude is the small
difference of an incoming and a reflected wave, as it is in a region
propagated from the driven end, which off resonance at large zeta loses every
digit.  At the ends the solve gives b_out = (d_in - m21*a_in)/m22 and
c_out = (a_in + m12*d_in)/m22, free of the cancellation of the textbook
``c_out = m11*a_in + m12*b_out``, and keeps a_in and d_in exact.

The same walks, at a complex omega, give dm22/domega for the pole
search, one walk per Newton step on a symmetric stack.  A gap's factor
G = diag(p, 1/p), p = e^{i*omega*l}, has dG/domega = i*l*J*G, so the
derivative is a sum over gaps of
-i*l*(-r21*l12 + r22*l22) at the region right of each gap, from pairs the
walks already hold: no derivative is carried through the stack.
"""

from __future__ import annotations

import cmath
import itertools
import math
from dataclasses import dataclass
from typing import Iterable, NamedTuple, Sequence, Union

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

    @property
    def mirror_count(self) -> int:
        return sum(1 for e in self.elements if isinstance(e, Mirror))

    def gap_region_indices(self) -> list[int]:
        """Region indices whose amplitudes describe each gap interior, in order."""
        return [i for i, e in enumerate(self.elements) if isinstance(e, Gap)]


# ---------------------------------------------------------------------------
# Standard geometries


def mirror_chain(zeta: float, *gaps: float) -> OpticalStack:
    """Identical mirrors of polarizability ``zeta`` around the given gap lengths, left to right.

    ``mirror_chain(zeta)`` is a single mirror, ``mirror_chain(zeta, l)`` a
    two-mirror cavity.  Gap j's interior is region 2j + 1: regions 1, 3 and 5
    for the cavity-fiber-cavity chain ``mirror_chain(zeta, l_c, l_f, l_c)``.
    """
    elements = [Mirror(zeta)]
    for length in gaps:
        elements += [Gap(length), Mirror(zeta)]
    return OpticalStack(elements)


# ---------------------------------------------------------------------------
# The transfer-matrix engine.  Each call builds its stack's plan once: one op
# per element, a mirror's i*zeta or the index of a gap's length among the
# stack's distinct lengths, whose phase pair (e^{ikl}, e^{-ikl}) is evaluated
# once per k.


class _Plan(NamedTuple):
    """What every walk over one stack needs, and the gaps of the pole search."""

    ops: tuple  # per element: a mirror's complex i*zeta, or the int index of a gap's length in ``lengths``
    lengths: tuple[float, ...]  # the distinct gap lengths, in order of first appearance
    gaps: tuple[tuple[int, int, complex], ...]  # per gap: the region right of it, that region's stop from the right, i*l
    symmetric: bool  # the steps read the same reversed, so the walk from the right is the walk from the left


def _flags(stops) -> list[bool]:
    """The ``keep`` of a walk that keeps the pairs after j steps for each j in ``stops`` and stops at the last."""
    return [j in stops for j in range(1, max(stops, default=0) + 1)]


def _plan(stack: OpticalStack) -> _Plan:
    index, ops, gaps = {}, [], []
    last = len(stack.elements)
    for j, e in enumerate(stack.elements):
        if isinstance(e, Mirror):
            ops.append(1j * e.zeta)
        else:
            ops.append(index.setdefault(e.length, len(index)))
            gaps.append((j + 1, last - j - 1, 1j * e.length))
    # compared by repr, since == takes a gap's index 0 for a zero mirror's 0j, and Mirror(0.0)'s 0j for
    # Mirror(-0.0)'s (-0+0j), steps that differ in kind or in the sign of a zero
    steps = [repr(s) for s in ops]
    return _Plan(tuple(ops), tuple(index), tuple(gaps), steps == steps[::-1])


def _check_wavenumbers(k) -> np.ndarray:
    k = np.asarray(k, dtype=float)
    bad = k[~(np.isfinite(k) & (k > 0))]
    if bad.size:
        raise InvalidParameterError(f"wavenumber must be positive and finite, got {float(bad[0])!r}")
    return k


def _phases(plan: _Plan, k) -> list[tuple]:
    """(e^{ikl}, e^{-ikl}) per distinct gap length: from cos(kl) and sin(kl) at a real array ``k``, cmath at a complex."""
    phases = []
    for length in plan.lengths:
        if type(k) is complex:
            p = cmath.exp(1j * length * k)
        else:
            p = np.empty(np.shape(k), dtype=complex)
            p.real, p.imag = np.cos(length * k), np.sin(length * k)
        phases.append((p, 1.0 / p))
    return phases


def _walk(x, y, ops, phases, keep) -> list:
    """The pair (x, y) after j of ``ops`` at entry j, where ``keep[j - 1]`` flags it, else None; takes len(keep) steps.

    Entry 0 is the starting pair.  A mirror maps (x, y) to (x + w, y - w)
    with w = i*zeta*(x + y), a gap to (p*x, q*y) with (p, q) its entry in
    ``phases``.  Every step makes new values, so a pair once kept is never
    changed.  Arrays and Python scalars take the same path.
    """
    found = [(x, y)]
    for s, kept in zip(ops, keep):
        if type(s) is int:
            p, q = phases[s]
            x, y = p * x, q * y
        else:
            w = s * (x + y)
            x, y = x + w, y - w
        found.append((x, y) if kept else None)
    return found


def compose(stack: OpticalStack, k):
    """Entries (m11, m12, m21, m22) of the stack's transfer matrix, read-only arrays shaped like ``k``.

    The matrix is lossless: m11 = conj(m22) and m21 = conj(m12) exactly.
    """
    k = _check_wavenumbers(k)
    plan = _plan(stack)
    m12, m22 = _walk(0j, 1.0 + 0j, plan.ops, _phases(plan, k), _flags({len(plan.ops)}))[-1]
    entries = (np.conj(m22), m12, np.conj(m12), m22)
    return tuple(np.broadcast_to(np.asarray(m, dtype=complex), k.shape) for m in entries)


def region_amplitude_sweep(
    stack: OpticalStack, k, a_in, d_in, *, regions: Sequence[int] | None = None
) -> list[tuple[np.ndarray, np.ndarray]]:
    """Amplitude pair (A, B) of every region for incoming a_in (left) and d_in (right).

    ``k``, ``a_in`` and ``d_in`` broadcast together, and every returned array
    has their broadcast shape (the drive arrays are read-only views).  Region
    0 lies left of the stack and region i right of element i - 1, so the
    first pair is (a_in, b_out) and the last (c_out, d_in).  Each region is
    solved from both ends at once (module docstring), so every region keeps
    its digits off resonance at large zeta.  The walks run on the shape of
    ``k`` and only the solve on the drive's.  Linear in the drive.

    ``regions`` lists the region indices to return, in that order; negative
    indices count from the end and ``None`` means every region.  Only those
    regions are solved, and the walk from the right stops at the leftmost of
    them: the last region needs none.  A mirror-symmetric stack, as every
    CLI geometry is, takes its walk from the right from the walk from the left.
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
    plan = _plan(stack)
    phases = _phases(plan, k)
    last = count - 1
    left_stops, right_stops = {*wanted, last}, {last - i for i in wanted}
    if plan.symmetric:
        left_stops |= right_stops
    right_keep = _flags(right_stops)
    # |m22|^2 = 1 + |m12|^2 at real k, so m22 never vanishes, but the column overflows for
    # large zeta (near 1e77 for four mirrors)
    with np.errstate(over="ignore", invalid="ignore"):
        # (l12, l22) of the elements left of each region; at the last region (m12, m22)
        left = _walk(0j, 1.0 + 0j, plan.ops, phases, _flags(left_stops))
        # the reversed steps give (-r21, r22) of the elements right of each region; they are the steps of a
        # symmetric stack, and the last region's pair is where every walk starts
        if right_keep and not plan.symmetric:
            right = _walk(0j, 1.0 + 0j, plan.ops[::-1], phases, right_keep)
        else:
            right = left
    m12, m22 = left[last]
    bad = ~(np.isfinite(m12) & np.isfinite(m22))
    if bad.any():
        k_bad = float(np.broadcast_to(k, shape)[np.broadcast_to(bad, shape)][0])
        zeta = max(abs(e.zeta) for e in stack.elements if isinstance(e, Mirror))
        raise SingularBoundaryError(
            f"boundary solve: the transfer matrix overflows at k = {k_bad!r} (largest mirror zeta = {zeta!r})"
        )

    def solve(i):
        # l22*A - l12*B = a_in and r21*A + r22*B = d_in, whose determinant is m22 since det M = 1
        (l12, l22), (x, r22) = left[i], right[last - i]
        return (a if i == 0 else (a * r22 + l12 * d) / m22, d if i == last else (l22 * d + x * a) / m22)

    return [solve(i) for i in wanted]


def _m22_and_derivative(plan: _Plan, omega: complex) -> tuple[complex, complex]:
    """m22 and dm22/domega at a Python complex ``omega``, from the region solve's walks.

    A gap's factor G = diag(p, 1/p), p = e^{i*omega*l}, has dG/domega =
    i*l*J*G with J = diag(1, -1), so dM/domega is the sum over gaps of
    i*l * R J L, with L the product up to and including the gap and R the
    product right of it.  Its (2, 2) entry is -i*l*(x_R*l12 + r22*l22), with
    (l12, l22) from the walk from the left and (x_R, r22) = (-r21, r22) from
    the walk of the reversed steps, both at the region right of the gap; on
    a mirror-symmetric stack the one walk gives both.  At a Python complex
    the whole pass runs on Python scalars, so where numpy gives inf or nan
    it may raise OverflowError (``cmath.exp``) or ZeroDivisionError (a
    phase that underflows to 0).
    """
    phases = _phases(plan, omega)
    every = (True,) * len(plan.ops)  # on Python scalars, keeping every pair costs no memory worth sparing
    left = _walk(0j, 1.0 + 0j, plan.ops, phases, every)
    right = left if plan.symmetric else _walk(0j, 1.0 + 0j, plan.ops[::-1], phases, every)
    dm22 = 0j
    for region, stop, il in plan.gaps:
        (l12, l22), (x, r22) = left[region], right[stop]
        dm22 -= il * (x * l12 + r22 * l22)
    return left[-1][1], dm22


def transmission_poles(stack: OpticalStack, starts) -> np.ndarray:
    """The complex zeros of m22(omega), the stack's transmission poles, by Newton's method.

    Entry i is the pole reached from ``starts[i]``: its real part is the
    resonance frequency and minus its imaginary part the half width.  Each
    start iterates on its own, as one Python complex, until
    |step| <= 1e-15 * |omega|.  Raises PoleSearchError when m22 or its
    derivative overflows, when a start has not converged within
    ``_NEWTON_MAX_ITER`` steps or when two starts reach the same pole; the
    message holds no comma, so it fits a CSV cell.
    """
    starts = np.array(starts, dtype=complex)
    if starts.ndim != 1 or not np.all(np.isfinite(starts)):
        raise InvalidParameterError("pole search starts must be a finite 1-d sequence")
    plan = _plan(stack)
    if not plan.lengths:
        raise InvalidParameterError("pole search needs a stack with a gap: without one m22 does not depend on omega")
    poles = []
    for i, start in enumerate(starts.tolist()):
        omega = start
        for n in range(1, _NEWTON_MAX_ITER + 1):
            try:
                m22, dm22 = _m22_and_derivative(plan, omega)
                step = m22 / dm22
            except (OverflowError, ZeroDivisionError):  # Python scalars raise where numpy gave inf or nan
                m22 = dm22 = step = complex(math.nan, math.nan)
            if not (cmath.isfinite(m22) and cmath.isfinite(dm22)):
                raise PoleSearchError(
                    f"pole search (Newton on m22): m22 or dm22/domega overflows at step {n} from start {i}"
                    f" at {start:.15g}; iterate {omega:.15g}"
                )
            omega -= step
            if abs(step) <= _NEWTON_RTOL * abs(omega):
                break
        else:
            raise PoleSearchError(
                f"pole search (Newton on m22): start {i} at {start:.15g} did not converge"
                f" within {_NEWTON_MAX_ITER} steps; last iterate {omega:.15g}"
            )
        poles.append(omega)
    # the first coinciding pair by the lowest i, then the lowest j, is the one named
    for i, j in itertools.combinations(range(len(poles)), 2):
        distance, tolerance = abs(poles[i] - poles[j]), _SAME_POLE_RTOL * abs(poles[j])
        if distance <= tolerance:
            raise PoleSearchError(
                f"pole search (distinct-pole check): starts {i} and {j} reached the same pole {poles[i]:.15g}:"
                f" they end {distance:.3g} apart: below the tolerance {tolerance:.3g}"
                f" ({_SAME_POLE_RTOL:g} |omega|) within which two poles count as one"
            )
    return np.array(poles, dtype=complex)
