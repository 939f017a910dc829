"""Plain-Python reference for the transfer-matrix engine: a two-sided boundary solve.

Written from the conventions in the ``cascavity.scattering`` docstring, on
complex scalars, without using the package's engine.  The amplitude pair
(A, B) of each region is solved from both ends at once: with L the product of
the elements left of the region and R the product of those right of it, the
drive fixes the incoming amplitudes on the far sides,

    (L^-1 (A, B))_1 = l22*A - l12*B = a_in,    (R (A, B))_2 = r21*A + r22*B = d_in,

using det L = 1.  No region is propagated forward through the reflective
stack, so the rounding of one region does not feed the next.
"""

import cmath

from cascavity import Mirror

_UNIT = ((1.0 + 0j, 0j), (0j, 1.0 + 0j))


def matrix(element, k, exp=cmath.exp):
    """2x2 matrix ((m11, m12), (m21, m22)) of one mirror or gap at wavenumber k.

    ``exp`` is the exponential used for the gap phase; ``mpmath.exp`` with an
    ``mpmath.mpc`` wavenumber evaluates the same stack at mpmath's precision.
    """
    if isinstance(element, Mirror):
        iz = 1j * element.zeta
        return ((1.0 + iz, iz), (-iz, 1.0 - iz))
    phase = exp(1j * k * element.length)
    return ((phase, 0j), (0j, 1.0 / phase))


def mul(a, b):
    (a11, a12), (a21, a22) = a
    (b11, b12), (b21, b22) = b
    return (
        (a11 * b11 + a12 * b21, a11 * b12 + a12 * b22),
        (a21 * b11 + a22 * b21, a21 * b12 + a22 * b22),
    )


def product(elements, k, exp=cmath.exp):
    """Left-to-right product: [X, Y] gives M(Y) @ M(X)."""
    total = _UNIT
    for e in elements:
        total = mul(matrix(e, k, exp), total)
    return total


def solve(stack, k, a_in, d_in, exp=cmath.exp):
    """(b_out, c_out, regions): the outgoing amplitudes and every region's (A, B), left to right."""
    elements = stack.elements
    regions = []
    for j in range(len(elements) + 1):
        (_, l12), (_, l22) = product(elements[:j], k, exp)
        (_, _), (r21, r22) = product(elements[j:], k, exp)
        det = l22 * r22 + l12 * r21
        regions.append(((a_in * r22 + l12 * d_in) / det, (l22 * d_in - r21 * a_in) / det))
    return regions[0][1], regions[-1][0], regions
