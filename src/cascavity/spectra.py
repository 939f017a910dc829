"""Sweeps, resonance extraction and model-vs-model comparison curves.

The comparison pipeline pairs a four-mirror stack with the matched
three-mode system.  By default the fiber gap is snapped to the nearest
length whose fiber resonance coincides exactly with the cavity resonance
(``fiber_alignment="resonant"``): the three-mode description assumes the
coupled resonators share a common resonance frequency, and a nominal
integer length ratio misses that condition by a detectable fraction of a
free spectral range at finite mirror reflectivity.  The nominal geometry
remains available via ``fiber_alignment="nominal"``.

Setups carry only the models (stack, mode system, matched parameters); the
drive is an argument of each sweep, field amplitudes for the scattering
model and complex pumps for the coupled model.

``peak_separation_delta`` compares the models' resonances as complex poles,
without a sweep, on the cascade its caller builds at each zeta (``delta``
builds it from the whole configured geometry, ``fiber_order`` included):
the coupled poles are the closed-form eigenvalues of the damped three-mode
matrix (``mode_poles``), and the scattering poles are the zeros of the
stack's m22, found by Newton's method from them (``transmission_poles``).
``find_peaks`` and ``lorentzian_fit`` remain for sampled spectra; scipy is
imported only inside ``lorentzian_fit``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .coupled import ModeSystem, _steady_state_arrays, mode_poles
from .errors import FitFailureError, InvalidParameterError, PoleSearchError
from .matching import (
    CascadedMatch,
    eta_from_input,
    g_from_geometry,
    kappa_from_geometry,
    match_cascaded,
    omega_c_from_geometry,
)
from .scattering import (
    OpticalStack,
    four_mirror_chain,
    region_amplitude_sweep,
    symmetric_cavity,
    transmission_poles,
)

DEFAULT_GRID_POINTS = 4001
DEFAULT_PROMINENCE = 1e-4


@dataclass(frozen=True)
class Spectrum:
    """Sampled curve of a nonnegative observable versus drive frequency."""

    x: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        x = np.asarray(self.x, dtype=float)
        v = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "values", v)
        if x.ndim != 1 or v.shape != x.shape:
            raise InvalidParameterError("spectrum requires matching 1-d grids")
        if x.size >= 2 and not np.all(np.diff(x) > 0):
            raise InvalidParameterError("sweep grid must be strictly increasing")
        if not np.all(np.isfinite(v)) or np.any(v < 0):
            raise InvalidParameterError("spectrum values must be finite and nonnegative")

    def __len__(self) -> int:
        return int(self.x.size)


@dataclass(frozen=True)
class Peak:
    """One resonance: center, Lorentzian half width, height, fit residual."""

    center: float
    half_width: float
    height: float
    fit_residual: float


@dataclass(frozen=True)
class PeakSet:
    peaks: tuple[Peak, ...]

    def __post_init__(self):
        centers = [p.center for p in self.peaks]
        if any(b <= a for a, b in zip(centers, centers[1:])):
            raise InvalidParameterError("peak centers must be strictly increasing")

    def __len__(self) -> int:
        return len(self.peaks)

    def centers(self) -> list[float]:
        return [p.center for p in self.peaks]


@dataclass(frozen=True)
class PhaseScan:
    """Fiber-region intensity on an (omega, phi) grid; intensity[i, j] ~ (omega_i, phi_j).

    Row i is exactly c0[i] + c1[i] * cos(phi - phi0[i]); see ``dark_mode_scan``.
    """

    omega_grid: np.ndarray
    phi_grid: np.ndarray
    intensity: np.ndarray
    c0: np.ndarray
    c1: np.ndarray
    phi0: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.omega_grid, dtype=float)
        p = np.asarray(self.phi_grid, dtype=float)
        i = np.asarray(self.intensity, dtype=float)
        object.__setattr__(self, "omega_grid", w)
        object.__setattr__(self, "phi_grid", p)
        object.__setattr__(self, "intensity", i)
        if i.shape != (w.size, p.size):
            raise InvalidParameterError("intensity grid shape must match the omega and phi grids")
        if not np.all(np.isfinite(i)) or np.any(i < 0):
            raise InvalidParameterError("intensities must be finite and nonnegative")


@dataclass(frozen=True)
class SinusoidFit:
    """values ~ c0 + c1 * cos(phi - phi0), with the largest absolute residual."""

    c0: float
    c1: float
    phi0: float
    max_residual: float


# ---------------------------------------------------------------------------
# Sweeps


def _check_grid(omega_grid) -> np.ndarray:
    grid = np.asarray(omega_grid, dtype=float)
    if grid.ndim != 1 or grid.size < 1:
        raise InvalidParameterError("sweep grid must be a nonempty 1-d array")
    if np.any(~np.isfinite(grid)) or np.any(grid <= 0):
        raise InvalidParameterError("sweep frequencies must be positive and finite")
    if grid.size >= 2 and not np.all(np.diff(grid) > 0):
        raise InvalidParameterError("sweep grid must be strictly increasing")
    return grid


def sweep_scattering(stack: OpticalStack, omega_grid, a_in: complex = 1.0, d_in: complex = 0.0) -> Spectrum:
    """Transmitted intensity |c_out|^2 / |a_in|^2 versus drive frequency (k = omega); needs a_in != 0."""
    if a_in == 0:
        raise InvalidParameterError("transmitted intensity is normalised by |a_in|^2; a_in must be nonzero")
    grid = _check_grid(omega_grid)
    ((c_out, _),) = region_amplitude_sweep(stack, grid, a_in, d_in, regions=[-1])
    return Spectrum(grid, np.abs(c_out) ** 2 / abs(complex(a_in)) ** 2)


def sweep_coupled(system: ModeSystem, omega_grid, eta_l: complex, eta_r: complex = 0.0) -> Spectrum:
    """Detected flux kappa * |beta|^2 versus drive frequency for complex pumps eta_l (on a), eta_r (on b)."""
    grid = _check_grid(omega_grid)
    _, beta, _ = _steady_state_arrays(system, grid, eta_l, eta_r)
    return Spectrum(grid, system.kappa * np.abs(beta) ** 2)


# ---------------------------------------------------------------------------
# Peak extraction


def _parabolic_vertex(x0, x1, x2, y0, y1, y2):
    """Vertex abscissa/ordinate of the parabola through three points."""
    dl, dr = x0 - x1, x2 - x1
    num = dl * dl * (y1 - y2) - dr * dr * (y1 - y0)
    den = dl * (y1 - y2) - dr * (y1 - y0)
    # a maximum has negative curvature, hence den < 0; anything else is
    # degenerate and keeps the grid point
    if den >= 0:
        return x1, y1
    shift = 0.5 * num / den
    if not (min(dl, dr) <= shift <= max(dl, dr)):
        return x1, y1
    # value at the vertex from the Lagrange form
    xv = x1 + shift
    l0 = (xv - x1) * (xv - x2) / ((x0 - x1) * (x0 - x2))
    l1 = (xv - x0) * (xv - x2) / ((x1 - x0) * (x1 - x2))
    l2 = (xv - x0) * (xv - x1) / ((x2 - x0) * (x2 - x1))
    return xv, y0 * l0 + y1 * l1 + y2 * l2


def _refine_peak(x: np.ndarray, v: np.ndarray, i: int) -> tuple[float, float]:
    """Refine a grid maximum by parabolic interpolation on log values."""
    if v[i - 1] > 0 and v[i] > 0 and v[i + 1] > 0:
        xv, logy = _parabolic_vertex(
            x[i - 1], x[i], x[i + 1], math.log(v[i - 1]), math.log(v[i]), math.log(v[i + 1])
        )
        return xv, math.exp(logy)
    return _parabolic_vertex(x[i - 1], x[i], x[i + 1], v[i - 1], v[i], v[i + 1])


def _prominence(v: np.ndarray, i: int) -> float:
    """Topographic prominence: height above the higher of the two key saddles."""
    higher = np.flatnonzero(v > v[i])
    k = int(np.searchsorted(higher, i))
    lo = higher[k - 1] + 1 if k > 0 else 0
    hi = higher[k] if k < higher.size else v.size
    return v[i] - max(v[lo : i + 1].min(), v[i:hi].min())


def _half_max_width(x: np.ndarray, v: np.ndarray, i: int, height: float) -> float:
    """Half width at half maximum estimated from linear-interpolated crossings."""
    target = 0.5 * height
    left = right = None
    for j in range(i, 0, -1):
        if v[j - 1] <= target <= v[j]:
            frac = (v[j] - target) / (v[j] - v[j - 1])
            left = x[j] - frac * (x[j] - x[j - 1])
            break
    for j in range(i, len(v) - 1):
        if v[j + 1] <= target <= v[j]:
            frac = (v[j] - target) / (v[j] - v[j + 1])
            right = x[j] + frac * (x[j + 1] - x[j])
            break
    if left is not None and right is not None:
        w = 0.5 * (right - left)
    elif left is not None:
        w = x[i] - left
    elif right is not None:
        w = right - x[i]
    else:
        w = float(np.mean(np.diff(x))) if len(x) > 1 else 1.0
    return max(w, 1e-300)


def find_peaks(spectrum: Spectrum, min_prominence: float = DEFAULT_PROMINENCE) -> PeakSet:
    """Local maxima refined by log-parabolic interpolation.

    Candidates are runs of equal samples strictly above both neighbouring
    runs (a plateau counts once, at its leftmost point; a run at either end
    never counts) whose topographic prominence reaches ``min_prominence``
    times the global maximum.  Widths are half-maximum crossing estimates;
    use ``lorentzian_fit`` for refined parameters.
    """
    x, v = spectrum.x, spectrum.values
    if len(v) < 3:
        raise InvalidParameterError("peak finding needs at least 3 samples")
    vmax = float(v.max())
    if vmax <= 0.0:
        return PeakSet(())
    threshold = min_prominence * vmax
    starts = np.flatnonzero(np.r_[True, v[1:] != v[:-1]])
    runs = v[starts]
    tops = np.flatnonzero((runs[1:-1] > runs[:-2]) & (runs[1:-1] > runs[2:])) + 1
    peaks = []
    for k in tops:
        i = starts[k]
        if _prominence(v, i) < threshold:
            continue
        if starts[k + 1] - i > 1:
            # plateau: the tie resolves to its leftmost point
            center, height = float(x[i]), float(v[i])
        else:
            center, height = _refine_peak(x, v, i)
        peaks.append(Peak(center, _half_max_width(x, v, i, v[i]), height, 0.0))
    return PeakSet(tuple(peaks))


def _lorentzian(params, x):
    h, w, x0, base = params
    return h * w * w / ((x - x0) ** 2 + w * w) + base


def lorentzian_fit(spectrum: Spectrum, window: tuple[float, float]) -> Peak:
    """Least-squares Lorentzian-plus-baseline fit over an x-window.

    The window must contain at least 7 samples and bracket the maximum
    (the largest windowed value may not sit on the window edge).  Iterates
    until the relative parameter change drops below 1e-10, at most 200
    iterations; non-convergence raises FitFailureError carrying the best
    iterate.
    """
    # imported here: scipy.optimize dominates the package's import time
    from scipy.optimize import least_squares

    lo, hi = float(window[0]), float(window[1])
    if not lo < hi:
        raise InvalidParameterError(f"invalid fit window ({lo}, {hi})")
    mask = (spectrum.x >= lo) & (spectrum.x <= hi)
    x = spectrum.x[mask]
    v = spectrum.values[mask]
    if x.size < 7:
        raise InvalidParameterError(f"fit window holds {x.size} samples; need at least 7")
    imax = int(np.argmax(v))
    if imax in (0, x.size - 1):
        raise InvalidParameterError("fit window does not bracket the maximum")

    base0 = float(v.min())
    center0, height0 = _refine_peak(x, v, imax)
    h0 = max(height0 - base0, 1e-300)
    w0 = _half_max_width(x, v - base0, imax, float(v[imax] - base0))
    p0 = np.array([h0, w0, center0, base0])

    result = least_squares(
        lambda p: _lorentzian(p, x) - v,
        p0,
        xtol=1e-10,
        ftol=1e-15,
        gtol=1e-15,
        max_nfev=200,
    )
    h, w, x0, base = result.x
    w = abs(w)
    residual = float(np.sqrt(np.mean(result.fun**2)))
    best = Peak(float(x0), float(w), float(h), residual)
    if not result.success:
        raise FitFailureError(f"Lorentzian fit did not converge: {result.message}", best=best)
    if not (h > 0 and w > 0 and lo <= x0 <= hi and w < (hi - lo)):
        raise FitFailureError(
            f"Lorentzian fit left the admissible region (h={h:.3g}, w={w:.3g}, x0={x0:.6g})",
            best=best,
        )
    return best


# ---------------------------------------------------------------------------
# Matched-model construction


@dataclass(frozen=True)
class CascadeSetup:
    """A mirror stack paired with its matched mode system.

    ``match`` is the cascaded parameter set, or None for the single cavity.
    """

    stack: OpticalStack
    system: ModeSystem
    match: CascadedMatch | None = None


def build_cascade(
    zeta: float,
    l_c: float,
    l_f: float,
    n_c: int,
    n_f: int | None = None,
    *,
    fiber_alignment: str = "resonant",
) -> CascadeSetup:
    """Build the four-mirror stack and the matched mode system for one geometry.

    ``fiber_alignment="resonant"`` snaps the fiber gap to the common-resonance
    length nearest the nominal ``l_f`` and sets omega_f = omega_c exactly;
    ``"nominal"`` keeps ``l_f`` and the geometric (detuned) fiber frequency.
    """
    if fiber_alignment not in ("resonant", "nominal"):
        raise InvalidParameterError(f"unknown fiber_alignment {fiber_alignment!r}")
    match = match_cascaded(zeta, l_c, l_f, n_c, n_f)
    if fiber_alignment == "resonant":
        l_f_used, omega_f = match.resonant_fiber_length, match.omega_c
    else:
        l_f_used, omega_f = l_f, match.omega_f
    system = ModeSystem(match.omega_c, omega_f, g_from_geometry(zeta, l_c, l_f_used), match.kappa)
    return CascadeSetup(four_mirror_chain(zeta, l_c, l_f_used), system, match)


def build_single_cavity(zeta: float, l_c: float, n_c: int) -> CascadeSetup:
    """Symmetric two-mirror cavity paired with the matched single-mode model (g = 0).

    The single driven cavity embeds into the three-mode template as the
    measured mode b (the detected flux is kappa * |beta|^2), so its pump
    enters as eta_r.
    """
    kappa = kappa_from_geometry(zeta, l_c)
    omega_c = omega_c_from_geometry(zeta, l_c, n_c)
    return CascadeSetup(symmetric_cavity(zeta, l_c), ModeSystem(omega_c, omega_c, 0.0, kappa))


def default_omega_window(setup, points: int = DEFAULT_GRID_POINTS) -> np.ndarray:
    """Default sweep grid: omega_c +- 3*sqrt(2)*g (or +-6*kappa for g = 0)."""
    if points < 2:
        raise InvalidParameterError(f"grid needs at least 2 points, got {points}")
    system = setup.system
    half = 3.0 * math.sqrt(2.0) * system.g if system.g > 0 else 6.0 * system.kappa
    return np.linspace(system.omega_c - half, system.omega_c + half, points)


# ---------------------------------------------------------------------------
# Comparison operations


@dataclass(frozen=True)
class DeltaEntry:
    """Resonance poles of both models at one zeta, each triple sorted by real part.

    A pole's real part is the resonance frequency and minus its imaginary
    part the half width.  The deltas are side-to-middle distances of the
    poles' real parts, scattering minus coupled.  After a failed pole search
    ``error`` names zeta and the stage and the scattering poles are NaN, so
    every delta is NaN.
    """

    zeta: float
    kappa: float
    scattering_poles: tuple[complex, complex, complex]
    coupled_poles: tuple[complex, complex, complex]
    error: str | None = None

    @property
    def delta_left(self) -> float:
        (s_lo, s_mid, _), (c_lo, c_mid, _) = self.scattering_poles, self.coupled_poles
        return (s_mid - s_lo).real - (c_mid - c_lo).real

    @property
    def delta_right(self) -> float:
        (_, s_mid, s_hi), (_, c_mid, c_hi) = self.scattering_poles, self.coupled_poles
        return (s_hi - s_mid).real - (c_hi - c_mid).real

    @property
    def delta_mean(self) -> float:
        return 0.5 * (self.delta_left + self.delta_right)


def peak_separation_delta(zeta_grid: Sequence[float], setup_at: Callable[[float], CascadeSetup]) -> list[DeltaEntry]:
    """Side-to-middle resonance distances, scattering minus coupled, per zeta.

    ``setup_at(zeta)`` returns the cascade at each zeta.  The coupled
    resonances are the closed-form ``mode_poles`` of its matched system; the
    scattering resonances are its stack's ``transmission_poles``, found by
    Newton's method from them.  No frequency grid is involved.  A failed pole
    search produces an entry with an error message; the loop continues.
    """
    entries = []
    for zeta in zeta_grid:
        if not zeta > 1:
            raise InvalidParameterError(f"peak separation needs zeta > 1, got {zeta!r}")
        setup = setup_at(zeta)
        coupled = mode_poles(setup.system)
        try:
            poles, error = np.sort_complex(transmission_poles(setup.stack, coupled)), None
        except PoleSearchError as exc:
            poles, error = np.full(3, complex(math.nan, math.nan)), f"zeta={zeta!r}: {exc}"
        entries.append(DeltaEntry(zeta, setup.match.kappa, tuple(complex(p) for p in poles), coupled, error))
    return entries


@dataclass(frozen=True)
class ComparisonCurves:
    """Intracavity intensities versus drive frequency, both models, both cavities."""

    omega: np.ndarray
    scattering_left: np.ndarray
    scattering_right: np.ndarray
    coupled_left: np.ndarray
    coupled_right: np.ndarray


def intensity_comparison(setup: CascadeSetup, omega_grid) -> ComparisonCurves:
    """Left/right cavity intensities for a unit left-side drive, in both models.

    Scattering curves are |A|^2 + |B|^2 of the cavity gap regions with
    a_in = 1; coupled curves are the photon numbers |alpha|^2, |beta|^2 with
    the matched drive eta_l = sqrt(kappa).
    """
    grid = _check_grid(omega_grid)
    gap_regions = setup.stack.gap_region_indices()
    left, right = region_amplitude_sweep(setup.stack, grid, 1.0, 0.0, regions=[gap_regions[0], gap_regions[2]])
    scat_left = np.abs(left[0]) ** 2 + np.abs(left[1]) ** 2
    scat_right = np.abs(right[0]) ** 2 + np.abs(right[1]) ** 2
    alpha, beta, _ = _steady_state_arrays(setup.system, grid, eta_from_input(setup.system.kappa, 1.0), 0.0)
    return ComparisonCurves(
        omega=grid,
        scattering_left=scat_left,
        scattering_right=scat_right,
        coupled_left=np.abs(alpha) ** 2,
        coupled_right=np.abs(beta) ** 2,
    )


def dark_mode_scan(stack: OpticalStack, omega_grid, phi_grid) -> PhaseScan:
    """Fiber-region intensity for drives a_in = 1, d_in = e^{-i*phi} on an (omega, phi) grid.

    The fiber field is u + e^{-i*phi} v, with u from drive (1, 0) and v from (0, 1),
    so c0 = |u|^2 + |v|^2, c1 = 2|<u, v>| and phi0 = arg <u, v>: two solves, no fit.
    """
    gaps = stack.gap_region_indices()
    if stack.mirror_count != 4 or len(gaps) != 3:
        raise InvalidParameterError("dark-mode scan requires a four-mirror, three-gap stack")
    grid = _check_grid(omega_grid)
    phis = np.asarray(phi_grid, dtype=float)
    if phis.ndim != 1 or phis.size < 1 or not np.all(np.isfinite(phis)):
        raise InvalidParameterError("phase grid must be a finite 1-d array")
    # column 0 of each (omega, 2) array is u, column 1 is v
    ((a_f, b_f),) = region_amplitude_sweep(stack, grid[:, None], [1, 0], [0, 1], regions=[gaps[1]])
    r = np.exp(-1j * phis)
    intensity = np.abs(a_f[:, :1] + r * a_f[:, 1:]) ** 2 + np.abs(b_f[:, :1] + r * b_f[:, 1:]) ** 2
    c0 = np.sum(np.abs(a_f) ** 2 + np.abs(b_f) ** 2, axis=1)
    s = np.conj(a_f[:, 0]) * a_f[:, 1] + np.conj(b_f[:, 0]) * b_f[:, 1]
    return PhaseScan(grid, phis, intensity, c0, 2.0 * np.abs(s), np.angle(s))


def sinusoid_fit(phi, values) -> SinusoidFit:
    """Linear least squares of values on {1, cos(phi), sin(phi)}.

    Requires at least 5 samples covering at least one full period.  Constant
    (rank-deficient) data returns c1 = 0, phi0 = 0 by convention.  Tests hold
    the closed form of ``dark_mode_scan`` to this fit.
    """
    phi = np.asarray(phi, dtype=float)
    v = np.asarray(values, dtype=float)
    if phi.ndim != 1 or phi.shape != v.shape:
        raise InvalidParameterError("phase grid and values must be matching 1-d arrays")
    if phi.size < 5:
        raise InvalidParameterError(f"sinusoid fit needs at least 5 samples, got {phi.size}")
    span = float(phi.max() - phi.min())
    # accept both endpoint-inclusive and endpoint-free grids over one period
    if span * phi.size / (phi.size - 1) < 2.0 * math.pi - 1e-9:
        raise InvalidParameterError("phase samples must cover at least one full period")
    basis = np.column_stack([np.ones_like(phi), np.cos(phi), np.sin(phi)])
    coef, _, rank, _ = np.linalg.lstsq(basis, v, rcond=None)
    if rank < 3:
        c0 = float(np.mean(v))
        return SinusoidFit(c0, 0.0, 0.0, float(np.max(np.abs(v - c0))))
    c0, bc, bs = (float(c) for c in coef)
    c1 = math.hypot(bc, bs)
    # effectively constant data: snap to the rank-deficiency convention
    if c1 <= 1e-14 * max(abs(c0), float(np.max(np.abs(v))), 1e-300):
        return SinusoidFit(c0, 0.0, 0.0, float(np.max(np.abs(v - c0))))
    phi0 = math.atan2(bs, bc)
    residual = float(np.max(np.abs(basis @ coef - v)))
    return SinusoidFit(c0, c1, phi0, residual)
