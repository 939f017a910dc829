import cmath
import math
import re

import mpmath
import numpy as np
import pytest

import cascavity.scattering
import scattering_oracle as oracle
from cascavity import (
    Gap,
    InvalidParameterError,
    Mirror,
    OpticalStack,
    PoleSearchError,
    SingularBoundaryError,
    build_cascade,
    build_single_cavity,
    compose,
    dark_mode_scan,
    default_omega_window,
    mirror_chain,
    mode_poles,
    region_amplitude_sweep,
    transmission_poles,
)


def transmission(stack, k):
    """Transmitted intensity |c_out/a_in|^2 = 1/|m22|^2 for a drive from the left."""
    return 1.0 / np.abs(compose(stack, k)[3]) ** 2


def boundary(stack, k, a_in, d_in):
    """(b_out, c_out, regions) from the engine."""
    regions = region_amplitude_sweep(stack, k, a_in, d_in)
    return regions[0][1], regions[-1][0], regions


def counted_walks(monkeypatch) -> list:
    """The arguments of every ``_walk`` call from here on, one entry per walk over the stack."""
    walks = []
    walk = cascavity.scattering._walk

    def counted(*args):
        walks.append(args)
        return walk(*args)

    monkeypatch.setattr(cascavity.scattering, "_walk", counted)
    return walks


def brute_force_peak(stack, lo, hi, samples=20001, tol=1e-13):
    """Golden-section refinement of the transmission maximum; the sweep oracle."""
    ks = np.linspace(lo, hi, samples)
    t = transmission(stack, ks)
    i = int(np.argmax(t))
    a, b = ks[max(i - 2, 0)], ks[min(i + 2, samples - 1)]
    gr = (math.sqrt(5) - 1) / 2
    c, d = b - gr * (b - a), a + gr * (b - a)
    fc = transmission(stack, c)
    fd = transmission(stack, d)
    while b - a > tol:
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - gr * (b - a)
            fc = transmission(stack, c)
        else:
            a, c, fc = c, d, fd
            d = a + gr * (b - a)
            fd = transmission(stack, d)
    k = 0.5 * (a + b)
    return k, float(transmission(stack, k))


class TestMirrorMatrix:
    """compose on a one-mirror stack is the mirror's own matrix."""

    def test_zero_polarizability_is_identity(self):
        m = compose(OpticalStack([Mirror(0.0)]), 1.0)
        assert m == (1 + 0j, 0j, 0j, 1 + 0j)

    def test_elements_at_zeta_5(self):
        # conjugate-consistent convention: the matrix that reproduces
        # r = i*zeta/(1 - i*zeta) under (C, D) = M (A, B)
        m11, m12, m21, m22 = compose(OpticalStack([Mirror(5.0)]), 1.0)
        assert m11 == 1 + 5j
        assert m12 == 5j
        assert m21 == -5j
        assert m22 == 1 - 5j

    def test_determinant_exactly_one(self):
        for zeta in (-3.0, 0.0, 0.7, 5.0, 50.0):
            m11, m12, m21, m22 = compose(OpticalStack([Mirror(zeta)]), 1.0)
            assert m11 * m22 - m12 * m21 == 1 + 0j

    def test_single_mirror_transmission_zeta_1(self):
        # analytic inversion of the boundary problem: c_out = t(1) = (1+i)/2
        _, c_out, _ = boundary(OpticalStack([Mirror(1.0)]), 1.0, 1.0, 0.0)
        assert c_out == pytest.approx((1 + 1j) / 2, abs=1e-15)
        assert abs(c_out) ** 2 == pytest.approx(0.5, abs=1e-15)

    def test_rejects_non_finite(self):
        with pytest.raises(InvalidParameterError):
            Mirror(math.inf)
        with pytest.raises(InvalidParameterError):
            Mirror(math.nan)


def mirror_r_t(zeta):
    """r and t of one mirror: the engine's b_out and c_out on ``mirror_chain(zeta)`` under the drive (1, 0)."""
    (_, b_out), (c_out, _) = region_amplitude_sweep(mirror_chain(zeta), 1.0, 1.0, 0.0)
    return complex(b_out), complex(c_out)


class TestReflectivityTransmissivity:
    def test_zeta_5_power_reflectivity(self):
        r, _ = mirror_r_t(5.0)
        assert abs(r) ** 2 == pytest.approx(25 / 26, rel=1e-14)

    def test_transparent_limit(self):
        r, t = mirror_r_t(0.0)
        assert r == 0
        assert t == 1

    def test_half_half_at_zeta_1(self):
        r, t = mirror_r_t(1.0)
        assert abs(r) ** 2 == pytest.approx(0.5, rel=1e-14)
        assert abs(t) ** 2 == pytest.approx(0.5, rel=1e-14)

    def test_matches_single_mirror_inversion(self):
        for zeta in (0.3, 1.0, 5.0, -2.0):
            r, t = mirror_r_t(zeta)
            assert r == pytest.approx(1j * zeta / (1 - 1j * zeta), abs=1e-15)
            assert t == pytest.approx(1 / (1 - 1j * zeta), abs=1e-15)

    def test_lossless_partition(self):
        for zeta in np.linspace(-100, 100, 401):
            r, t = mirror_r_t(zeta)
            assert abs(abs(r) ** 2 + abs(t) ** 2 - 1.0) < 1e-14


class TestPropagationMatrix:
    """compose on a one-gap stack is diag(e^{ikd}, e^{-ikd})."""

    def test_full_wavelength_is_identity(self):
        m11, m12, m21, m22 = compose(OpticalStack([Gap(1.0)]), 2 * math.pi)
        assert m11 == pytest.approx(1.0, abs=1e-15)
        assert m22 == pytest.approx(1.0, abs=1e-15)
        assert m12 == 0 and m21 == 0

    def test_half_wave_phase(self):
        m11, _, _, m22 = compose(OpticalStack([Gap(1.0)]), math.pi)
        assert m11 == pytest.approx(-1.0, abs=1e-15)
        assert m22 == pytest.approx(-1.0, abs=1e-15)

    def test_direct_evaluation(self):
        m11, _, _, m22 = compose(OpticalStack([Gap(0.5)]), 1.0)
        assert m11 == pytest.approx(np.exp(0.5j), abs=1e-15)
        assert m22 == pytest.approx(np.exp(-0.5j), abs=1e-15)

    def test_rejects_nonpositive_arguments(self):
        with pytest.raises(InvalidParameterError):
            compose(OpticalStack([Gap(1.0)]), 0.0)
        with pytest.raises(InvalidParameterError):
            Gap(-1.0)
        with pytest.raises(InvalidParameterError):
            Gap(0.0)


class TestCompose:
    def test_single_mirror(self):
        assert compose(OpticalStack([Mirror(5.0)]), 2.0) == (1 + 5j, 5j, -5j, 1 - 5j)

    def test_transparent_mirrors_reduce_to_gap(self):
        stack = OpticalStack([Mirror(0.0), Gap(0.7), Mirror(0.0)])
        m11, _, _, m22 = compose(stack, 3.1)
        assert m11 == pytest.approx(np.exp(3.1j * 0.7), abs=1e-15)
        assert m22 == pytest.approx(np.exp(-3.1j * 0.7), abs=1e-15)

    def test_left_to_right_order(self):
        # stack [X, Y] must compose as matrix(Y) @ matrix(X)
        k = 1.7
        p = np.exp(1j * k * 0.3)
        want = (p * (1 + 2j), p * 2j, -2j / p, (1 - 2j) / p)
        got = compose(OpticalStack([Mirror(2.0), Gap(0.3)]), k)
        for g, w in zip(got, want):
            assert g == pytest.approx(w, abs=1e-15)

    def test_symmetric_cavity_full_transmission_on_resonance(self):
        # brute-force scan for the transmission maximum of the lossless cavity
        stack = mirror_chain(5.0, 1.0)
        _, peak = brute_force_peak(stack, 10 * math.pi - 1.0, 10 * math.pi + 1.0)
        assert peak == pytest.approx(1.0, abs=1e-12)

    def test_empty_stack_is_identity(self):
        assert compose(OpticalStack([]), 1.0) == (1 + 0j, 0j, 0j, 1 + 0j)


class TestSolveBoundary:
    def test_single_mirror_recovers_r_and_t(self):
        b_out, c_out, _ = boundary(OpticalStack([Mirror(5.0)]), 1.0, 1.0, 0.0)
        assert b_out == pytest.approx(5j / (1 - 5j), abs=1e-15)
        assert c_out == pytest.approx(1 / (1 - 5j), abs=1e-15)

    def test_zero_drive_gives_zero_field(self):
        stack = mirror_chain(5.0, 1.0, 2.0)
        b_out, c_out, regions = boundary(stack, 4.0, 0.0, 0.0)
        assert b_out == 0 and c_out == 0
        assert all(right == 0 and left == 0 for right, left in regions)

    def test_flux_conservation_at_cascade_resonance(self):
        stack = mirror_chain(5.0, 1.0, 5.0, 1.0)
        k0, _ = brute_force_peak(stack, 31.4, 31.65)
        b_out, c_out, _ = boundary(stack, k0, 1.0, 0.0)
        flux = abs(b_out) ** 2 + abs(c_out) ** 2
        assert flux == pytest.approx(1.0, abs=1e-12)

    def test_linearity_in_the_drive(self):
        stack = mirror_chain(3.0, 1.0, 1.0)
        lam = 0.7 - 1.3j
        base = region_amplitude_sweep(stack, 9.4, 1.0, 0.5j)
        scaled = region_amplitude_sweep(stack, 9.4, lam, 0.5j * lam)
        for (a_right, a_left), (b_right, b_left) in zip(base, scaled):
            assert b_right == pytest.approx(lam * a_right, rel=1e-12)
            assert b_left == pytest.approx(lam * a_left, rel=1e-12)

    def test_region_continuity_forward_vs_backward(self):
        # recompute region amplitudes from the right boundary through inverse
        # matrices; both routes must agree
        stack = mirror_chain(5.0, 1.0, 5.0, 1.0)
        k, d_in = 31.6, 0.3 - 0.4j
        _, c_out, regions = boundary(stack, k, 1.0, d_in)
        right, left = regions[-1]
        assert right == c_out
        assert left == d_in
        for i in range(len(stack.elements) - 1, -1, -1):
            (m11, m12), (m21, m22) = oracle.matrix(stack.elements[i], k)
            right, left = m22 * right - m12 * left, -m21 * right + m11 * left  # det = 1
            assert right == pytest.approx(regions[i][0], abs=1e-9)
            assert left == pytest.approx(regions[i][1], abs=1e-9)


class TestFieldProfile:
    """The field of each homogeneous region; its intensity |A|^2 + |B|^2 is the same at every point inside it."""

    def test_free_space_unity_everywhere(self):
        ((right, left),) = region_amplitude_sweep(OpticalStack([]), 2.0, 1.0, 0.0)
        np.testing.assert_allclose(np.abs(right) ** 2 + np.abs(left) ** 2, 1.0, rtol=0, atol=1e-14)

    def test_intracavity_enhancement_on_resonance(self):
        zeta = 5.0
        stack = mirror_chain(zeta, 1.0)
        k0, _ = brute_force_peak(stack, 31.4, 31.8)
        ((right, left),) = region_amplitude_sweep(stack, k0, 1.0, 0.0, regions=[1])
        intensity = abs(right) ** 2 + abs(left) ** 2
        assert intensity > 1.0
        # forward amplitude oracle: |A|^2 = 1/|t_mirror|^2 at full transmission
        assert abs(right) ** 2 == pytest.approx(abs(1 - 1j * zeta) ** 2, rel=1e-9)
        assert intensity == pytest.approx(1 + 2 * zeta**2, rel=1e-9)

    def test_fiber_region_small_at_middle_resonance(self):
        # the middle cascade resonance barely excites the fiber region
        stack = mirror_chain(5.0, 1.0, 4.975023749892274, 1.0)
        omega_c = 10 * math.pi + math.atan2(1, 5.0)
        g = 1 / (2 * math.sqrt(4.975023749892274) * math.sqrt(26))
        ((right, left),) = region_amplitude_sweep(stack, [omega_c, omega_c + math.sqrt(2) * g], 1.0, 0.0, regions=[3])
        mid_fiber, side_fiber = np.abs(right) ** 2 + np.abs(left) ** 2
        assert mid_fiber < 0.1 * side_fiber


class TestStackGeometry:
    def test_boundary_positions_and_gap_regions(self):
        stack = mirror_chain(5.0, 1.0, 5.0, 1.0)
        assert stack.gap_region_indices() == [1, 3, 5]
        assert stack.mirror_count == 4

    def test_rejects_foreign_elements(self):
        with pytest.raises(InvalidParameterError):
            OpticalStack([Mirror(1.0), "gap"])


class TestEngineEdges:
    stack = mirror_chain(5.0, 1.0, 5.0, 1.0)
    ks = np.linspace(31.3, 31.9, 41)

    def test_right_side_drive(self):
        for k in (31.55, 31.6, 31.7):
            m11, m12, m21, m22 = compose(self.stack, k)
            b_out, c_out, regions = boundary(self.stack, k, 0.0, 1.0)
            assert regions[-1][0] == c_out == m12 / m22
            assert regions[-1][1] == 1.0
            want_b, want_c, _ = oracle.solve(self.stack, k, 0.0, 1.0)
            assert b_out == pytest.approx(want_b, rel=1e-12)
            assert c_out == pytest.approx(want_c, rel=1e-12)
            # reciprocity: the right drive is transmitted like the left one
            _, c_left, _ = boundary(self.stack, k, 1.0, 0.0)
            assert abs(b_out) == pytest.approx(abs(c_left), rel=1e-12)

    def test_drive_broadcast_matches_per_k_calls_bitwise(self):
        a_in = np.array([1.0, 0.0, 0.3 + 0.2j])
        d_in = np.array([0.0, 1.0, np.exp(0.5j)])
        batched = region_amplitude_sweep(self.stack, self.ks[:, None], a_in, d_in)
        assert batched[0][0].shape == (self.ks.size, 3)
        # one k per call, as a 1-element array: numpy's scalar arithmetic on
        # 0-d inputs may round the last bit differently from its array loops
        for i in range(self.ks.size):
            single = region_amplitude_sweep(self.stack, self.ks[i : i + 1], a_in, d_in)
            for (br, bl), (sr, sl) in zip(batched, single):
                assert np.array_equal(br[i], sr) and np.array_equal(bl[i], sl)

    def test_compose_is_shaped_like_k(self):
        grid = self.ks.reshape(1, -1, 1)
        assert all(m.shape == grid.shape for m in compose(self.stack, grid))
        assert all(m.shape == (2, 3) for m in compose(OpticalStack([Mirror(2.0)]), np.ones((2, 3))))

    def test_rejects_bad_wavenumbers_and_drives(self):
        for k in (np.array([1.0, -1.0]), np.nan, np.inf, 0.0):
            with pytest.raises(InvalidParameterError):
                region_amplitude_sweep(self.stack, k, 1.0, 0.0)
        for a_in, d_in in ((np.nan, 0.0), (1.0, complex(0.0, np.inf))):
            with pytest.raises(InvalidParameterError):
                region_amplitude_sweep(self.stack, 31.6, a_in, d_in)

    def test_singular_guard(self):
        # the second column grows like zeta**4 and overflows near zeta = 1.1e77
        ks = np.array([31.5, 31.6])
        for zeta in (1e100, -1e100):
            with pytest.raises(SingularBoundaryError, match=r"^boundary solve.* k = 31\.5 .*zeta = 1e\+100\)$"):
                region_amplitude_sweep(mirror_chain(zeta, 1.0, 5.0, 1.0), ks, 1.0, 0.0, regions=[-1])
        regions = region_amplitude_sweep(mirror_chain(1e76, 1.0, 5.0, 1.0), ks, 1.0, 0.0)
        assert all(np.isfinite(a).all() and np.isfinite(b).all() for a, b in regions)


class TestRegionSelection:
    stack = mirror_chain(5.0, 1.0, 5.0, 1.0)
    ks = np.linspace(31.3, 31.9, 41)
    drives = (np.array([1.0, 0.0, 0.3 + 0.2j]), np.array([0.0, 1.0, np.exp(0.5j)]))
    inputs = {
        "scalar": (stack, 31.6, 1.0, 0.3 - 0.4j),
        "1-d": (stack, ks, 1.0, 0.25j),
        "k x drive": (stack, ks[:, None], *drives),
        # not mirror-symmetric, so the walk from the right is a walk of its own
        "leading-gap-adjacent-mirrors": (
            OpticalStack([Gap(0.7), Mirror(3.0), Mirror(2.0), Gap(1.3), Mirror(3.0)]),
            ks[:, None],
            *drives,
        ),
    }

    @pytest.mark.parametrize("name", list(inputs))
    def test_selected_regions_match_the_full_sweep_bitwise(self, name):
        stack, k, a_in, d_in = self.inputs[name]
        full = region_amplitude_sweep(stack, k, a_in, d_in)
        n = len(full)
        for i in range(-n, n):
            ((right, left),) = region_amplitude_sweep(stack, k, a_in, d_in, regions=[i])
            assert np.array_equal(right, full[i][0]) and np.array_equal(left, full[i][1]), i
        picked = region_amplitude_sweep(stack, k, a_in, d_in, regions=[5, -1, 0, 1, 5])
        for i, (right, left) in zip([5, -1, 0, 1, 5], picked):
            assert np.array_equal(right, full[i][0]) and np.array_equal(left, full[i][1]), i
        assert region_amplitude_sweep(stack, k, a_in, d_in, regions=[]) == []

    def test_a_symmetric_stack_walks_once(self, monkeypatch):
        walks = counted_walks(monkeypatch)

        def count(stack, regions):
            walks.clear()
            region_amplitude_sweep(stack, self.ks, 1.0, 0.25j, regions=regions)
            return len(walks)

        assert [count(self.stack, regions) for regions in (None, [0], [-1], [])] == [1, 1, 1, 1]
        # an asymmetric chain walks from both ends, unless no region but the last is asked for
        chain = mirror_chain(5.0, 1.0, 3.0, 2.0, 3.0)
        assert [count(chain, regions) for regions in (None, [0], [-1], [])] == [2, 2, 1, 1]

    def test_empty_stack_has_one_region(self):
        ((right, left),) = region_amplitude_sweep(OpticalStack([]), 2.0, 1.0, 0.5, regions=[-1])
        assert right == 1.0 and left == 0.5

    @pytest.mark.parametrize("index", [8, -9, 100, 1.0, True, "1", None])
    def test_rejects_bad_indices(self, index):
        with pytest.raises(InvalidParameterError, match=f"region index {re.escape(repr(index))} .*8 regions"):
            region_amplitude_sweep(self.stack, 31.6, 1.0, 0.0, regions=[0, index])


class TestLargeZetaRegions:
    """Every region off resonance at large zeta, against the same double-valued stack at 150 digits.

    For a drive from one side, the incoming and reflected waves on that side
    nearly cancel inside the stack; a region propagated from there loses its
    digits (the fiber region under the drive (1, 0) was 2.4e17 off at
    zeta = 1e6).  The reference is ``scattering_oracle.solve`` with mpmath's
    exponential, so the only error left is the engine's own rounding.
    """

    grid = np.linspace(31.0, 32.0, 201)[::25]

    @pytest.mark.parametrize("zeta", [100.0, 1e4, 1e6])
    @pytest.mark.parametrize("drive", [(1.0, 0.0), (0.0, 1.0)], ids=["left", "right"])
    def test_every_region_matches_150_digit_solve(self, zeta, drive):
        stack = build_cascade(zeta, 1.0, 5.0, 10).stack
        regions = region_amplitude_sweep(stack, self.grid, *drive)
        with mpmath.workdps(150):
            for n, k in enumerate(self.grid):
                _, _, exact = oracle.solve(stack, mpmath.mpf(k), *drive, mpmath.exp)
                for i, ((right, left), (want_right, want_left)) in enumerate(zip(regions, exact)):
                    want = float(abs(want_right) ** 2 + abs(want_left) ** 2)
                    got = abs(right[n]) ** 2 + abs(left[n]) ** 2
                    assert abs(got - want) <= 1e-12 * want, (k, i)

    def test_dark_mode_map_matches_150_digit_solve(self):
        # the default darkmode window and phase grid; the error is relative to (|u| + |v|)^2, which bounds each row
        setup = build_cascade(1000.0, 1.0, 5.0, 10)
        omega = default_omega_window(setup, 401)
        phis = np.linspace(-3.14159, 3.14159, 181)
        scan = dark_mode_scan(setup.stack, omega, phis)
        with mpmath.workdps(150):
            for i in range(0, omega.size, 10):
                k = mpmath.mpf(omega[i])
                u = oracle.solve(setup.stack, k, 1, 0, mpmath.exp)[2][3]
                v = oracle.solve(setup.stack, k, 0, 1, mpmath.exp)[2][3]
                scale = (mpmath.sqrt(abs(u[0]) ** 2 + abs(u[1]) ** 2) + mpmath.sqrt(abs(v[0]) ** 2 + abs(v[1]) ** 2)) ** 2
                for j in range(0, phis.size, 9):
                    r = mpmath.exp(-1j * mpmath.mpf(phis[j]))
                    want = abs(u[0] + r * v[0]) ** 2 + abs(u[1] + r * v[1]) ** 2
                    assert abs(scan.intensity[i, j] - want) <= 1e-9 * scale, (i, j)


class TestTransmissionPoles:
    @pytest.mark.parametrize("zeta", [2.0, 5.0, 20.0, 200.0, 1000.0, 2000.0])
    def test_matches_50_digit_root_of_m22(self, zeta):
        setup = build_cascade(zeta, 1.0, 5.0, 10)
        kappa = setup.system.kappa
        starts = mode_poles(setup.system)
        poles = transmission_poles(setup.stack, starts)

        def m22(w):
            return oracle.product(setup.stack.elements, w, mpmath.exp)[1][1]

        with mpmath.workdps(50):
            for start, pole in zip(starts, poles):
                w0 = mpmath.mpc(start)
                exact = complex(mpmath.findroot(m22, (w0, w0 + 1e-3 * kappa)))
                assert abs(pole - exact) <= 1e-6 * kappa, (zeta, pole, exact)

    @pytest.mark.parametrize("zeta", [1.5, 5.0, 50.0])
    def test_symmetric_cavity_closed_form(self, zeta):
        # m22 = 0 gives e^{2i w l} = -(1 - i zeta)^2 / zeta^2
        length, n = 1.3, 7
        want = complex((n * math.pi + math.atan2(1.0, zeta)) / length, -math.log1p(zeta**-2) / (2 * length))
        (pole,) = transmission_poles(mirror_chain(zeta, length), [want.real - 0.3j / zeta**2])
        assert abs(pole - want) <= 1e-14 * abs(want)

    def test_returns_one_pole_per_start_in_order(self):
        setup = build_cascade(20.0, 1.0, 5.0, 10)
        starts = mode_poles(setup.system)
        poles = transmission_poles(setup.stack, starts[::-1])
        assert np.array_equal(poles[::-1], transmission_poles(setup.stack, starts))
        assert np.all(np.diff(transmission_poles(setup.stack, starts).real) > 0)

    def test_non_convergence_is_named(self, monkeypatch):
        setup = build_cascade(5.0, 1.0, 5.0, 10)
        monkeypatch.setattr(cascavity.scattering, "_NEWTON_MAX_ITER", 2)
        with pytest.raises(PoleSearchError, match="Newton on m22"):
            transmission_poles(setup.stack, mode_poles(setup.system))

    def test_same_pole_from_two_starts_is_named(self):
        setup = build_cascade(5.0, 1.0, 5.0, 10)
        lo, mid, _ = mode_poles(setup.system)
        with pytest.raises(PoleSearchError, match="same pole"):
            transmission_poles(setup.stack, [lo, mid, mid])

    def test_distinct_pole_check_names_the_first_pair(self):
        # pairs (0, 3) and (1, 2) both coincide: the lowest i is named first
        setup = build_cascade(5.0, 1.0, 5.0, 10)
        lo, mid, _ = mode_poles(setup.system)
        with pytest.raises(PoleSearchError, match="starts 0 and 3 reached the same pole"):
            transmission_poles(setup.stack, [lo, mid, mid, lo])

    @pytest.mark.parametrize("start", [31.5 - 1000j, 31.5 + 1000j])
    def test_overflowing_start_is_named(self, start):
        # e^{i*omega*l} overflows below the axis and underflows to 0 above it: on Python scalars cmath.exp raises
        # OverflowError and 1/p ZeroDivisionError, and either must reach the caller as the named overflow
        with pytest.raises(PoleSearchError, match="overflows at step 1 from start 0"):
            transmission_poles(build_cascade(5.0, 1.0, 5.0, 10).stack, [start])

    def test_newton_work_is_pinned(self, monkeypatch):
        # the ten zeta of the peaks-zeta benchmark from the coupled poles take 122 passes: a derivative that is
        # right but less accurate takes more; each pass walks the mirror-symmetric stack once
        walks = counted_walks(monkeypatch)
        passes = []
        derivative = cascavity.scattering._m22_and_derivative

        def counted(plan, omega):
            passes.append(omega)
            return derivative(plan, omega)

        monkeypatch.setattr(cascavity.scattering, "_m22_and_derivative", counted)
        for i in range(10):
            setup = build_cascade(2.0 * 500.0 ** (i / 9), 1.0, 5.0, 10)
            transmission_poles(setup.stack, mode_poles(setup.system))
        # each of the 30 starts takes at least one pass
        assert 30 <= len(passes) <= 122, len(passes)
        assert len(walks) == len(passes), (len(walks), len(passes))

    def test_rejects_a_stack_without_gaps(self):
        # m22 does not depend on omega, so Newton has no step to take
        for stack in (OpticalStack([]), OpticalStack([Mirror(2.0), Mirror(3.0)])):
            with pytest.raises(InvalidParameterError, match="gap"):
                transmission_poles(stack, [31.5 - 0.1j])

    def test_rejects_bad_starts(self):
        stack = mirror_chain(5.0, 1.0)
        for starts in ([complex(math.nan, 0.0)], [[31.5]], [math.inf]):
            with pytest.raises(InvalidParameterError):
                transmission_poles(stack, starts)


def _derivative_cases():
    for zeta in (2.0, 20.0, 2000.0):
        setup = build_cascade(zeta, 1.0, 5.0, 10)
        for pole in mode_poles(setup.system):
            yield pytest.param(setup.stack, complex(pole), id=f"cascade-{zeta:g}-{pole:.6f}")
            yield pytest.param(setup.stack, complex(pole.real), id=f"cascade-{zeta:g}-{pole.real:.6f}")
    stacks = {
        "chain-5-four-gaps": mirror_chain(5.0, 1.0, 3.0, 2.0, 3.0),
        "cavity-7": mirror_chain(7.0, 1.3),
        "leading-gap-adjacent-mirrors": OpticalStack([Gap(0.7), Mirror(3.0), Mirror(2.0), Gap(1.3), Mirror(3.0)]),
    }
    for name, stack in stacks.items():
        for omega in (31.5 - 0.01j, 31.5 + 0j):
            yield pytest.param(stack, omega, id=f"{name}-{omega}")


@pytest.mark.parametrize("stack, omega", _derivative_cases())
def test_m22_derivative_matches_50_digit_difference(stack, omega):
    # dm22/domega from the two walks against mpmath's numerical derivative of the oracle's m22; the worst case,
    # zeta = 2000, is 1.5e-11, while a sign slip or a wrong region index is off by order 1
    with mpmath.workdps(50):
        want = complex(mpmath.diff(lambda w: oracle.product(stack.elements, w, mpmath.exp)[1][1], mpmath.mpc(omega)))
    _, dm22 = cascavity.scattering._m22_and_derivative(cascavity.scattering._plan(stack), omega)
    assert abs(dm22 - want) <= 1e-10 * abs(want), (dm22, want)


def _one_walk_cases():
    for zeta in (2.0, 20.0, 2000.0):
        for alignment in ("resonant", "nominal"):
            stack = build_cascade(zeta, 1.0, 5.0, 10, fiber_alignment=alignment).stack
            yield pytest.param((stack,), True, id=f"cascade-{zeta:g}-{alignment}")
    yield pytest.param((build_single_cavity(20.0, 1.0, 10).stack,), True, id="single-cavity")
    palindrome = OpticalStack([Mirror(3.0), Gap(1.0), Mirror(5.0), Gap(1.0), Mirror(3.0)])
    yield pytest.param((palindrome,), True, id="unequal-mirror-palindrome")
    # not symmetric, though their steps compare equal reversed: a gap's index 0 == a zero mirror's 0j
    zero_mirror = (
        OpticalStack([Gap(1.0), Mirror(0.0)]),
        OpticalStack([Gap(1.0), Mirror(2.0), Gap(0.5), Mirror(2.0), Mirror(0.0)]),
    )
    yield pytest.param(zero_mirror, False, id="zero-mirror")


@pytest.mark.parametrize("stacks, symmetric", _one_walk_cases())
def test_one_walk_matches_two_walks_bitwise(stacks, symmetric, monkeypatch):
    # a mirror-symmetric stack takes its walk from the right from the walk from the left: every region under
    # the drives (1, 0), (0, 1) and a two-sided one, and m22 and dm22/domega, equal those of the two walks
    k = np.linspace(31.3, 31.9, 41)[:, None]
    a_in, d_in = np.array([1.0, 0.0, 1.0]), np.array([0.0, 1.0, 0.3 - 0.4j])
    plan, derivative = cascavity.scattering._plan, cascavity.scattering._m22_and_derivative
    for stack in stacks:
        assert plan(stack).symmetric is symmetric
        assert derivative(plan(stack), 31.5 - 0.01j) == derivative(plan(stack)._replace(symmetric=False), 31.5 - 0.01j)
        one = region_amplitude_sweep(stack, k, a_in, d_in)
        with monkeypatch.context() as patched:
            patched.setattr(cascavity.scattering, "_plan", lambda s: plan(s)._replace(symmetric=False))
            two = region_amplitude_sweep(stack, k, a_in, d_in)
        assert len(one) == len(two) == len(stack.elements) + 1
        for i, ((right, left), (want_right, want_left)) in enumerate(zip(one, two)):
            assert np.array_equal(right, want_right) and np.array_equal(left, want_left), i


def test_gap_phases_are_exp_within_an_ulp():
    # at real k each phase is written from cos and sin of l*k; it stays within one ulp of |p| = 1 of numpy's
    # exp(i*l*k) (bit-identical with some numpy builds, not promised by any), and its inverse is 1/p
    plan = cascavity.scattering._plan(mirror_chain(5.0, 1.0, 4.975024, 0.37))
    k = np.linspace(0.01, 400.0, 40001)
    phases = cascavity.scattering._phases(plan, k)
    assert len(phases) == 3
    for length, (p, q) in zip(plan.lengths, phases):
        want = np.exp(1j * length * k)
        assert p.shape == k.shape and p.dtype == complex
        assert np.max(np.abs(p.real - want.real)) <= np.spacing(1.0)
        assert np.max(np.abs(p.imag - want.imag)) <= np.spacing(1.0)
        assert np.array_equal(q, 1.0 / p)
    # a complex omega, in the pole search, takes cmath.exp on Python scalars
    ((p, q), *_) = cascavity.scattering._phases(plan, 31.5 - 0.01j)
    assert type(p) is complex and p == cmath.exp(1j * 1.0 * (31.5 - 0.01j)) and q == 1.0 / p


class TestRandomizedInvariants:
    """Smaller-scale randomized checks; the acceptance suite runs the full set."""

    def _random_stack(self, rng):
        n = rng.integers(1, 9)
        elems = []
        for _ in range(n):
            if rng.random() < 0.5:
                elems.append(Mirror(float(rng.uniform(0.5, 10.0))))
            else:
                elems.append(Gap(float(rng.uniform(0.05, 4.0))))
        return OpticalStack(elems)

    def test_flux_and_reciprocity(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            stack = self._random_stack(rng)
            k = float(rng.uniform(0.5, 30.0))
            a = complex(rng.normal(), rng.normal())
            d = complex(rng.normal(), rng.normal())
            # drives (a, d), (1, 0) and (0, 1) in one call
            b_out, c_out, _ = boundary(stack, k, np.array([a, 1.0, 0.0]), np.array([d, 0.0, 1.0]))
            flux_in = abs(a) ** 2 + abs(d) ** 2
            flux_out = abs(b_out[0]) ** 2 + abs(c_out[0]) ** 2
            assert abs(flux_in - flux_out) < 1e-12 * max(flux_in, 1.0)
            assert abs(abs(c_out[1]) ** 2 - abs(b_out[2]) ** 2) < 1e-12

    def test_compose_is_lossless(self):
        # one column is carried; the other must still be the full product's
        rng = np.random.default_rng(5)
        for _ in range(100):
            stack = self._random_stack(rng)
            ks = rng.uniform(0.5, 30.0, 5)
            m11, m12, m21, m22 = compose(stack, ks)
            assert np.array_equal(m11, np.conj(m22)) and np.array_equal(m21, np.conj(m12))
            for i, k in enumerate(ks):
                (w11, w12), (w21, w22) = oracle.product(stack.elements, float(k))
                scale = max(abs(w11), abs(w12))
                for got, want in ((m11, w11), (m12, w12), (m21, w21), (m22, w22)):
                    assert abs(got[i] - want) <= 1e-12 * scale

    def test_vectorized_sweep_matches_scalar_solve(self):
        rng = np.random.default_rng(11)
        stack = self._random_stack(rng)
        ks = np.linspace(1.0, 4.0, 7)
        sweep = transmission(stack, ks)
        regions = region_amplitude_sweep(stack, ks, 1.0, 0.25j)
        for i, k in enumerate(ks):
            _, one_sided, _ = oracle.solve(stack, float(k), 1.0, 0.0)
            assert sweep[i] == pytest.approx(abs(one_sided) ** 2, rel=1e-12)
            _, _, want = oracle.solve(stack, float(k), 1.0, 0.25j)
            for j, (right, left) in enumerate(want):
                assert regions[j][0][i] == pytest.approx(right, rel=1e-12, abs=1e-12)
                assert regions[j][1][i] == pytest.approx(left, rel=1e-12, abs=1e-12)
