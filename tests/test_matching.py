import math
import re

import numpy as np
import pytest

from cascavity import (
    InvalidParameterError,
    g_from_geometry,
    kappa_from_geometry,
    match_cascaded,
    mirror_chain,
    nearest_order,
    omega_c_from_geometry,
    resonance_phase,
)
from test_scattering import brute_force_peak, transmission


def half_width_by_bisection(stack, k_peak, kappa_guess):
    """HWHM of the brute-force transmission line; independent of any fit."""
    t_half = 0.5 * transmission(stack, k_peak)

    def width(side):
        lo, hi = k_peak, k_peak + side * 20 * kappa_guess
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if transmission(stack, mid) > t_half:
                lo = mid
            else:
                hi = mid
        return abs(0.5 * (lo + hi) - k_peak)

    return 0.5 * (width(+1) + width(-1))


class TestKappa:
    def test_direct_values(self):
        assert kappa_from_geometry(5.0, 1.0) == pytest.approx(1 / (10 * math.sqrt(26)), rel=1e-14)
        assert kappa_from_geometry(1.0, 1.0) == pytest.approx(1 / (2 * math.sqrt(2)), rel=1e-14)

    def test_perfect_mirror_limit(self):
        assert kappa_from_geometry(1e8, 1.0) < 1e-15

    def test_matches_brute_force_half_width(self):
        for zeta, tol in ((5.0, 0.01), (20.0, 0.001)):
            stack = mirror_chain(zeta, 1.0)
            kappa = kappa_from_geometry(zeta, 1.0)
            k0, _ = brute_force_peak(stack, 10 * math.pi - 1.0, 10 * math.pi + 1.0)
            hwhm = half_width_by_bisection(stack, k0, kappa)
            assert hwhm == pytest.approx(kappa, rel=tol)

    def test_monotone_decreasing_in_zeta(self):
        values = [kappa_from_geometry(z, 1.0) for z in (0.5, 1.0, 2.0, 5.0, 20.0, 100.0)]
        assert all(b < a for a, b in zip(values, values[1:]))

    def test_length_scaling(self):
        for lam in (0.5, 2.0, 7.3):
            assert kappa_from_geometry(4.0, lam) == pytest.approx(
                kappa_from_geometry(4.0, 1.0) / lam, rel=1e-14
            )

    def test_domain(self):
        with pytest.raises(InvalidParameterError):
            kappa_from_geometry(0.0, 1.0)
        with pytest.raises(InvalidParameterError):
            kappa_from_geometry(-2.0, 1.0)
        with pytest.raises(InvalidParameterError):
            kappa_from_geometry(5.0, 0.0)

    @pytest.mark.parametrize("zeta, l_c", [(1e160, 1.0), (1e-200, 1e-200), (1e-160, 1e-160)])
    def test_outside_the_float_range_names_zeta(self, zeta, l_c):
        # kappa would be 0.0 (zeta*zeta overflows), a zero division, or inf
        with pytest.raises(InvalidParameterError, match=re.escape(f"zeta = {zeta!r} and l_c = {l_c!r}")):
            kappa_from_geometry(zeta, l_c)


class TestOmegaC:
    def test_zeta_one_order_ten(self):
        assert omega_c_from_geometry(1.0, 1.0, 10) == pytest.approx(10 * math.pi + math.pi / 4, rel=1e-14)

    def test_phase_term_is_arccot(self):
        assert resonance_phase(5.0) == pytest.approx(math.atan(1 / 5), rel=1e-14)
        # continuous through zeta = 1, decreasing toward 0 for strong mirrors
        phases = [resonance_phase(z) for z in (0.2, 0.9, 1.0, 1.1, 5.0, 50.0)]
        assert all(b < a for a, b in zip(phases, phases[1:]))
        assert 0 < phases[-1] < 0.03
        assert phases[0] < math.pi / 2

    def test_matches_brute_force_maximum(self):
        # oracle: location of the two-mirror transmission maximum
        fsr = math.pi
        for zeta in (2.0, 5.0, 20.0):
            n = 10
            predicted = omega_c_from_geometry(zeta, 1.0, n)
            k0, _ = brute_force_peak(mirror_chain(zeta, 1.0), n * math.pi - 1.5, n * math.pi + 1.5)
            assert abs(k0 - predicted) < 1e-4 * fsr

    def test_length_scaling(self):
        assert omega_c_from_geometry(5.0, 2.0, 10) == pytest.approx(
            omega_c_from_geometry(5.0, 1.0, 10) / 2.0, rel=1e-14
        )

    def test_nearest_order(self):
        target = omega_c_from_geometry(5.0, 1.0, 17)
        assert nearest_order(5.0, 1.0, target) == 17
        assert nearest_order(5.0, 1.0, target + 0.4 * math.pi) == 17
        assert nearest_order(5.0, 1.0, target + 0.6 * math.pi) == 18

    def test_domain(self):
        with pytest.raises(InvalidParameterError):
            omega_c_from_geometry(-1.0, 1.0, 10)
        with pytest.raises(InvalidParameterError):
            omega_c_from_geometry(5.0, 1.0, 0)
        with pytest.raises(InvalidParameterError):
            omega_c_from_geometry(5.0, 1.0, 2.5)


class TestEta:
    def test_peak_photocurrent_matches_scattering_peak(self):
        # the coupled model's port rate, eta = sqrt(kappa)*A, makes the two single-cavity peak transmissions equal
        from cascavity import ModeChain, sweep_coupled

        zeta, a_in = 5.0, 1.0
        kappa = kappa_from_geometry(zeta, 1.0)
        omega_c = omega_c_from_geometry(zeta, 1.0, 10)
        cavity = ModeChain((omega_c,), (), kappa)
        (coupled_peak,) = sweep_coupled(cavity, [omega_c], a_in).values
        _, scattering_peak = brute_force_peak(mirror_chain(zeta, 1.0), omega_c - 1, omega_c + 1)
        assert coupled_peak == pytest.approx(scattering_peak * a_in**2, rel=1e-9)


class TestCouplingRate:
    def test_equal_lengths(self):
        assert g_from_geometry(5.0, 1.0, 1.0) == pytest.approx(1 / (2 * math.sqrt(26)), rel=1e-14)

    def test_perfect_mirror_limit(self):
        assert g_from_geometry(1e9, 1.0, 1.0) < 1e-9

    def test_cascade_pairing_value(self):
        assert g_from_geometry(5.0, 1.0, 5.0) == pytest.approx(
            1 / (2 * math.sqrt(5) * math.sqrt(26)), rel=1e-14
        )

    @pytest.mark.parametrize("zeta,l2,tol", [(5.0, 1.0, 0.01), (20.0, 1.0, 0.01), (20.0, 5.0, 0.01)])
    def test_matches_brute_force_splitting(self, zeta, l2, tol):
        # oracle: half the splitting of the three-mirror transmission doublet,
        # with l2 snapped to share the resonance of the unit-length cavity
        phase = resonance_phase(zeta)
        omega_c = 10 * math.pi + phase
        n2 = round((l2 * omega_c - phase) / math.pi)
        l2_aligned = (n2 * math.pi + phase) / omega_c
        stack = mirror_chain(zeta, 1.0, l2_aligned)
        g = g_from_geometry(zeta, 1.0, l2_aligned)
        lo, _ = brute_force_peak(stack, omega_c - 2 * g, omega_c - 0.2 * g)
        hi, _ = brute_force_peak(stack, omega_c + 0.2 * g, omega_c + 2 * g)
        assert (hi - lo) == pytest.approx(2 * g, rel=tol)

    def test_length_scaling(self):
        assert g_from_geometry(3.0, 2.0, 2.0) == pytest.approx(
            g_from_geometry(3.0, 1.0, 1.0) / 2.0, rel=1e-14
        )

    def test_domain(self):
        with pytest.raises(InvalidParameterError):
            g_from_geometry(0.0, 1.0, 1.0)
        with pytest.raises(InvalidParameterError):
            g_from_geometry(5.0, -1.0, 1.0)


class TestMatchCascaded:
    def test_identical_geometry_needs_no_detuning(self):
        match = match_cascaded(5.0, 1.0, 1.0, 10, 10)
        assert match.omega_f == match.omega_c
        assert match.fiber_detuning == 0.0
        assert match.fiber_order_in_range

    def test_reference_parameter_set(self):
        match = match_cascaded(5.0, 1.0, 5.0, 10)
        assert match.kappa == pytest.approx(0.019612, abs=1e-6)
        assert match.omega_c == pytest.approx(10 * math.pi + math.atan2(1, 5), rel=1e-14)
        assert match.g == pytest.approx(0.0438529, abs=1e-6)
        assert match.fiber_order == 50
        assert match.fiber_detuning == pytest.approx(-4 * math.atan2(1, 5) / 5, rel=1e-12)
        assert match.fiber_order_in_range
        assert match.resonant_fiber_length == pytest.approx(4.975024, abs=1e-6)

    def test_explicit_fiber_order(self):
        match = match_cascaded(5.0, 1.0, 5.0, 10, 51)
        assert match.fiber_order == 51
        assert not match.fiber_order_in_range

    def test_side_splitting_matches_eigenfrequency_oracle(self):
        from cascavity import ModeChain, mode_poles

        match = match_cascaded(5.0, 1.0, 5.0, 10)
        poles = mode_poles(ModeChain((match.omega_c,) * 3, (match.g, match.g), match.kappa))
        assert complex(match.omega_c, -match.kappa) in poles
        split = 2 * math.sqrt(2 * match.g**2 - match.kappa**2 / 4)
        assert (poles[2] - poles[0]).real == pytest.approx(split, rel=1e-12)

    def test_domain(self):
        with pytest.raises(InvalidParameterError):
            match_cascaded(5.0, 1.0, 5.0, 10, 0)
        with pytest.raises(InvalidParameterError):
            match_cascaded(-5.0, 1.0, 5.0, 10)
