import cmath
import math

import numpy as np
import pytest

import fit_oracle
from cascavity import InvalidParameterError, ModeSystem, SingularSystemError, mode_poles
from cascavity.coupled import _steady_state_arrays


def make_system(**overrides):
    params = dict(omega_c=10.0, omega_f=10.0, g=0.1, kappa=0.05)
    params.update(overrides)
    return ModeSystem(**params)


def solve_at(system, omega, eta_l, eta_r=0.0):
    """The engine at one drive frequency, as Python complex numbers."""
    return tuple(complex(x[0]) for x in _steady_state_arrays(system, [omega], eta_l, eta_r))


class TestSteadyState:
    def test_decoupled_resonant_cavity(self):
        sys = make_system(g=0.0, kappa=0.5)
        alpha, beta, gamma = solve_at(sys, 10.0, 1.0)
        assert alpha == pytest.approx(-1j * 1.0 / 0.5, abs=1e-15)
        assert abs(alpha) ** 2 == pytest.approx(1.0 / 0.5**2, rel=1e-14)
        assert beta == 0 and gamma == 0

    def test_lorentzian_line_of_the_decoupled_cavity(self):
        kappa = 1.0
        sys = make_system(g=0.0, kappa=kappa, omega_c=10.0)
        omega = np.linspace(7.0, 13.0, 501)
        alpha, _, _ = _steady_state_arrays(sys, omega, 1.0, 0.0)
        line = kappa * np.abs(alpha) ** 2
        expected = kappa / ((omega - 10.0) ** 2 + kappa**2)
        assert np.max(np.abs(line - expected)) < 1e-12

    def test_dark_fiber_mode_under_antisymmetric_pumping(self):
        for g in (0.02, 0.1, 0.7):
            for omega in (9.5, 10.0, 10.3):
                _, _, gamma = solve_at(make_system(g=g), omega, 0.8, 0.8 * cmath.exp(-1j * math.pi))
                assert abs(gamma) < 1e-14

    def test_degenerate_fiber_convention(self):
        # g = 0 with the drive on resonance with the fiber: gamma = 0 by convention
        sys = make_system(g=0.0, omega_f=10.0)
        assert solve_at(sys, 10.0, 1.0)[2] == 0

    def test_drive_linearity(self):
        # superposition: the solve under (p_l, p_r) is the sum of the one-sided solves,
        # to 1e-15 of the largest |l| + |r| on the grid (alpha, beta are differences
        # s -+ d, so a pointwise relative bound fails where they cancel)
        sys = make_system()
        omega = np.linspace(9.6, 10.4, 801)
        p_l, p_r = 0.4 - 0.1j, 0.3 * cmath.exp(-0.7j)
        both = _steady_state_arrays(sys, omega, p_l, p_r)
        left = _steady_state_arrays(sys, omega, p_l, 0.0)
        right = _steady_state_arrays(sys, omega, 0.0, p_r)
        for x, l, r in zip(both, left, right):
            assert np.max(np.abs(x - (l + r))) <= 1e-15 * np.max(np.abs(l) + np.abs(r))

    def test_pump_swap_symmetry(self):
        fwd = solve_at(make_system(), 9.8, 0.7, 0.2)
        rev = solve_at(make_system(), 9.8, 0.2, 0.7)
        assert fwd[0] == rev[1]
        assert fwd[1] == rev[0]
        assert fwd[2] == rev[2]

    def test_validation(self):
        with pytest.raises(InvalidParameterError):
            make_system(kappa=0.0)
        with pytest.raises(InvalidParameterError):
            make_system(g=-0.1)
        with pytest.raises(InvalidParameterError):
            make_system(omega_f=math.nan)

    @pytest.mark.parametrize("pumps", [(math.nan, 0.0), (1.0, complex(0.0, math.inf)), (math.inf, 1.0)])
    def test_non_finite_pump_rejected(self, pumps):
        with pytest.raises(InvalidParameterError, match="pump"):
            _steady_state_arrays(make_system(), [10.0], *pumps)

    def test_singular_system(self):
        # 2*g**2 underflows to 0.0, so at omega = omega_c = omega_f the 2x2 block's determinant is exactly 0
        with pytest.raises(SingularSystemError, match=r"omega = 10\.0: 2\*g\*\*2 underflows to 0\.0 for g = 1e-200"):
            _steady_state_arrays(ModeSystem(10.0, 10.0, 1e-200, 0.1), [10.0], 1, 0)


class TestPhotocurrent:
    # the detected flux behind the right cavity: kappa * |beta|^2
    def test_no_drive_no_current(self):
        sys = make_system()
        assert sys.kappa * abs(solve_at(sys, 10.0, 0.0, 0.0)[1]) ** 2 == 0.0

    def test_decoupled_right_drive_on_resonance(self):
        # analytic solve of the beta equation: kappa*|beta|^2 = eta^2/kappa
        eta, kappa = 0.6, 0.25
        sys = make_system(g=0.0, kappa=kappa)
        pump = eta * cmath.exp(-0.4j)
        on = kappa * abs(solve_at(sys, sys.omega_c, 0.0, pump)[1]) ** 2
        assert on == pytest.approx(eta**2 / kappa, rel=1e-13)
        detuned = kappa * abs(solve_at(sys, sys.omega_c + kappa, 0.0, pump)[1]) ** 2
        assert detuned == pytest.approx(0.5 * eta**2 / kappa, rel=1e-13)

    def test_three_peaks_for_matched_cascade(self):
        from cascavity import build_cascade, default_omega_window, find_peaks, sweep_coupled

        setup = build_cascade(5.0, 1.0, 5.0, 10)
        spec = sweep_coupled(setup.system, default_omega_window(setup, 2001), math.sqrt(setup.system.kappa))
        assert len(find_peaks(spec)) == 3


class TestEigenfrequencies:
    def test_two_mode_matches_scattering_splitting(self):
        # oracle: brute-force peak pair of the three-mirror transmission, split by 2g
        from cascavity import sweep_scattering, three_mirror_chain
        from cascavity.spectra import find_peaks

        zeta = 5.0
        g = 1 / (2 * math.sqrt(26))
        omega_c = 10 * math.pi + math.atan2(1, zeta)
        grid = np.linspace(omega_c - 3 * g, omega_c + 3 * g, 4001)
        spec = sweep_scattering(three_mirror_chain(zeta, 1.0, 1.0), grid)
        found = find_peaks(spec)
        assert len(found) == 2
        lo_fit, hi_fit = fit_oracle.fit_peaks(spec, found)
        assert (hi_fit.center - lo_fit.center) == pytest.approx(2 * g, rel=0.01)

    def test_eigenfrequencies_predict_photocurrent_peaks(self):
        # good-cavity regime: fitted peak centers sit at the real parts of the poles
        from cascavity import find_peaks, sweep_coupled

        sys = make_system(g=0.2, kappa=0.004)
        lo, mid, hi = (p.real for p in mode_poles(sys))
        grid = np.linspace(lo - 0.1, hi + 0.1, 6001)
        spec = sweep_coupled(sys, grid, 0.06)
        fitted = fit_oracle.fit_peaks(spec, find_peaks(spec))
        assert len(fitted) == 3
        for center, want in zip([p.center for p in fitted], (lo, mid, hi)):
            assert center == pytest.approx(want, abs=0.1 * sys.kappa)


class TestModePoles:
    def test_matches_dense_eigensolver(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            wc, wf = rng.uniform(0.5, 20.0, 2)
            g, kappa = rng.uniform(0.0, 2.0), rng.uniform(1e-6, 1.0)
            poles = mode_poles(make_system(omega_c=wc, omega_f=wf, g=g, kappa=kappa))
            dense = np.linalg.eigvals(np.array([[wc - 1j * kappa, 0, g], [0, wc - 1j * kappa, g], [g, g, wf]]))
            assert np.allclose(poles, np.sort_complex(dense), rtol=1e-12, atol=1e-12)
            assert poles[0].real <= poles[1].real <= poles[2].real
            assert complex(wc, -kappa) in poles  # antisymmetric cavity mode, exactly

    def test_resonant_cascade_closed_form(self):
        # omega_f = omega_c: omega_c - i kappa/2 +- sqrt(2 g^2 - kappa^2/4)
        system = make_system(omega_c=10.0, omega_f=10.0, g=0.1, kappa=0.05)
        lo, mid, hi = mode_poles(system)
        split = math.sqrt(2 * 0.1**2 - 0.025**2)
        assert mid == complex(10.0, -0.05)
        assert lo == pytest.approx(complex(10.0 - split, -0.025), rel=1e-15)
        assert hi == pytest.approx(complex(10.0 + split, -0.025), rel=1e-15)

    def test_lossless_limit_is_the_eigenfrequencies(self):
        system = make_system(omega_c=10.0, omega_f=9.7, g=0.2, kappa=1e-12)
        poles = mode_poles(system)
        lossless = np.linalg.eigvalsh(np.array([[10.0, 0, 0.2], [0, 10.0, 0.2], [0.2, 0.2, 9.7]]))
        assert [p.real for p in poles] == pytest.approx(lossless, rel=1e-12)
