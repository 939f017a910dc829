import cmath
import math
import tracemalloc

import mpmath
import numpy as np
import pytest

import cascavity.scattering
import cascavity.spectra
import fit_oracle
import peaks_oracle
import scattering_oracle as oracle
from cascavity import (
    FitFailureError,
    InvalidParameterError,
    Spectrum,
    build_cascade,
    build_single_cavity,
    dark_mode_scan,
    default_omega_window,
    find_peaks,
    intensity_comparison,
    lorentzian_fit,
    mirror_chain,
    omega_c_from_geometry,
    kappa_from_geometry,
    mode_poles,
    peak_separation_delta,
    sinusoid_fit,
    sweep_coupled,
    sweep_scattering,
    OpticalStack,
)


def lorentzian(x, h, w, x0, base=0.0):
    return h * w * w / ((x - x0) ** 2 + w * w) + base


class TestSpectrumType:
    def test_rejects_unsorted_grid(self):
        with pytest.raises(InvalidParameterError):
            Spectrum([1.0, 1.0, 2.0], [0.0, 0.0, 0.0])

    def test_rejects_negative_values(self):
        with pytest.raises(InvalidParameterError):
            Spectrum([1.0, 2.0], [0.5, -0.5])

    def test_rejects_non_finite(self):
        with pytest.raises(InvalidParameterError):
            Spectrum([1.0, 2.0], [0.5, math.inf])


class TestSweeps:
    def test_empty_stack_flat_unit_transmission(self):
        spec = sweep_scattering(OpticalStack([]), np.linspace(1.0, 2.0, 11))
        assert np.all(spec.values == 1.0)

    def test_transmission_builds_no_unread_region(self):
        # the last region needs no walk from the right, only the running column (m12, m22)
        setup = build_cascade(5.0, 1.0, 5.0, 10)
        grid = default_omega_window(setup, 200001)
        tracemalloc.start()
        try:
            sweep_scattering(setup.stack, grid)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 12 * 16 * grid.size, peak / (16 * grid.size)

    def test_single_cavity_peak_at_matched_frequency(self):
        # fitted center against the closed-form resonance position
        zeta = 5.0
        setup = build_single_cavity(zeta, 1.0, 10)
        spec = sweep_scattering(setup.stack, default_omega_window(setup, 2001))
        (peak,) = fit_oracle.fit_peaks(spec, find_peaks(spec))
        assert peak.center == pytest.approx(omega_c_from_geometry(zeta, 1.0, 10), abs=1e-6)
        assert peak.height == pytest.approx(1.0, abs=1e-3)

    def test_cascade_has_three_peaks(self):
        setup = build_cascade(5.0, 1.0, 5.0, 10)
        spec = sweep_scattering(setup.stack, default_omega_window(setup, 3001))
        assert len(find_peaks(spec)) == 3

    def test_single_sided_transmission_bounded_by_one(self):
        setup = build_cascade(5.0, 1.0, 5.0, 10)
        spec = sweep_scattering(setup.stack, default_omega_window(setup, 3001))
        assert np.all(spec.values <= 1.0 + 1e-12)
        assert np.all(spec.values >= 0.0)

    def test_coupled_single_lorentzian_height(self):
        setup = build_single_cavity(5.0, 1.0, 10)
        spec = sweep_coupled(setup.system, default_omega_window(setup, 1001), 1.0)
        assert spec.values.max() == pytest.approx(1.0, rel=1e-6)

    def test_coupled_middle_peak_exactly_at_omega_c(self):
        setup = build_cascade(5.0, 1.0, 5.0, 10)
        spec = sweep_coupled(setup.system, default_omega_window(setup, 4001), 1.0)
        peaks = fit_oracle.fit_peaks(spec, find_peaks(spec))
        assert len(peaks) == 3
        mid = peaks[1]
        assert mid.center == pytest.approx(setup.match.omega_c, abs=1e-7)

    def test_dark_drive_kills_fiber_but_not_cavities(self):
        from cascavity.coupled import _steady_state_arrays

        setup = build_cascade(5.0, 1.0, 5.0, 10)
        grid = default_omega_window(setup, 301)
        alpha, gamma, beta = _steady_state_arrays(setup.system, grid, 1.0, cmath.exp(-1j * math.pi))
        assert np.max(np.abs(gamma)) < 1e-14
        assert np.max(np.abs(alpha)) > 1.0  # cavity observables survive

    def test_zero_left_drive_rejected(self):
        # the transmitted intensity is normalised by |a_in|^2
        setup = build_cascade(5.0, 1.0, 5.0, 10)
        with pytest.raises(InvalidParameterError, match="a_in"):
            sweep_scattering(setup.stack, default_omega_window(setup, 101), 0.0, 1.0)

    def test_grid_validation(self):
        stack = mirror_chain(5.0, 1.0)
        with pytest.raises(InvalidParameterError):
            sweep_scattering(stack, np.array([2.0, 1.0]))
        with pytest.raises(InvalidParameterError):
            sweep_scattering(stack, np.array([-1.0, 1.0]))


class TestFindPeaks:
    def test_flat_spectrum_has_no_peaks(self):
        spec = Spectrum(np.linspace(1, 2, 50), np.ones(50))
        assert len(find_peaks(spec)) == 0

    def test_synthetic_lorentzian_center_recovery(self):
        # off-grid center so the parabolic refinement actually has work to do
        w, x0 = 0.01, 5.000137
        x = np.linspace(4.8, 5.2, 801)  # 20 points per half width
        spec = Spectrum(x, lorentzian(x, 2.0, w, x0))
        (peak,) = find_peaks(spec).peaks
        assert abs(peak.center - x0) < 1e-3 * w
        assert peak.half_width == pytest.approx(w, rel=0.05)

    def test_plateau_resolves_to_leftmost_point(self):
        x = np.linspace(0.0, 1.0, 11)
        v = np.array([0, 1, 2, 3, 3, 3, 2, 1, 0, 0, 0], dtype=float)
        (peak,) = find_peaks(Spectrum(x, v)).peaks
        assert peak.center == pytest.approx(x[3])

    def test_prominence_filter(self):
        x = np.linspace(0, 1, 201)
        big = lorentzian(x, 1.0, 0.02, 0.3)
        small = lorentzian(x, 1e-3, 0.01, 0.75)
        spec = Spectrum(x, big + small)
        assert len(find_peaks(spec, min_prominence=1e-2)) == 1
        assert len(find_peaks(spec, min_prominence=1e-4)) == 2

    def test_needs_three_points(self):
        with pytest.raises(InvalidParameterError):
            find_peaks(Spectrum([1.0, 2.0], [0.0, 1.0]))

    def test_matches_sample_walk(self):
        # repeated levels make plateaus, inside and at either end of the grid;
        # half the spectra add bumps of ~1e-4 of the maximum
        rng = np.random.default_rng(20140430)
        for _ in range(400):
            n = int(rng.integers(3, 40))
            levels = rng.integers(0, 5, n) + rng.choice([0.0, 1e-3]) * rng.random(n)
            v = np.repeat(levels, rng.integers(1, 4, n))
            v = np.r_[np.full(rng.integers(0, 3), v[0]), v, np.full(rng.integers(0, 3), v[-1])]
            if v.max() == 0:
                continue
            x = np.linspace(1.0, 2.0, v.size)
            for prominence in (0.0, 1e-4, 0.3):
                assert find_peaks(Spectrum(x, v), prominence) == peaks_oracle.find_peaks(x, v, prominence)


class TestLorentzianFit:
    def test_exact_model_recovered(self):
        x = np.linspace(-1, 1, 201)
        h, w, x0, base = 2.5, 0.07, 0.1, 0.3
        spec = Spectrum(x, lorentzian(x, h, w, x0, base))
        peak = lorentzian_fit(spec, (-1.0, 1.0))
        assert peak.center == pytest.approx(x0, rel=1e-8)
        assert peak.half_width == pytest.approx(w, rel=1e-8)
        assert peak.height == pytest.approx(h, rel=1e-8)
        assert peak.fit_residual < 1e-10

    def test_high_finesse_width_matches_closed_form(self):
        zeta = 20.0
        kappa = kappa_from_geometry(zeta, 1.0)
        omega_c = omega_c_from_geometry(zeta, 1.0, 10)
        grid = np.linspace(omega_c - 4 * kappa, omega_c + 4 * kappa, 1601)
        spec = sweep_scattering(mirror_chain(zeta, 1.0), grid)
        peak = lorentzian_fit(spec, (grid[0], grid[-1]))
        assert peak.half_width == pytest.approx(kappa, rel=1e-3)

    def test_low_finesse_width_deviates(self):
        # documents the Lorentzian approximation breaking down at low zeta:
        # the relative width error grows by orders of magnitude from 20 to 2
        deviations = {}
        for zeta in (2.0, 5.0, 20.0):
            kappa = kappa_from_geometry(zeta, 1.0)
            omega_c = omega_c_from_geometry(zeta, 1.0, 10)
            grid = np.linspace(omega_c - 4 * kappa, omega_c + 4 * kappa, 1601)
            spec = sweep_scattering(mirror_chain(zeta, 1.0), grid)
            peak = lorentzian_fit(spec, (grid[0], grid[-1]))
            deviations[zeta] = abs(peak.half_width / kappa - 1.0)
        assert deviations[2.0] > 1e-3
        assert deviations[2.0] > 10 * deviations[5.0]
        assert deviations[5.0] > 10 * deviations[20.0]

    def test_window_must_hold_seven_points(self):
        x = np.linspace(0, 1, 101)
        spec = Spectrum(x, lorentzian(x, 1, 0.1, 0.5))
        with pytest.raises(InvalidParameterError):
            lorentzian_fit(spec, (0.49, 0.52))

    def test_window_must_bracket_maximum(self):
        x = np.linspace(0, 1, 101)
        spec = Spectrum(x, lorentzian(x, 1, 0.1, 0.9))
        with pytest.raises(InvalidParameterError):
            lorentzian_fit(spec, (0.0, 0.5))

    def test_failure_carries_best_iterate(self):
        # a peak far wider than the window cannot produce an admissible width
        x = np.linspace(-1e-3, 1e-3, 51)
        spec = Spectrum(x, lorentzian(x, 1.0, 5.0, 0.0))
        with pytest.raises(FitFailureError) as exc_info:
            lorentzian_fit(spec, (x[0], x[-1]))
        assert exc_info.value.best is not None


def _error_entry(zeta, stage):
    """Assert a recorded pole-search failure: the message names zeta and the stage, no number survives."""
    (entry,) = peak_separation_delta([zeta], lambda z: build_cascade(z, 1.0, 5.0, 10))
    assert f"zeta={zeta!r}" in entry.error and stage in entry.error
    assert all(math.isnan(v) for v in (entry.delta_left, entry.delta_right, entry.delta_mean))
    assert all(math.isnan(p.real) and math.isnan(p.imag) for p in entry.scattering_poles)
    return entry


class TestPeakSeparationDelta:
    def test_reference_zeta_values(self):
        entries = peak_separation_delta([3.0, 5.0], lambda z: build_cascade(z, 1.0, 5.0, 10))
        assert all(e.error is None for e in entries)
        assert abs(entries[1].delta_mean) < abs(entries[0].delta_mean)
        # symmetric configuration: both sides carry the same delta
        for e in entries:
            assert e.delta_left == pytest.approx(e.delta_right, abs=1e-6)

    def test_rejects_small_zeta(self):
        with pytest.raises(InvalidParameterError):
            peak_separation_delta([0.8], lambda z: build_cascade(z, 1.0, 5.0, 10))

    def test_nominal_alignment_resolves(self):
        # the fitted peaks of this configuration merged; its poles stay distinct
        (entry,) = peak_separation_delta([5.0], lambda z: build_cascade(z, 1.0, 5.0, 10, fiber_alignment="nominal"))
        assert entry.error is None
        assert entry.delta_mean / entry.kappa == pytest.approx(-0.0133, abs=5e-4)

    def test_non_convergence_records_error(self, monkeypatch):
        monkeypatch.setattr(cascavity.scattering, "_NEWTON_MAX_ITER", 1)
        entry = _error_entry(5.0, "Newton on m22")
        # the coupled poles are the chain's eigenvalues, untouched by the Newton search
        assert entry.coupled_poles == mode_poles(build_cascade(5.0, 1.0, 5.0, 10).system)

    def test_duplicate_pole_records_error(self, monkeypatch):
        def equal_starts(chain):
            return (complex(chain.omegas[0], -chain.kappa),) * 3

        monkeypatch.setattr(cascavity.spectra, "mode_poles", equal_starts)
        _error_entry(5.0, "same pole")

    def test_delta_falls_monotonically_with_zeta(self):
        entries = peak_separation_delta([5.0, 20.0, 200.0, 1000.0, 2000.0], lambda z: build_cascade(z, 1.0, 5.0, 10))
        ratios = [e.delta_mean / e.kappa for e in entries]
        assert all(e.error is None for e in entries)
        assert all(b < a for a, b in zip(ratios, ratios[1:])), ratios

    def test_delta_scales_as_kappa_over_zeta(self):
        # delta_mean * zeta / kappa is 0.2299 from zeta = 200 to 2000
        entries = peak_separation_delta([200.0, 1000.0, 2000.0], lambda z: build_cascade(z, 1.0, 5.0, 10))
        scaled = [e.delta_mean * e.zeta / e.kappa for e in entries]
        assert max(scaled) <= 1.01 * min(scaled), scaled

    def test_half_widths_approach_the_port_picture(self):
        # at large zeta the stack's widths are half the coupled model's (kappa/4, kappa/2, kappa/4)
        (entry,) = peak_separation_delta([1000.0], lambda z: build_cascade(z, 1.0, 5.0, 10))
        scat = [-p.imag / entry.kappa for p in entry.scattering_poles]
        coupled = [-p.imag / entry.kappa for p in entry.coupled_poles]
        assert scat == pytest.approx([0.25, 0.5, 0.25], abs=1e-6)
        assert coupled == pytest.approx([0.5, 1.0, 0.5], abs=1e-12)

    def test_model_against_itself_is_exactly_zero(self):
        setup = build_cascade(5.0, 1.0, 5.0, 10)
        spec = sweep_coupled(setup.system, default_omega_window(setup, 3001), 1.0)
        left_a, right_a = fit_oracle.three_peak_distances(spec)
        left_b, right_b = fit_oracle.three_peak_distances(spec)
        assert left_a - left_b == 0.0
        assert right_a - right_b == 0.0


class TestIntensityComparison:
    def setup_method(self):
        self.setup = build_cascade(5.0, 1.0, 5.0, 10)
        self.grid = default_omega_window(self.setup, 3001)

    def test_peak_frequencies_agree_between_models(self):
        _, scat_right, _, coupled_right = intensity_comparison(self.setup, self.grid)
        scat_peak = self.grid[np.argmax(scat_right)]
        coup_peak = self.grid[np.argmax(coupled_right)]
        kappa = self.setup.match.kappa
        assert abs(scat_peak - coup_peak) < kappa

    def test_peak_magnitudes_differ_at_finite_zeta(self):
        _, scat_right, _, coupled_right = intensity_comparison(self.setup, self.grid)
        ratio = scat_right.max() / coupled_right.max()
        assert abs(ratio - 1.0) > 0.05

    def test_both_cavities_match_50_digit_solve(self):
        # each cavity is solved from both ends at once; propagating the right cavity
        # forward from (a_in, b_out) through five elements lost 1e-8 relative here
        setup = build_cascade(200.0, 1.0, 5.0, 10)
        grid = default_omega_window(setup, 4001)
        scat_left, scat_right, _, _ = intensity_comparison(setup, grid)
        with mpmath.workdps(50):
            for i in range(0, grid.size, 100):
                _, _, regions = oracle.solve(setup.stack, mpmath.mpf(grid[i]), 1, 0, mpmath.exp)
                for got, (right, left) in ((scat_left, regions[1]), (scat_right, regions[5])):
                    assert got[i] == pytest.approx(float(abs(right) ** 2 + abs(left) ** 2), rel=1e-9)

    def test_far_detuned_window_is_dark(self):
        zeta = 40.0
        omega_c = omega_c_from_geometry(zeta, 1.0, 10)
        grid = np.linspace(omega_c + 1.2, omega_c + 1.9, 101)
        for arr in intensity_comparison(build_cascade(zeta, 1.0, 5.0, 10), grid):
            assert np.all(arr < 1e-3)


class TestDarkModeScan:
    def setup_method(self):
        self.setup = build_cascade(5.0, 1.0, 5.0, 10)
        self.omega = default_omega_window(self.setup, 161)
        self.phis = np.linspace(-math.pi, math.pi, 97)
        self.scan = dark_mode_scan(self.setup.stack, self.omega, self.phis)

    def test_requires_four_mirror_stack(self):
        with pytest.raises(InvalidParameterError):
            dark_mode_scan(mirror_chain(5.0, 1.0), self.omega, self.phis)

    def test_columns_are_exact_sinusoids(self):
        # the closed form against the least-squares fit of every row
        scan = self.scan
        assert scan.intensity.shape == (self.omega.size, self.phis.size)
        for i in range(self.omega.size):
            fit = sinusoid_fit(self.phis, scan.intensity[i])
            c0, c1, phi0 = scan.c0[i], scan.c1[i], scan.phi0[i]
            assert abs(c0 - fit.c0) <= 1e-11 * (c0 + c1)
            assert abs(c1 - fit.c1) <= 1e-11 * (c0 + c1)
            if c1 >= 1e-10 * c0:
                assert abs(math.remainder(phi0 - fit.phi0, 2 * math.pi)) <= 1e-9
            closed = c0 + c1 * np.cos(self.phis - phi0)
            assert np.max(np.abs(scan.intensity[i] - closed)) <= 1e-13 * c0

    def test_minimum_stays_strictly_positive(self):
        assert self.scan.intensity.min() > 0.0

    def test_deep_destructive_interference_near_phi_zero(self):
        ratios = self.scan.intensity.min(axis=1) / self.scan.intensity.max(axis=1)
        best = int(np.argmin(ratios))
        assert ratios[best] < 2e-3
        phi_at_min = self.phis[int(np.argmin(self.scan.intensity[best]))]
        assert abs(phi_at_min) < 0.1

    def test_matches_scalar_boundary_solve(self):
        i, j = 80, 13
        _, _, regions = oracle.solve(self.setup.stack, float(self.omega[i]), 1.0, np.exp(-1j * self.phis[j]))
        right, left = regions[3]
        assert self.scan.intensity[i, j] == pytest.approx(abs(right) ** 2 + abs(left) ** 2, rel=1e-12)

    def test_map_matches_per_phi_oracle(self):
        for i in range(0, self.omega.size, 8):
            k = float(self.omega[i])
            u = oracle.solve(self.setup.stack, k, 1.0, 0.0)[2][3]
            v = oracle.solve(self.setup.stack, k, 0.0, 1.0)[2][3]
            scale = (math.hypot(*map(abs, u)) + math.hypot(*map(abs, v))) ** 2
            for j, phi in enumerate(self.phis):
                right, left = oracle.solve(self.setup.stack, k, 1.0, np.exp(-1j * phi))[2][3]
                assert abs(self.scan.intensity[i, j] - (abs(right) ** 2 + abs(left) ** 2)) <= 1e-11 * scale


class TestHighZetaAccuracy:
    """Four-mirror chain at zeta = 1000 (README geometry) on a 40,001-point grid.

    The transmitted amplitude is the last region's two-sided solve, which
    there is c_out = (a_in + m12*d_in)/m22 with det M = 1; propagating the
    drive forward through the stack loses up to 7e-3 relative here, which
    adds hundreds of spurious local maxima to the spectrum.  The reference is
    the same double-valued stack at 50 digits: the double-precision oracle,
    which multiplies whole 2x2 matrices, is itself 2e-8 off at this zeta, the
    engine 2e-9.
    """

    @classmethod
    def setup_class(cls):
        cls.setup = build_cascade(1000.0, 1.0, 5.0, 10)
        cls.grid = default_omega_window(cls.setup, 40001)
        cls.values = sweep_scattering(cls.setup.stack, cls.grid).values

    def test_matches_50_digit_product(self):
        peaks = [13333, 20000, 26667]  # omega_c and omega_c -+ sqrt(2) g
        with mpmath.workdps(50):
            for i in peaks + list(range(0, self.grid.size, 400)):
                m22 = oracle.product(self.setup.stack.elements, mpmath.mpf(self.grid[i]), mpmath.exp)[1][1]
                assert self.values[i] == pytest.approx(float(1 / abs(m22) ** 2), rel=1e-8)
        assert all(self.values[i] > 0.5 for i in peaks)

    def test_exactly_three_local_maxima(self):
        v = self.values
        assert np.count_nonzero((v[1:-1] > v[:-2]) & (v[1:-1] > v[2:])) == 3


class TestSinusoidFit:
    def test_constant_data_convention(self):
        phis = np.linspace(-math.pi, math.pi, 21)
        fit = sinusoid_fit(phis, np.full(21, 3.3))
        assert fit.c1 == 0.0 and fit.phi0 == 0.0
        assert fit.c0 == pytest.approx(3.3)

    def test_synthetic_recovery(self):
        phis = np.linspace(-math.pi, math.pi, 41)
        data = 2.0 + np.cos(phis - 0.3)
        fit = sinusoid_fit(phis, data)
        assert fit.c0 == pytest.approx(2.0, abs=1e-12)
        assert fit.c1 == pytest.approx(1.0, abs=1e-12)
        assert fit.phi0 == pytest.approx(0.3, abs=1e-12)
        assert fit.max_residual < 1e-12

    def test_needs_full_period(self):
        phis = np.linspace(0, math.pi, 21)
        with pytest.raises(InvalidParameterError):
            sinusoid_fit(phis, np.cos(phis))

    def test_needs_five_samples(self):
        phis = np.linspace(-math.pi, math.pi, 4)
        with pytest.raises(InvalidParameterError):
            sinusoid_fit(phis, np.cos(phis))

    def test_endpoint_free_period_accepted(self):
        phis = np.linspace(0, 2 * math.pi, 36, endpoint=False)
        fit = sinusoid_fit(phis, 1.5 + 0.5 * np.cos(phis + 1.0))
        assert fit.c1 == pytest.approx(0.5, abs=1e-12)


class TestGridStability:
    def test_fitted_centers_stable_under_grid_refinement(self):
        fsr = math.pi
        setup = build_cascade(5.0, 1.0, 5.0, 10)
        centers = []
        for points in (2001, 4001):
            spec = sweep_scattering(setup.stack, default_omega_window(setup, points))
            centers.append([p.center for p in fit_oracle.fit_peaks(spec, find_peaks(spec))])
        for a, b in zip(*centers):
            assert abs(a - b) < 1e-6 * fsr
