import cmath
import math

import mpmath
import numpy as np
import pytest

import fit_oracle
from cascavity import (
    InvalidParameterError,
    ModeChain,
    SingularSystemError,
    build_cascade,
    build_single_cavity,
    default_omega_window,
    mode_poles,
    sweep_coupled,
)
from cascavity.coupled import _steady_state_arrays


def make_chain(omega_c=10.0, omega_f=10.0, g=0.1, kappa=0.05):
    """The cascade's chain (omega_c, omega_f, omega_c) with couplings (g, g)."""
    return ModeChain((omega_c, omega_f, omega_c), (g, g), kappa)


def make_cavity(omega_c=10.0, kappa=0.05):
    """The one-mode chain: a single cavity, both of whose mirrors are ports."""
    return ModeChain((omega_c,), (), kappa)


def five_mode(setup):
    """The chain (omega_c, omega_f, omega_c, omega_f, omega_c) with the cascade's couplings and decay."""
    (wc, wf, _), (g, _) = setup.system.omegas, setup.system.couplings
    return ModeChain((wc, wf, wc, wf, wc), (g,) * 4, setup.system.kappa)


def solve_at(chain, omega, a_in, d_in=0.0):
    """The engine at one drive frequency, as Python complex numbers."""
    return tuple(complex(x[0]) for x in _steady_state_arrays(chain, [omega], a_in, d_in))


def chain_matrix(chain, omega=0.0):
    """The chain's N x N steady-state matrix at ``omega`` as mpmath numbers, with the port rate sqrt(kappa)."""
    n, i = len(chain.omegas), mpmath.mpc(0, 1)
    matrix = mpmath.matrix(n, n)
    for j, w in enumerate(chain.omegas):
        matrix[j, j] = i * (mpmath.mpf(w) - mpmath.mpf(omega)) + (mpmath.mpf(chain.kappa) if j in (0, n - 1) else 0)
    for j, g in enumerate(chain.couplings):
        matrix[j, j + 1] = matrix[j + 1, j] = i * mpmath.mpf(g)
    return matrix


def dense_solve(chain, omega, a_in, d_in):
    """(x_0, ..., x_{N-1}) from a 60-digit LU solve of the N x N steady-state system, pumps sqrt(kappa)*field."""
    with mpmath.workdps(60):
        n, i = len(chain.omegas), mpmath.mpc(0, 1)
        port = mpmath.sqrt(mpmath.mpf(chain.kappa))
        drive = mpmath.matrix(n, 1)
        drive[0] += -i * port * mpmath.mpc(a_in)
        drive[n - 1] += -i * port * mpmath.mpc(d_in)
        return tuple(mpmath.lu_solve(chain_matrix(chain, omega), drive))


class TestSteadyState:
    def test_decoupled_resonant_cavity(self):
        cavity = make_cavity(kappa=0.5)
        field = 1.0 / math.sqrt(0.5)
        (x,) = solve_at(cavity, 10.0, field)
        assert x == pytest.approx(-1j * 1.0 / 0.5, abs=1e-15)
        assert abs(x) ** 2 == pytest.approx(1.0 / 0.5**2, rel=1e-14)
        # the one mode is both ends of its chain: either field pumps it alike
        assert solve_at(cavity, 10.0, 0.0, field) == (x,)

    def test_lorentzian_line_of_the_decoupled_cavity(self):
        kappa = 1.0
        omega = np.linspace(7.0, 13.0, 501)
        (x,) = _steady_state_arrays(make_cavity(omega_c=10.0, kappa=kappa), omega, 1.0, 0.0)
        line = kappa * np.abs(x) ** 2
        expected = kappa / ((omega - 10.0) ** 2 + kappa**2)
        assert np.max(np.abs(line - expected)) < 1e-12

    def test_dark_fiber_mode_under_antisymmetric_pumping(self):
        for g in (0.02, 0.1, 0.7):
            for omega in (9.5, 10.0, 10.3):
                field = 0.8 / math.sqrt(0.05)
                _, fiber, _ = solve_at(make_chain(g=g), omega, field, field * cmath.exp(-1j * math.pi))
                assert abs(fiber) < 1e-14

    def test_drive_linearity(self):
        # superposition: the solve under (p_l, p_r) is the sum of the one-sided solves,
        # to 1e-15 of the largest |l| + |r| on the grid (the one-sided solves may cancel,
        # so a pointwise relative bound fails there)
        chain = make_chain()
        omega = np.linspace(9.6, 10.4, 801)
        p_l, p_r = (0.4 - 0.1j) / math.sqrt(chain.kappa), 0.3 * cmath.exp(-0.7j) / math.sqrt(chain.kappa)
        both = _steady_state_arrays(chain, omega, p_l, p_r)
        left = _steady_state_arrays(chain, omega, p_l, 0.0)
        right = _steady_state_arrays(chain, omega, 0.0, p_r)
        for x, l, r in zip(both, left, right):
            assert np.max(np.abs(x - (l + r))) <= 1e-15 * np.max(np.abs(l) + np.abs(r))

    def test_pump_swap_symmetry(self):
        a, d = 0.7 / math.sqrt(0.05), 0.2 / math.sqrt(0.05)
        fwd = solve_at(make_chain(), 9.8, a, d)
        rev = solve_at(make_chain(), 9.8, d, a)
        assert fwd[0] == rev[2]
        assert fwd[2] == rev[0]
        assert fwd[1] == rev[1]

    def test_validation(self):
        with pytest.raises(InvalidParameterError):
            make_chain(kappa=0.0)
        with pytest.raises(InvalidParameterError):
            make_chain(g=-0.1)
        with pytest.raises(InvalidParameterError):
            make_chain(omega_f=math.nan)

    @pytest.mark.parametrize(
        "omegas, couplings, match",
        [
            ((10.0, 10.0, 10.0), (0.1, 0.0), "every coupling positive"),
            ((10.0, 10.0, 10.0), (0.1,), "one coupling fewer than modes"),
            ((10.0,), (0.1,), "one coupling fewer than modes"),
            ((), (), "needs a mode"),
        ],
    )
    def test_chain_validation(self, omegas, couplings, match):
        with pytest.raises(InvalidParameterError, match=match):
            ModeChain(omegas, couplings, 0.05)

    @pytest.mark.parametrize("pumps", [(math.nan, 0.0), (1.0, complex(0.0, math.inf)), (math.inf, 1.0)])
    def test_non_finite_pump_rejected(self, pumps):
        with pytest.raises(InvalidParameterError, match="incident fields must be finite"):
            _steady_state_arrays(make_chain(), [10.0], *pumps)

    def test_singular_system(self):
        # g**2 underflows to 0.0, so at omega = omega_c = omega_f the chain's determinant is exactly 0
        message = r"omega = 10\.0: .* couplings \(1e-200, 1e-200\) \(squares \(0\.0, 0\.0\)\)"
        with pytest.raises(SingularSystemError, match=message):
            _steady_state_arrays(make_chain(g=1e-200, kappa=0.1), [10.0], 1 / math.sqrt(0.1), 0)


def assert_matches_dense_solve(chain, grid, bound=1e-13):
    """Each |x_i|^2 within ``bound`` (relative; one per row, or one for all) of the 60-digit solve."""
    bound = np.broadcast_to(bound, np.shape(grid))
    for drive in ((1.0, 0.0), (0.0, 1.0)):
        got = _steady_state_arrays(chain, grid, *drive)
        for k, omega in enumerate(grid):
            want = dense_solve(chain, omega, *drive)
            for mode, (x, w) in enumerate(zip(got, want)):
                exact = abs(w) ** 2
                assert abs(abs(x[k]) ** 2 - exact) <= bound[k] * exact, (mode, drive, float(omega))


def off_resonance_grid(setup, points, step):
    """Every ``step``-th point of the default window, 9 points over [31, 32] and omega_c +- g."""
    chain = setup.system
    g = max(chain.couplings, default=0.0)
    window = default_omega_window(setup, points)[::step]
    return np.r_[window, np.linspace(31.0, 32.0, 201)[::25], chain.omegas[0] - g, chain.omegas[0] + g]


def chain_at(kind, zeta):
    """(setup, chain) at ``zeta``: the single cavity, the nominal cascade, or a longer chain of the cascade's modes."""
    if kind == "one-mode":
        setup = build_single_cavity(zeta, 1.0, 10)
        return setup, setup.system
    setup = build_cascade(zeta, 1.0, 5.0, 10, fiber_alignment="nominal" if kind == "nominal-cascade" else "resonant")
    if kind == "five-mode":
        return setup, five_mode(setup)
    if kind == "asymmetric-four-mode":
        (wc, wf, _), (g, _) = setup.system.omegas, setup.system.couplings
        return setup, ModeChain((wc, wf, wc, wf), (g, 2 * g, g / 2), setup.system.kappa)
    return setup, setup.system


class TestAgainstDenseSolve:
    """Each photon number against a 60-digit solve of the same system, under drives (1, 0) and (0, 1).

    On the rows of ``off_resonance_grid`` the bound is 1e-13 relative: there |x_2|/|x_0| is about
    g^2/(dc*df), so an undriven cavity's amplitude must not be the difference of two nearly equal terms.
    On the 20 rows of the default window nearest each pole the chain determinant
    K_0 = d_0*d_1*d_2 + g_1^2*d_0 + g_0^2*d_2 cancels (|K_0| falls to about g^2*kappa), and the bound
    there is 8*eps times its conditioning (|d_0*d_1*d_2| + g_1^2*|d_0| + g_0^2*|d_2|) / |K_0|.
    """

    @pytest.mark.parametrize("zeta", [5.0, 100.0, 1e4, 1e6])
    def test_photon_numbers_match_60_digit_solve(self, zeta):
        setup = build_cascade(zeta, 1.0, 5.0, 10)
        assert_matches_dense_solve(setup.system, off_resonance_grid(setup, 4001, 20))

    def test_rows_nearest_the_poles_within_the_determinant_conditioning(self):
        # at zeta = 1e4 these rows are up to 7.9e-13 off, at a conditioning of up to 7.8e3
        setup = build_cascade(1e4, 1.0, 5.0, 10)
        chain, window = setup.system, default_omega_window(setup, 20_001)
        nearest = [np.argsort(np.abs(window - pole.real))[:20] for pole in mode_poles(chain)]
        grid = window[np.unique(np.concatenate(nearest))]
        (w0, w1, w2), (g0, g1) = chain.omegas, chain.couplings
        d0, d1, d2 = 1j * (w0 - grid) + chain.kappa, 1j * (w1 - grid), 1j * (w2 - grid) + chain.kappa
        terms = (d0 * d1 * d2, g1**2 * d0, g0**2 * d2)
        conditioning = sum(map(np.abs, terms)) / np.abs(sum(terms))
        assert conditioning.max() > 1e3  # the determinant cancels on these rows
        assert_matches_dense_solve(chain, grid, 8 * np.finfo(float).eps * conditioning)

    @pytest.mark.parametrize("zeta", [5.0, 1e4, 1e6])
    @pytest.mark.parametrize("kind", ["one-mode", "nominal-cascade", "five-mode", "asymmetric-four-mode"])
    def test_chain_matches_60_digit_solve(self, kind, zeta):
        setup, chain = chain_at(kind, zeta)
        assert_matches_dense_solve(chain, off_resonance_grid(setup, 401, 8))


class TestPhotocurrent:
    # the detected flux behind the last mode: kappa * |x_{N-1}|^2
    def test_no_drive_no_current(self):
        chain = make_chain()
        assert chain.kappa * abs(solve_at(chain, 10.0, 0.0, 0.0)[-1]) ** 2 == 0.0

    def test_decoupled_right_drive_on_resonance(self):
        # analytic solve of the one-mode equation: kappa*|x|^2 = eta^2/kappa
        eta, kappa = 0.6, 0.25
        cavity = make_cavity(kappa=kappa)
        field = eta * cmath.exp(-0.4j) / math.sqrt(kappa)
        on = kappa * abs(solve_at(cavity, 10.0, 0.0, field)[0]) ** 2
        assert on == pytest.approx(eta**2 / kappa, rel=1e-13)
        detuned = kappa * abs(solve_at(cavity, 10.0 + kappa, 0.0, field)[0]) ** 2
        assert detuned == pytest.approx(0.5 * eta**2 / kappa, rel=1e-13)

    def test_three_peaks_for_matched_cascade(self):
        from cascavity import find_peaks

        setup = build_cascade(5.0, 1.0, 5.0, 10)
        spec = sweep_coupled(setup.system, default_omega_window(setup, 2001), 1.0)
        assert len(find_peaks(spec)) == 3

    def test_flux_is_per_unit_incident_power(self):
        # like sweep_scattering: a_in = 2 gives the values of a_in = 1, and a_in = 0 is refused
        setup = build_cascade(5.0, 1.0, 5.0, 10)
        grid = default_omega_window(setup, 401)
        one, two = (sweep_coupled(setup.system, grid, a_in).values for a_in in (1.0, 2.0))
        assert np.array_equal(two, one)
        with pytest.raises(InvalidParameterError, match="a_in must be nonzero"):
            sweep_coupled(setup.system, grid, 0.0, 1.0)


class TestEigenfrequencies:
    def test_two_mode_matches_scattering_splitting(self):
        # oracle: brute-force peak pair of the three-mirror transmission, split by 2g
        from cascavity import mirror_chain, sweep_scattering
        from cascavity.spectra import find_peaks

        zeta = 5.0
        g = 1 / (2 * math.sqrt(26))
        omega_c = 10 * math.pi + math.atan2(1, zeta)
        grid = np.linspace(omega_c - 3 * g, omega_c + 3 * g, 4001)
        spec = sweep_scattering(mirror_chain(zeta, 1.0, 1.0), grid)
        found = find_peaks(spec)
        assert len(found) == 2
        lo_fit, hi_fit = fit_oracle.fit_peaks(spec, found)
        assert (hi_fit.center - lo_fit.center) == pytest.approx(2 * g, rel=0.01)

    def test_eigenfrequencies_predict_photocurrent_peaks(self):
        # good-cavity regime: fitted peak centers sit at the real parts of the poles
        from cascavity import find_peaks

        chain = make_chain(g=0.2, kappa=0.004)
        lo, mid, hi = (p.real for p in mode_poles(chain))
        grid = np.linspace(lo - 0.1, hi + 0.1, 6001)
        spec = sweep_coupled(chain, grid, 0.06 / math.sqrt(chain.kappa))
        fitted = fit_oracle.fit_peaks(spec, find_peaks(spec))
        assert len(fitted) == 3
        for center, want in zip([p.center for p in fitted], (lo, mid, hi)):
            assert center == pytest.approx(want, abs=0.1 * chain.kappa)


class TestModePoles:
    def test_matches_dense_eigensolver(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            wc, wf = rng.uniform(0.5, 20.0, 2)
            g, kappa = rng.uniform(0.0, 2.0), rng.uniform(1e-6, 1.0)
            poles = mode_poles(make_chain(omega_c=wc, omega_f=wf, g=g, kappa=kappa))
            dense = np.linalg.eigvals(np.array([[wc - 1j * kappa, g, 0], [g, wf, g], [0, g, wc - 1j * kappa]]))
            assert np.allclose(poles, np.sort_complex(dense), rtol=1e-12, atol=1e-12)
            assert poles[0].real <= poles[1].real <= poles[2].real
            assert complex(wc, -kappa) in poles  # antisymmetric cavity mode, exactly

    def test_resonant_cascade_closed_form(self):
        # omega_f = omega_c: omega_c - i kappa/2 +- sqrt(2 g^2 - kappa^2/4)
        chain = make_chain(omega_c=10.0, omega_f=10.0, g=0.1, kappa=0.05)
        lo, mid, hi = mode_poles(chain)
        split = math.sqrt(2 * 0.1**2 - 0.025**2)
        assert mid == complex(10.0, -0.05)
        assert lo == pytest.approx(complex(10.0 - split, -0.025), rel=1e-15)
        assert hi == pytest.approx(complex(10.0 + split, -0.025), rel=1e-15)

    def test_one_mode_pole_is_exact(self):
        assert mode_poles(make_cavity(omega_c=7.3, kappa=0.1)) == (complex(7.3, -0.1),)

    def test_lossless_limit_is_the_eigenfrequencies(self):
        chain = make_chain(omega_c=10.0, omega_f=9.7, g=0.2, kappa=1e-12)
        poles = mode_poles(chain)
        lossless = np.linalg.eigvalsh(np.array([[10.0, 0.2, 0], [0.2, 9.7, 0.2], [0, 0.2, 10.0]]))
        assert [p.real for p in poles] == pytest.approx(lossless, rel=1e-12)

    @pytest.mark.parametrize("zeta", [2.0, 20.0, 1000.0, 1e4])
    @pytest.mark.parametrize("modes", [1, 3, 5])
    @pytest.mark.parametrize("alignment", ["resonant", "nominal"])
    def test_matches_50_digit_eig(self, modes, zeta, alignment):
        setup = build_cascade(zeta, 1.0, 5.0, 10, fiber_alignment=alignment)
        cavity = make_cavity(setup.system.omegas[0], setup.system.kappa)
        chain = {1: cavity, 3: setup.system, 5: five_mode(setup)}[modes]
        with mpmath.workdps(50):
            # the steady-state matrix at omega = 0 is i times the damped matrix
            eigenvalues = mpmath.eig(chain_matrix(chain))[0]
            exact = sorted((complex(-1j * e) for e in eigenvalues), key=lambda p: p.real)
        got = mode_poles(chain)
        assert len(got) == modes
        for p, e in zip(got, exact):
            assert abs(p.imag - e.imag) <= 1e-14 * abs(e.imag), (p, e)
            assert abs(p.real - e.real) <= 2 * math.ulp(e.real), (p, e)

    @pytest.mark.parametrize(
        "omegas, couplings",
        [
            ((10.0, 10.0), (0.1,)),
            ((10.0, 9.0, 10.0, 9.0), (0.1, 0.1, 0.1)),
            ((10.0, 9.0, 10.5), (0.1, 0.1)),
            ((10.0, 9.0, 10.0), (0.1, 0.2)),
        ],
    )
    def test_refuses_other_chains(self, omegas, couplings):
        with pytest.raises(InvalidParameterError, match="mirror-symmetric chain of odd length"):
            mode_poles(ModeChain(omegas, couplings, 0.05))
