"""Acceptance gate: every release criterion at its stated tolerance.

Run with ``pytest -s tests/test_acceptance.py`` to see one PASS/FAIL line
per criterion.
"""

import cmath
import json
import math

import numpy as np
import pytest
from click.testing import CliRunner

from cascavity import (
    Gap,
    Mirror,
    OpticalStack,
    build_cascade,
    compose,
    dark_mode_scan,
    default_omega_window,
    g_from_geometry,
    kappa_from_geometry,
    lorentzian_fit,
    omega_c_from_geometry,
    peak_separation_delta,
    reflectivity,
    region_amplitude_sweep,
    sweep_scattering,
    symmetric_cavity,
    three_mirror_chain,
)
from cascavity.cli import main as cli_main
from cascavity.coupled import ModeSystem, _steady_state_arrays, mode_poles

from test_scattering import brute_force_peak


def check(criterion: int, label: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    print(f"criterion {criterion:2d} {status}: {label}" + (f"  [{detail}]" if detail else ""))
    assert ok, f"criterion {criterion}: {label} {detail}"


def test_criterion_01_mirror_reflectivity():
    value = abs(reflectivity(5.0)) ** 2
    check(
        1,
        "power reflectivity at zeta=5 equals 25/26 (~0.96)",
        abs(value - 25 / 26) < 1e-12 and abs(value - 0.96) < 5e-3,
        f"|r|^2 = {value:.6f}",
    )


def test_criterion_02_single_cavity_line_width():
    details = []
    ok = True
    for zeta, tol in ((5.0, 0.01), (20.0, 0.001)):
        kappa = kappa_from_geometry(zeta, 1.0)
        k0, _ = brute_force_peak(symmetric_cavity(zeta), 10 * math.pi - 1.0, 10 * math.pi + 1.0)
        grid = np.linspace(k0 - 4 * kappa, k0 + 4 * kappa, 3201)
        spec = sweep_scattering(symmetric_cavity(zeta), grid)
        peak = lorentzian_fit(spec, (grid[0], grid[-1]))
        rel = abs(peak.half_width / kappa - 1.0)
        details.append(f"zeta={zeta:g}: {rel:.2e} (tol {tol:g})")
        ok = ok and rel < tol
    check(2, "fitted half width matches closed-form kappa", ok, "; ".join(details))


def test_criterion_03_single_cavity_resonance_position():
    fsr = math.pi
    details = []
    ok = True
    for zeta in (2.0, 5.0, 20.0):
        predicted = omega_c_from_geometry(zeta, 1.0, 10)
        k0, _ = brute_force_peak(symmetric_cavity(zeta), 10 * math.pi - 1.5, 10 * math.pi + 1.5)
        err = abs(k0 - predicted) / fsr
        details.append(f"zeta={zeta:g}: {err:.2e} FSR")
        ok = ok and err < 1e-4
    check(3, "brute-force resonance matches closed form within 1e-4 FSR", ok, "; ".join(details))


def test_criterion_04_full_transmission_on_resonance():
    _, peak = brute_force_peak(symmetric_cavity(5.0), 10 * math.pi - 1.0, 10 * math.pi + 1.0)
    check(4, "lossless symmetric cavity transmits fully on resonance", abs(peak - 1.0) < 1e-9, f"T = {peak:.12f}")


def test_criterion_05_three_mirror_splitting():
    zeta = 5.0
    g = g_from_geometry(zeta, 1.0, 1.0)
    omega_c = omega_c_from_geometry(zeta, 1.0, 10)
    stack = three_mirror_chain(zeta, 1.0, 1.0)
    lo, _ = brute_force_peak(stack, omega_c - 2 * g, omega_c - 0.2 * g)
    hi, _ = brute_force_peak(stack, omega_c + 0.2 * g, omega_c + 2 * g)
    rel = abs((hi - lo) / (2 * g) - 1.0)
    check(5, "three-mirror splitting matches 2g within 1%", rel < 0.01, f"rel err {rel:.2e}")


def test_criterion_06_cascaded_comparison():
    zetas = [3.0, 5.0, 8.0, 12.0, 20.0]
    entries = peak_separation_delta(zetas, lambda z: build_cascade(z, 1.0, 5.0, 10))
    clean = all(e.error is None for e in entries)
    means = [abs(e.delta_mean) for e in entries]
    monotone = all(b < a for a, b in zip(means, means[1:]))
    bound = means[-1] < 0.5 * entries[-1].kappa
    detail = (
        "three distinct poles at every zeta; |delta| = "
        + ", ".join(f"{m:.2e}" for m in means)
        + f"; at zeta=20: {means[-1] / entries[-1].kappa:.3f} kappa"
    )
    check(6, "cascade delta: 3 poles, monotone decrease, <0.5 kappa at zeta=20", clean and monotone and bound, detail)


def test_criterion_07_randomized_invariant_suite():
    rng = np.random.default_rng(2026)
    cases = 1000
    worst = {"det": 0.0, "flux": 0.0, "recip": 0.0, "lin": 0.0}
    for _ in range(cases):
        n = int(rng.integers(1, 17))
        elems = []
        for _ in range(n):
            if rng.random() < 0.5:
                elems.append(Mirror(float(rng.uniform(0.5, 50.0))))
            else:
                elems.append(Gap(float(rng.uniform(0.05, 5.0))))
        stack = OpticalStack(elems)
        k = float(rng.uniform(0.5, 40.0))

        m11, m12, m21, m22 = compose(stack, k)
        scale = max(1.0, max(abs(m11), abs(m12), abs(m21), abs(m22)) ** 2)
        worst["det"] = max(worst["det"], abs(m11 * m22 - m12 * m21 - 1.0) / scale)

        a = complex(rng.normal(), rng.normal())
        d = complex(rng.normal(), rng.normal())
        lam = complex(rng.normal(), rng.normal())
        # drives (a, d), (1, 0), (0, 1) and lam*(a, d) in one solve
        a_in = np.array([a, 1.0, 0.0, lam * a])
        d_in = np.array([d, 0.0, 1.0, lam * d])
        regions = region_amplitude_sweep(stack, k, a_in, d_in)
        b_out, c_out = regions[0][1], regions[-1][0]
        flux_in = abs(a) ** 2 + abs(d) ** 2
        flux_out = abs(b_out[0]) ** 2 + abs(c_out[0]) ** 2
        worst["flux"] = max(worst["flux"], abs(flux_in - flux_out) / max(flux_in, 1.0))

        worst["recip"] = max(worst["recip"], abs(abs(c_out[1]) ** 2 - abs(b_out[2]) ** 2))

        denom = max(abs(b_out[0]), abs(c_out[0]), 1e-30) * abs(lam)
        err = max(abs(b_out[3] - lam * b_out[0]), abs(c_out[3] - lam * c_out[0]))
        worst["lin"] = max(worst["lin"], err / denom)

    ok = all(v < 1e-12 for v in worst.values())
    detail = f"{cases} cases; worst det {worst['det']:.1e}, flux {worst['flux']:.1e}, recip {worst['recip']:.1e}, lin {worst['lin']:.1e}"
    check(7, "determinant/flux/reciprocity/linearity invariants at 1e-12", ok, detail)


def test_criterion_08_coupled_model_analytics():
    kappa, eta_l = 0.5, 1.0
    sys0 = ModeSystem(10.0, 10.0, 0.0, kappa)
    omega = np.linspace(8.0, 12.0, 801)
    alpha, _, _ = _steady_state_arrays(sys0, omega, eta_l, 0.0)
    lorentz_err = float(np.max(np.abs(kappa * np.abs(alpha) ** 2 - kappa * eta_l**2 / ((omega - 10.0) ** 2 + kappa**2))))

    worst_gamma = 0.0
    for g in (0.02, 0.1, 0.5):
        for kap in (0.01, 0.2):
            sys_dark = ModeSystem(10.0, 10.0, g, kap)
            _, _, gamma = _steady_state_arrays(sys_dark, omega, 0.7, 0.7 * cmath.exp(-1j * math.pi))
            worst_gamma = max(worst_gamma, float(np.max(np.abs(gamma))))

    mid_exact = all(
        complex(wc, -0.1) in mode_poles(ModeSystem(wc, wf, g, 0.1))
        for wc in (1.0, 7.3)
        for wf in (0.8, 7.3, 9.1)
        for g in (0.0, 0.3)
    )
    ok = lorentz_err < 1e-12 and worst_gamma < 1e-14 and mid_exact
    detail = f"Lorentzian err {lorentz_err:.1e}; |gamma| {worst_gamma:.1e}; antisymmetric pole exact: {mid_exact}"
    check(8, "g=0 Lorentzian, dark-mode suppression, exact antisymmetric mode", ok, detail)


def test_criterion_09_dark_mode_scan():
    setup = build_cascade(5.0, 1.0, 5.0, 10)
    omega = default_omega_window(setup, 801)
    phis = np.linspace(-math.pi, math.pi, 181)
    scan = dark_mode_scan(setup.stack, omega, phis)
    sinusoids = scan.c0[:, None] + scan.c1[:, None] * np.cos(phis - scan.phi0[:, None])
    worst_resid = float(np.max(np.max(np.abs(scan.intensity - sinusoids), axis=1) / scan.c0))
    min_intensity = float(scan.intensity.min())
    ratios = scan.intensity.min(axis=1) / scan.intensity.max(axis=1)
    best = float(ratios.min())
    ok = worst_resid < 1e-9 and min_intensity > 0.0 and best < 1e-3
    detail = f"worst sinusoid residual {worst_resid:.1e}; min intensity {min_intensity:.2e}; best min/max {best:.2e}"
    check(9, "sinusoidal phase dependence with near-perfect dark fringe", ok, detail)


def test_criterion_10_cli_determinism(tmp_path):
    config = {
        "schema_version": 1,
        "geometry": {"zeta": 5.0, "cavity_length": 1.0, "fiber_length": 5.0, "cavity_order": 10},
        "output": {"directory": str(tmp_path / "out")},
    }
    cfg = tmp_path / "fig2a.json"
    cfg.write_text(json.dumps(config))
    runner = CliRunner()
    r1 = runner.invoke(cli_main, ["spectrum", "--config", str(cfg), "--quiet"])
    first = (tmp_path / "out" / "spectrum.csv").read_bytes()
    r2 = runner.invoke(cli_main, ["spectrum", "--config", str(cfg), "--quiet"])
    second = (tmp_path / "out" / "spectrum.csv").read_bytes()
    ok = r1.exit_code == 0 and r2.exit_code == 0 and first == second
    check(10, "repeated spectrum runs emit byte-identical CSV", ok, f"{len(first)} bytes")
