"""Scalar reference values and the output checks built on them.

Everything here is plain Python on complex scalars and is written from the
physics stated in the package README, not from the package's code:

* a lossless point mirror is M = [[1 + i*zeta, i*zeta], [-i*zeta, 1 - i*zeta]],
  a gap of length d is diag(e^{ikd}, e^{-ikd}), and every factor has det 1;
* the three-mode steady state is the 3x3 linear system in the docstring of
  ``cascavity.coupled``, solved here by Gaussian elimination;
* the matching relations (kappa, omega_c, g, resonant fiber length) are the
  closed forms listed in the README.

Region amplitudes come from a two-sided solve: for the region between the
left part L and the right part R of the stack, the unknown pair (A, B) must
give the incoming a_in on the far left, (L^-1 (A, B))_1 = a_in, and the
incoming d_in on the far right, (R (A, B))_2 = d_in.  This avoids the forward
propagation through a reflective stack that loses digits, so the reference is
more accurate than the program and the tolerances below bound the program's
own rounding.
"""

from __future__ import annotations

import cmath
import csv
import json
import math
from pathlib import Path

# |program - reference| <= RTOL * scale.  The scattering outputs are forward
# propagated through up to four mirrors, which costs digits that grow with
# zeta; 1e-6 leaves a wide margin over the worst error seen for zeta <= 20
# (about 1e-9) and still catches any change in the fourth significant digit.
RTOL_SCATTERING = 1e-6
RTOL_COUPLED = 1e-9
RTOL_CLOSED_FORM = 1e-12
# c0 + c1*cos(phi - phi0) against the dark-mode map, relative to c0 + |c1|.
RTOL_SINUSOID = 1e-9

# Element order of the cascaded stack; regions 1, 3, 5 are the gap interiors
# and region 7 is the transmitted side.
LEFT_CAVITY, FIBER, RIGHT_CAVITY, OUTPUT = 1, 3, 5, 7


def matched_geometry(geometry: dict) -> dict:
    """Closed-form matched parameters of the cascaded geometry, resonant alignment."""
    zeta = float(geometry["zeta"])
    l_c = float(geometry["cavity_length"])
    l_f = float(geometry["fiber_length"])
    phase = math.atan2(1.0, zeta)
    omega_c = (geometry["cavity_order"] * math.pi + phase) / l_c
    n_f = max(1, round((omega_c * l_f - phase) / math.pi))
    l_f_used = (n_f * math.pi + phase) / omega_c
    return {
        "zeta": zeta,
        "l_c": l_c,
        "l_f_used": l_f_used,
        "kappa": 1.0 / (2.0 * l_c * zeta * math.sqrt(zeta * zeta + 1.0)),
        "omega_c": omega_c,
        "g": 1.0 / (2.0 * math.sqrt(l_c * l_f) * math.sqrt(1.0 + zeta * zeta)),
        "g_used": 1.0 / (2.0 * math.sqrt(l_c * l_f_used) * math.sqrt(1.0 + zeta * zeta)),
    }


def _mul(a, b):
    (a11, a12), (a21, a22) = a
    (b11, b12), (b21, b22) = b
    return (
        (a11 * b11 + a12 * b21, a11 * b12 + a12 * b22),
        (a21 * b11 + a22 * b21, a21 * b12 + a22 * b22),
    )


_IDENTITY = ((1.0 + 0j, 0j), (0j, 1.0 + 0j))


def _stack(geo: dict, k: float):
    iz = 1j * geo["zeta"]
    mirror = ((1.0 + iz, iz), (-iz, 1.0 - iz))

    def gap(d):
        p = cmath.exp(1j * k * d)
        return ((p, 0j), (0j, 1.0 / p))

    return [mirror, gap(geo["l_c"]), mirror, gap(geo["l_f_used"]), mirror, gap(geo["l_c"]), mirror]


def region_amplitudes(geo: dict, k: float, a_in: complex, d_in: complex) -> list[tuple[complex, complex]]:
    """Amplitude pair (A, B) of every region of the cascaded stack, left to right."""
    elements = _stack(geo, k)
    n = len(elements)
    prefix = [_IDENTITY]
    for m in elements:
        prefix.append(_mul(m, prefix[-1]))
    suffix = [_IDENTITY] * (n + 1)
    for j in range(n - 1, -1, -1):
        suffix[j] = _mul(suffix[j + 1], elements[j])
    regions = []
    for j in range(n + 1):
        (_, l12), (_, l22) = prefix[j]
        (_, _), (r21, r22) = suffix[j]
        det = l22 * r22 + l12 * r21
        regions.append(((a_in * r22 + l12 * d_in) / det, (l22 * d_in - r21 * a_in) / det))
    return regions


def intensity(pair) -> float:
    return abs(pair[0]) ** 2 + abs(pair[1]) ** 2


def _solve3(a, b):
    """Gaussian elimination with partial pivoting on a 3x3 complex system."""
    m = [list(row) + [rhs] for row, rhs in zip(a, b)]
    for col in range(3):
        pivot = max(range(col, 3), key=lambda r: abs(m[r][col]))
        m[col], m[pivot] = m[pivot], m[col]
        for r in range(col + 1, 3):
            f = m[r][col] / m[col][col]
            for c in range(col, 4):
                m[r][c] -= f * m[col][c]
    x = [0j, 0j, 0j]
    for r in range(2, -1, -1):
        x[r] = (m[r][3] - sum(m[r][c] * x[c] for c in range(r + 1, 3))) / m[r][r]
    return x


def mode_amplitudes(geo: dict, omega: float, eta_l: float, eta_r: float, phi: float):
    """(alpha, beta, gamma) of the matched three-mode model at drive frequency omega."""
    dc = geo["omega_c"] - omega
    df = geo["omega_c"] - omega  # resonant alignment: omega_f = omega_c
    g, kappa = geo["g_used"], geo["kappa"]
    a = [
        [1j * dc + kappa, 0j, 1j * g],
        [0j, 1j * dc + kappa, 1j * g],
        [1j * g, 1j * g, 1j * df],
    ]
    b = [-1j * eta_l, -1j * eta_r * cmath.exp(-1j * phi), 0j]
    return _solve3(a, b)


# ---------------------------------------------------------------------------
# Reading outputs


def read_rows(path: Path, indices) -> dict[int, dict[str, str]]:
    """Data rows of a '#'-headed CSV at the given 0-based indices, keyed by index."""
    wanted = set(indices)
    last = max(wanted)
    found = {}
    with open(path, encoding="utf-8", newline="") as f:
        lines = (line for line in f if not line.startswith("#"))
        reader = csv.reader(lines)
        names = next(reader)
        for i, row in enumerate(reader):
            if i in wanted:
                found[i] = dict(zip(names, row))
            if i >= last:
                break
    missing = wanted - found.keys()
    if missing:
        raise ValueError(f"{path.name}: rows {sorted(missing)} missing")
    return found


def _close(name: str, got: float, want: float, rtol: float, scale: float | None = None) -> str | None:
    bound = rtol * (abs(want) if scale is None else scale)
    if not (math.isfinite(got) and abs(got - want) <= bound):
        return f"{name}: got {got!r}, reference {want!r} (allowed {bound:.3g})"
    return None


# ---------------------------------------------------------------------------
# Checks per output file.  Each returns a list of failure messages.


def check_spectrum(path: Path, config: dict, rows) -> list[str]:
    geo = matched_geometry(config["geometry"])
    errors = []
    for i, row in read_rows(path, rows).items():
        omega = float(row["omega"])
        out = region_amplitudes(geo, omega, 1.0, 0.0)[OUTPUT]
        alpha_beta_gamma = mode_amplitudes(geo, omega, math.sqrt(geo["kappa"]), 0.0, 0.0)
        errors += [
            _close(f"spectrum row {i} scattering_value", float(row["scattering_value"]), abs(out[0]) ** 2, RTOL_SCATTERING),
            _close(
                f"spectrum row {i} coupled_value",
                float(row["coupled_value"]),
                geo["kappa"] * abs(alpha_beta_gamma[1]) ** 2,
                RTOL_COUPLED,
            ),
        ]
    return [e for e in errors if e]


def check_profile(path: Path, config: dict, rows) -> list[str]:
    geo = matched_geometry(config["geometry"])
    errors = []
    for i, row in read_rows(path, rows).items():
        omega = float(row["omega"])
        regions = region_amplitudes(geo, omega, 1.0, 0.0)
        alpha, beta, _ = mode_amplitudes(geo, omega, math.sqrt(geo["kappa"]), 0.0, 0.0)
        for column, want, rtol in (
            ("scat_left", intensity(regions[LEFT_CAVITY]), RTOL_SCATTERING),
            ("scat_right", intensity(regions[RIGHT_CAVITY]), RTOL_SCATTERING),
            ("coupled_left", abs(alpha) ** 2, RTOL_COUPLED),
            ("coupled_right", abs(beta) ** 2, RTOL_COUPLED),
        ):
            errors.append(_close(f"profile row {i} {column}", float(row[column]), want, rtol))
    return [e for e in errors if e]


def check_darkmode(map_path: Path, fit_path: Path, config: dict, points, n_phi: int) -> list[str]:
    """Reference fiber intensity and the fitted sinusoid at (omega index, phi index) points."""
    geo = matched_geometry(config["geometry"])
    cells = read_rows(map_path, [i * n_phi + j for i, j in points])
    fits = read_rows(fit_path, [i for i, _ in points])
    errors = []
    for i, j in points:
        row = cells[i * n_phi + j]
        omega, phi = float(row["omega"]), float(row["phi"])
        got = float(row["fiber_intensity"])
        # drives (1, 0) and (0, 1) give u and v; the map is u + e^{-i phi} v
        u = region_amplitudes(geo, omega, 1.0, 0.0)[FIBER]
        v = region_amplitudes(geo, omega, 0.0, 1.0)[FIBER]
        rot = cmath.exp(-1j * phi)
        want = intensity((u[0] + rot * v[0], u[1] + rot * v[1]))
        scale = (abs(u[0]) + abs(v[0])) ** 2 + (abs(u[1]) + abs(v[1])) ** 2
        errors.append(_close(f"darkmode ({i},{j}) fiber_intensity", got, want, RTOL_SCATTERING, scale))
        fit = fits[i]
        if float(fit["omega"]) != omega:
            errors.append(f"darkmode_fit row {i}: omega {fit['omega']} does not match map omega {row['omega']}")
            continue
        c0, c1, phi0 = float(fit["c0"]), float(fit["c1"]), float(fit["phi0"])
        errors.append(
            _close(f"darkmode ({i},{j}) sinusoid", c0 + c1 * math.cos(phi - phi0), got, RTOL_SINUSOID, c0 + abs(c1))
        )
    return [e for e in errors if e]


def check_delta(path: Path, config: dict) -> list[str]:
    zetas = config["zeta_grid"]
    rows = read_rows(path, range(len(zetas)))
    errors = []
    for i, zeta in enumerate(zetas):
        row = rows[i]
        if float(row["zeta"]) != zeta:
            errors.append(f"delta row {i}: zeta {row['zeta']} != configured {zeta!r}")
        if row["error"]:
            errors.append(f"delta row {i} (zeta={zeta}): error {row['error']!r}")
        for column in ("delta_left", "delta_right", "delta_mean", "kappa", "delta_mean_over_kappa"):
            if not math.isfinite(float(row[column])):
                errors.append(f"delta row {i} (zeta={zeta}): {column} = {row[column]}")
    return errors


def check_params(path: Path, config: dict) -> list[str]:
    geo = matched_geometry(config["geometry"])
    payload = json.loads(path.read_text(encoding="utf-8"))
    errors = [
        _close(f"params {key}", float(payload[key]["value"]), geo[key], RTOL_CLOSED_FORM)
        for key in ("kappa", "omega_c", "g")
    ]
    return [e for e in errors if e]
