import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import mpmath
import numpy as np
import pytest
from click.testing import CliRunner

import cascavity
import scattering_oracle as oracle
from cascavity import (
    build_cascade,
    default_omega_window,
    g_from_geometry,
    peak_separation_delta,
    sweep_coupled,
    sweep_scattering,
)
from cascavity.cli import main
from cascavity.config import parse_config
from cascavity.errors import FitFailureError
from test_coupled import dense_solve


def write_config(tmp_path, raw, name="run.json"):
    path = tmp_path / name
    path.write_text(json.dumps(raw))
    return path


def cascade_config(out_dir, **overrides):
    raw = {
        "schema_version": 1,
        "geometry": {
            "zeta": 5.0,
            "cavity_length": 1.0,
            "fiber_length": 5.0,
            "cavity_order": 10,
        },
        "output": {"directory": str(out_dir)},
    }
    raw.update(overrides)
    return raw


def read_csv(path):
    lines = path.read_text().splitlines()
    comments = [ln for ln in lines if ln.startswith("#")]
    body = [ln for ln in lines if not ln.startswith("#")]
    header = body[0].split(",")
    rows = [ln.split(",") for ln in body[1:]]
    return comments, header, rows


class TestSpectrumCommand:
    def test_writes_three_peak_csv(self, tmp_path):
        cfg = write_config(tmp_path, cascade_config(tmp_path / "out"))
        result = CliRunner().invoke(main, ["spectrum", "--config", str(cfg), "--grid-points", "801"])
        assert result.exit_code == 0, result.output
        comments, header, rows = read_csv(tmp_path / "out" / "spectrum.csv")
        assert header == ["omega", "scattering_value", "coupled_value", "omega_over_omega_c"]
        assert len(rows) == 801
        assert any("config:" in c for c in comments)
        scat = np.array([float(r[1]) for r in rows])
        peaks = np.sum((scat[1:-1] > scat[:-2]) & (scat[1:-1] > scat[2:]) & (scat[1:-1] > 1e-4))
        assert peaks == 3

    def test_byte_identical_reruns(self, tmp_path):
        cfg = write_config(tmp_path, cascade_config(tmp_path / "out"))
        runner = CliRunner()
        runner.invoke(main, ["spectrum", "--config", str(cfg), "--grid-points", "301", "--quiet"])
        first = (tmp_path / "out" / "spectrum.csv").read_bytes()
        runner.invoke(main, ["spectrum", "--config", str(cfg), "--grid-points", "301", "--quiet"])
        assert (tmp_path / "out" / "spectrum.csv").read_bytes() == first

    def test_csv_parses_to_the_computed_arrays(self, tmp_path):
        """spectrum.csv holds the computed float64s; at zeta = 1000 many lie in 1e-9 <= |x| < 1e-4."""
        geometry = {"zeta": 1000.0, "cavity_length": 1.0, "fiber_length": 5.0, "cavity_order": 10}
        cfg = write_config(tmp_path, cascade_config(tmp_path / "out", geometry=geometry))
        result = CliRunner().invoke(main, ["spectrum", "--config", str(cfg), "--quiet"])
        assert result.exit_code == 0, result.output
        got = np.loadtxt(tmp_path / "out" / "spectrum.csv", delimiter=",", skiprows=4)

        setup = build_cascade(1000.0, 1.0, 5.0, 10)
        grid = default_omega_window(setup)
        scattering = sweep_scattering(setup.stack, grid, 1.0, 0j).values
        coupled = sweep_coupled(setup.system, grid, 1.0, 0j).values
        for values in (scattering, coupled):
            assert np.count_nonzero((np.abs(values) >= 1e-9) & (np.abs(values) < 1e-4)) > 100
        want = np.column_stack([grid, scattering, coupled, grid / setup.system.omegas[0]])
        np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))

    def test_model_selection_drops_column(self, tmp_path):
        raw = cascade_config(tmp_path / "out", model="scattering")
        cfg = write_config(tmp_path, raw)
        result = CliRunner().invoke(main, ["spectrum", "--config", str(cfg), "--grid-points", "101"])
        assert result.exit_code == 0
        _, header, _ = read_csv(tmp_path / "out" / "spectrum.csv")
        assert header == ["omega", "scattering_value", "omega_over_omega_c"]

    def test_single_cavity_columns_agree_at_high_finesse(self, tmp_path):
        raw = cascade_config(tmp_path / "out")
        raw["geometry"] = {
            "zeta": 20.0,
            "cavity_length": 1.0,
            "cavity_order": 10,
            "single_cavity": True,
        }
        cfg = write_config(tmp_path, raw)
        result = CliRunner().invoke(main, ["spectrum", "--config", str(cfg), "--grid-points", "801"])
        assert result.exit_code == 0, result.output
        _, header, rows = read_csv(tmp_path / "out" / "spectrum.csv")
        scat = np.array([float(r[1]) for r in rows])
        coup = np.array([float(r[2]) for r in rows])
        # matched single-mode model reproduces the scattering line shape
        assert np.max(np.abs(scat - coup)) < 5e-3 * scat.max()

    def test_zero_point_sweep_is_config_error(self, tmp_path):
        raw = cascade_config(tmp_path / "out", sweep={"parameter": "omega", "min": 1.0, "max": 2.0, "points": 0})
        cfg = write_config(tmp_path, raw)
        result = CliRunner().invoke(main, ["spectrum", "--config", str(cfg)])
        assert result.exit_code == 2

    def test_unknown_key_is_config_error(self, tmp_path):
        raw = cascade_config(tmp_path / "out", unknown_section={"a": 1})
        cfg = write_config(tmp_path, raw)
        result = CliRunner().invoke(main, ["spectrum", "--config", str(cfg)])
        assert result.exit_code == 2
        assert "unknown_section" in result.output

    def test_svg_flag_writes_plot(self, tmp_path):
        cfg = write_config(tmp_path, cascade_config(tmp_path / "out"))
        result = CliRunner().invoke(
            main, ["spectrum", "--config", str(cfg), "--grid-points", "201", "--svg"]
        )
        assert result.exit_code == 0
        svg = (tmp_path / "out" / "spectrum.svg").read_text()
        assert svg.startswith("<svg") and svg.rstrip().endswith("</svg>")

    @pytest.mark.parametrize("drive, key", [({"a_in": 0.0, "d_in": 1.0}, "drive.a_in")])
    def test_zero_left_drive_is_config_error_for_scattering(self, tmp_path, drive, key):
        # both models' values are per unit incident power |a_in|^2
        for model in ("both", "scattering", "coupled"):
            cfg = write_config(tmp_path, cascade_config(tmp_path / "out", drive=drive, model=model))
            result = CliRunner().invoke(main, ["spectrum", "--config", str(cfg), "--grid-points", "101"])
            assert result.exit_code == 2, (model, result.output)
            assert key in result.output

    @pytest.mark.parametrize("drive, key", [({"a_in": 1.0, "d_in": 0.5}, "drive.d_in")])
    def test_single_cavity_right_drive_names_the_key(self, tmp_path, drive, key):
        raw = cascade_config(tmp_path / "out", drive=drive)
        raw["geometry"] = {"zeta": 5.0, "cavity_length": 1.0, "cavity_order": 10, "single_cavity": True}
        result = CliRunner().invoke(main, ["spectrum", "--config", str(write_config(tmp_path, raw))])
        assert result.exit_code == 2
        assert key in result.output

    @staticmethod
    def _spectrum_rows(tmp_path, single_cavity, a_in):
        raw = cascade_config(tmp_path / f"out{a_in}", drive={"a_in": a_in})
        if single_cavity:
            raw["geometry"] = {"zeta": 20.0, "cavity_length": 1.0, "cavity_order": 10, "single_cavity": True}
        cfg = write_config(tmp_path, raw, f"run{a_in}.json")
        result = CliRunner().invoke(main, ["spectrum", "--config", str(cfg), "--grid-points", "401"])
        assert result.exit_code == 0, result.output
        text = (tmp_path / f"out{a_in}" / "spectrum.csv").read_text()
        return [ln for ln in text.splitlines() if not ln.startswith("#")]

    @pytest.mark.parametrize("single_cavity", [False, True], ids=["cascade", "single_cavity"])
    def test_values_are_per_unit_incident_power(self, tmp_path, single_cavity):
        unit = self._spectrum_rows(tmp_path, single_cavity, 1.0)
        assert unit[0] == "omega,scattering_value,coupled_value,omega_over_omega_c"
        # scaling the drive by 2 scales every amplitude exactly, so the rows are the same bytes
        assert self._spectrum_rows(tmp_path, single_cavity, 2.0) == unit
        other = self._spectrum_rows(tmp_path, single_cavity, 0.7)
        want, got = (np.array([[float(c) for c in row.split(",")] for row in rows[1:]]) for rows in (unit, other))
        np.testing.assert_allclose(got, want, rtol=1e-14, atol=0)

    def test_numerical_failure_exit_code(self, tmp_path, monkeypatch):
        import cascavity.runs as runs

        def boom(*args, **kwargs):
            raise FitFailureError("forced failure")

        monkeypatch.setattr(runs, "run_spectrum", boom)
        cfg = write_config(tmp_path, cascade_config(tmp_path / "out"))
        result = CliRunner().invoke(main, ["spectrum", "--config", str(cfg)])
        assert result.exit_code == 3


class TestDeltaCommand:
    def test_delta_csv_columns_and_trend(self, tmp_path):
        raw = cascade_config(tmp_path / "out", zeta_grid=[3.0, 5.0])
        cfg = write_config(tmp_path, raw)
        result = CliRunner().invoke(main, ["delta", "--config", str(cfg), "--grid-points", "2001"])
        assert result.exit_code == 0, result.output
        _, header, rows = read_csv(tmp_path / "out" / "delta.csv")
        assert header == [
            "zeta",
            "delta_left",
            "delta_right",
            "delta_mean",
            "kappa",
            "error",
            "delta_mean_over_kappa",
            "scat_hw_lo",
            "scat_hw_mid",
            "scat_hw_hi",
            "coupled_hw_lo",
            "coupled_hw_mid",
            "coupled_hw_hi",
            "fiber_order",
        ]
        assert len(rows) == 2
        assert all(r[5] == "" for r in rows)
        means = [abs(float(r[3])) for r in rows]
        assert means[1] < means[0]

    def test_single_zeta_single_row(self, tmp_path):
        raw = cascade_config(tmp_path / "out", zeta_grid=[5.0])
        cfg = write_config(tmp_path, raw)
        result = CliRunner().invoke(main, ["delta", "--config", str(cfg), "--grid-points", "2001"])
        assert result.exit_code == 0
        _, _, rows = read_csv(tmp_path / "out" / "delta.csv")
        assert len(rows) == 1

    def _error_row(self, tmp_path, stage):
        raw = cascade_config(tmp_path / "out", zeta_grid=[5.0, 20.0])
        result = CliRunner().invoke(main, ["delta", "--config", str(write_config(tmp_path, raw))])
        assert result.exit_code == 0, result.output
        _, header, rows = read_csv(tmp_path / "out" / "delta.csv")
        assert len(rows[0]) == len(header)  # the message holds no comma
        row = dict(zip(header, rows[0]))
        assert "zeta=5.0" in row["error"] and stage in row["error"]
        scat_widths = [c for c in header if c.startswith("scat_hw_")]
        for column in ["delta_left", "delta_right", "delta_mean", "delta_mean_over_kappa", *scat_widths]:
            assert row[column] == "nan", column
        return rows

    def test_pole_non_convergence_recorded_not_fatal(self, tmp_path, monkeypatch):
        import cascavity.scattering

        monkeypatch.setattr(cascavity.scattering, "_NEWTON_MAX_ITER", 1)
        rows = self._error_row(tmp_path, "Newton on m22")
        assert "zeta=20.0" in rows[1][5]

    def test_duplicate_pole_recorded_not_fatal(self, tmp_path, monkeypatch):
        import cascavity.spectra

        def equal_starts(chain):
            return (complex(chain.omegas[0], -chain.kappa),) * 3

        monkeypatch.setattr(cascavity.spectra, "mode_poles", equal_starts)
        self._error_row(tmp_path, "same pole")

    def test_nominal_alignment_gives_finite_row(self, tmp_path):
        raw = cascade_config(tmp_path / "out", zeta_grid=[5.0], fiber_alignment="nominal")
        result = CliRunner().invoke(main, ["delta", "--config", str(write_config(tmp_path, raw))])
        assert result.exit_code == 0, result.output
        _, header, rows = read_csv(tmp_path / "out" / "delta.csv")
        row = dict(zip(header, rows[0]))
        assert row["error"] == ""
        assert float(row["delta_mean_over_kappa"]) == pytest.approx(-0.0133, abs=5e-4)

    @staticmethod
    def _data_rows(tmp_path, **geometry) -> list[str]:
        raw = cascade_config(tmp_path / "out", zeta_grid=[2.0, 5.0, 20.0])
        raw["geometry"].update(geometry)
        result = CliRunner().invoke(main, ["delta", "--config", str(write_config(tmp_path, raw))])
        assert result.exit_code == 0, result.output
        return [ln for ln in (tmp_path / "out" / "delta.csv").read_text().splitlines() if not ln.startswith("#")][1:]

    def test_fiber_order_reaches_every_row(self, tmp_path):
        """Each zeta's cascade is built from the whole geometry, the configured fiber order included."""
        nearest = self._data_rows(tmp_path)
        for order in (48, 50):
            rows = self._data_rows(tmp_path, fiber_order=order)
            entries = peak_separation_delta([2.0, 5.0, 20.0], lambda z: build_cascade(z, 1.0, 5.0, 10, order))
            expected = [
                [e.zeta, e.delta_left, e.delta_right, e.delta_mean, e.kappa, e.error or "", e.delta_mean / e.kappa]
                + [-p.imag for p in (*e.scattering_poles, *e.coupled_poles)]
                + [e.fiber_order]
                for e in entries
            ]
            assert [[float(c) if c else c for c in row.split(",")] for row in rows] == expected, order
            if order == 48:
                assert all(a != b for a, b in zip(rows, nearest))
        # unset, the order is the nearest at each zeta: 50 at zeta = 5 and 20, but 51 at zeta = 2
        assert rows[1:] == nearest[1:] and rows[0] != nearest[0]

    @staticmethod
    def _fiber_orders(tmp_path, **geometry) -> list[tuple[str, str]]:
        raw = cascade_config(tmp_path / "out", zeta_grid=[2, 3, 5, 20])
        raw["geometry"].update(geometry)
        result = CliRunner().invoke(main, ["delta", "--config", str(write_config(tmp_path, raw))])
        assert result.exit_code == 0, result.output
        _, header, rows = read_csv(tmp_path / "out" / "delta.csv")
        return [(row[header.index("error")], row[header.index("fiber_order")]) for row in rows]

    def test_fiber_order_column(self, tmp_path, monkeypatch):
        """Each row records the fiber order its cascade was matched at, as an integer."""
        assert self._fiber_orders(tmp_path) == [("", "51"), ("", "50"), ("", "50"), ("", "50")]
        assert self._fiber_orders(tmp_path, fiber_order=48) == [("", "48")] * 4
        import cascavity.scattering

        monkeypatch.setattr(cascavity.scattering, "_NEWTON_MAX_ITER", 1)
        rows = self._fiber_orders(tmp_path, fiber_order=48)
        assert all(error and order == "48" for error, order in rows)

    def test_grid_points_do_not_change_delta(self, tmp_path):
        # 50 points once ended the coarse-grid Lorentzian fit at max_nfev; poles need no grid
        raw = cascade_config(tmp_path / "out", zeta_grid=[20.0])
        cfg = write_config(tmp_path, raw)
        outputs = []
        for points in ("50", "40001"):
            result = CliRunner().invoke(main, ["delta", "--config", str(cfg), "--grid-points", points])
            assert result.exit_code == 0, result.output
            outputs.append((tmp_path / "out" / "delta.csv").read_bytes())
        assert outputs[0] == outputs[1]
        _, _, rows = read_csv(tmp_path / "out" / "delta.csv")
        assert rows[0][5] == ""

    def test_sweep_is_config_error(self, tmp_path):
        sweep = {"parameter": "omega", "min": 31.4, "max": 31.8, "points": 101}
        cfg = write_config(tmp_path, cascade_config(tmp_path / "out", zeta_grid=[5.0], sweep=sweep))
        result = CliRunner().invoke(main, ["delta", "--config", str(cfg)])
        assert result.exit_code == 2
        assert "sweep" in result.output and "--grid-points" in result.output

    def test_missing_zeta_grid_is_config_error(self, tmp_path):
        cfg = write_config(tmp_path, cascade_config(tmp_path / "out"))
        result = CliRunner().invoke(main, ["delta", "--config", str(cfg)])
        assert result.exit_code == 2


class TestProfileCommand:
    def test_profile_columns(self, tmp_path):
        cfg = write_config(tmp_path, cascade_config(tmp_path / "out"))
        result = CliRunner().invoke(main, ["profile", "--config", str(cfg), "--grid-points", "401"])
        assert result.exit_code == 0, result.output
        _, header, rows = read_csv(tmp_path / "out" / "profile.csv")
        assert header == [
            "omega",
            "scat_left",
            "scat_right",
            "coupled_left",
            "coupled_right",
            "omega_over_omega_c",
        ]
        assert len(rows) == 401

    def test_far_detuned_window_is_dark(self, tmp_path):
        omega_c = 10 * math.pi + math.atan2(1, 40.0)
        raw = cascade_config(tmp_path / "out")
        raw["geometry"]["zeta"] = 40.0
        raw["sweep"] = {"parameter": "omega", "min": omega_c + 1.2, "max": omega_c + 1.9, "points": 51}
        cfg = write_config(tmp_path, raw)
        result = CliRunner().invoke(main, ["profile", "--config", str(cfg)])
        assert result.exit_code == 0
        _, _, rows = read_csv(tmp_path / "out" / "profile.csv")
        for r in rows:
            assert all(float(v) < 1e-3 for v in r[1:5])


class TestDarkmodeCommand:
    def test_scan_and_fit_files(self, tmp_path):
        raw = cascade_config(
            tmp_path / "out", phase_grid={"min": -math.pi, "max": math.pi, "points": 41}
        )
        cfg = write_config(tmp_path, raw)
        result = CliRunner().invoke(main, ["darkmode", "--config", str(cfg), "--grid-points", "101"])
        assert result.exit_code == 0, result.output
        _, header, rows = read_csv(tmp_path / "out" / "darkmode.csv")
        assert header == ["omega", "phi", "fiber_intensity", "omega_over_omega_c"]
        assert len(rows) == 101 * 41
        _, fit_header, fit_rows = read_csv(tmp_path / "out" / "darkmode_fit.csv")
        assert fit_header == ["omega", "c0", "c1", "phi0", "residual", "phi_min", "omega_over_omega_c"]
        assert len(fit_rows) == 101
        # scattering-model minima sit near phi = 0
        best = min(fit_rows, key=lambda r: (float(r[1]) - float(r[2])) / float(r[1]))
        assert abs(float(best[5])) < 0.1

    def test_narrow_phase_grid_gives_the_full_period_fit(self, tmp_path):
        # the closed form comes from two drives, not from the phase samples
        fits = []
        for name, phase in (("full", {"min": -math.pi, "max": math.pi, "points": 181}),
                            ("narrow", {"min": -0.5, "max": 0.5, "points": 11})):
            cfg = write_config(tmp_path, cascade_config(tmp_path / name, phase_grid=phase), f"{name}.json")
            result = CliRunner().invoke(main, ["darkmode", "--config", str(cfg), "--grid-points", "101"])
            assert result.exit_code == 0, result.output
            _, header, rows = read_csv(tmp_path / name / "darkmode_fit.csv")
            fits.append([[r[header.index(c)] for c in ("c0", "c1", "phi0", "phi_min")] for r in rows])
        assert len(fits[0]) == 101
        assert fits[0] == fits[1]


class TestMatchCommand:
    def test_params_json_values_and_provenance(self, tmp_path):
        cfg = write_config(tmp_path, cascade_config(tmp_path / "out"))
        result = CliRunner().invoke(main, ["match", "--config", str(cfg)])
        assert result.exit_code == 0, result.output
        payload = json.loads((tmp_path / "out" / "params.json").read_text())
        assert payload["kappa"]["value"] == pytest.approx(0.019612, abs=1e-6)
        assert payload["g"]["value"] == pytest.approx(1 / (2 * math.sqrt(5) * math.sqrt(26)), rel=1e-12)
        assert "formula" in payload["kappa"] and "formula" in payload["g"]
        assert payload["omega_f"]["order"] == 50
        assert payload["eta_l"]["value"] == pytest.approx(math.sqrt(payload["kappa"]["value"]), rel=1e-12)

    @pytest.mark.parametrize("alignment", ["resonant", "nominal"])
    def test_params_json_records_the_model_coupling(self, tmp_path, alignment):
        cfg = write_config(tmp_path, cascade_config(tmp_path / "out", fiber_alignment=alignment))
        result = CliRunner().invoke(main, ["match", "--config", str(cfg)])
        assert result.exit_code == 0, result.output
        payload = json.loads((tmp_path / "out" / "params.json").read_text())
        g = payload["g"]
        assert g["model_value"] == build_cascade(5.0, 1.0, 5.0, 10, fiber_alignment=alignment).system.couplings[0]
        assert g["model_value"] == g_from_geometry(5.0, 1.0, g["model_fiber_length"])
        if alignment == "nominal":
            assert g["model_fiber_length"] == 5.0 and g["model_value"] == g["value"]
        else:
            assert g["model_fiber_length"] == payload["resonant_fiber_length"]["value"]
            assert g["model_value"] == pytest.approx(0.0439628, abs=1e-7)  # nominal g is 0.0438529
            assert g["value"] == pytest.approx(0.0438529, abs=1e-7)

    def test_out_flag_overrides_directory(self, tmp_path):
        cfg = write_config(tmp_path, cascade_config(tmp_path / "ignored"))
        result = CliRunner().invoke(
            main, ["match", "--config", str(cfg), "--out", str(tmp_path / "custom")]
        )
        assert result.exit_code == 0
        assert (tmp_path / "custom" / "params.json").exists()
        assert not (tmp_path / "ignored").exists()

    @pytest.mark.parametrize("via_flag", [True, False], ids=["out_flag", "config"])
    def test_output_directory_under_a_file_is_config_error(self, tmp_path, via_flag):
        (tmp_path / "afile").write_text("not a directory")
        target = tmp_path / "afile" / "sub"
        cfg = write_config(tmp_path, cascade_config(tmp_path / "out" if via_flag else target))
        args = ["match", "--config", str(cfg), *(["--out", str(target)] if via_flag else [])]
        result = CliRunner().invoke(main, args)
        assert result.exit_code == 2, result.output
        assert result.output.startswith("configuration error:") and str(target) in result.output

    def test_pump_drive_strengths_reach_the_provenance(self, tmp_path):
        payloads = []
        for d_in in (0.5, 0.7):
            raw = cascade_config(tmp_path / f"out{d_in}", drive={"a_in": 1.0, "d_in": d_in, "d_phase": 0.5})
            result = CliRunner().invoke(main, ["match", "--config", str(write_config(tmp_path, raw))])
            assert result.exit_code == 0, result.output
            payloads.append(json.loads((tmp_path / f"out{d_in}" / "params.json").read_text()))
        for payload, d_in in zip(payloads, (0.5, 0.7)):
            assert payload["config"]["drive"] == {"a_in": 1.0, "d_in": d_in, "d_phase": 0.5}
            kappa = payload["kappa"]["value"]
            assert payload["eta_l"] == {"value": math.sqrt(kappa), "formula": "sqrt(kappa)*a_in", "a_in": 1.0}
            eta_r = {"value": math.sqrt(kappa) * d_in, "formula": "sqrt(kappa)*d_in", "d_in": d_in, "phi": 0.5}
            assert payload["eta_r"] == eta_r
        assert payloads[0]["eta_r"]["value"] < payloads[1]["eta_r"]["value"]
        # unset drive keys take their defaults in the header
        field = parse_config(cascade_config("out")).resolved()["drive"]
        assert field == {"a_in": 1.0, "d_in": 0.0, "d_phase": 0.0}


class TestGridProvenance:
    """The header records the grid a run sampled, so its config reproduces the data without the flag."""

    @pytest.mark.parametrize("command", ["spectrum", "profile", "darkmode"])
    def test_header_config_reproduces_the_rows(self, tmp_path, command):
        raw = cascade_config(tmp_path / "flag", phase_grid={"min": -1.0, "max": 1.0, "points": 5})
        cfg = write_config(tmp_path, raw)
        result = CliRunner().invoke(main, [command, "--config", str(cfg), "--grid-points", "11", "--svg"])
        assert result.exit_code == 0, result.output
        comments, _, _ = read_csv(tmp_path / "flag" / f"{command}.csv")
        (text,) = [c[len("# config: "):] for c in comments if c.startswith("# config: ")]
        assert f"config {text} -->" in (tmp_path / "flag" / f"{command}.svg").read_text()
        resolved = json.loads(text)
        assert resolved["sweep"]["points"] == 11
        resolved["output"]["directory"] = str(tmp_path / "header")
        result = CliRunner().invoke(main, [command, "--config", str(write_config(tmp_path, resolved, "header.json"))])
        assert result.exit_code == 0, result.output
        for path in (tmp_path / "flag").glob("*.csv"):
            rows = [ln for ln in path.read_bytes().splitlines(True) if not ln.startswith(b"#")]
            again = (tmp_path / "header" / path.name).read_bytes().splitlines(True)
            assert [ln for ln in again if not ln.startswith(b"#")] == rows


def written_configs(directory):
    """Every config a run wrote into ``directory``: CSV ``# config:`` lines, SVG comments, params.json."""
    configs = {}
    for path in sorted(directory.iterdir()):
        text = path.read_text()
        if path.suffix == ".csv":
            (line,) = [ln for ln in text.splitlines() if ln.startswith("# config: ")]
            configs[path.name] = json.loads(line[len("# config: "):])
        elif path.suffix == ".svg":
            comment = text.split("<!-- ", 1)[1].split(" -->", 1)[0]
            assert "--" not in comment
            configs[path.name] = json.loads(comment.split(" config ", 1)[1])
        else:
            configs[path.name] = json.loads(text)["config"]
    return configs


class TestHeaderConfig:
    """The config an output records is a valid input config, in CSV headers, SVG comments and params.json alike."""

    @pytest.mark.parametrize("command", ["spectrum", "delta", "profile", "darkmode", "match"])
    def test_every_written_config_parses(self, tmp_path, command):
        raw = cascade_config(
            tmp_path / "out", zeta_grid=[5.0, 20.0], phase_grid={"min": -1.0, "max": 1.0, "points": 5}
        )
        args = [command, "--config", str(write_config(tmp_path, raw)), "--grid-points", "11", "--svg"]
        result = CliRunner().invoke(main, args)
        assert result.exit_code == 0, result.output
        configs = written_configs(tmp_path / "out")
        assert configs
        for name, config in configs.items():
            assert parse_config(config).geometry.zeta == 5.0, name

    # command -> (SVG title, legend labels in series order)
    SVG_TEXT = {
        "spectrum": ("transmission spectrum", ["scattering", "coupled"]),
        "delta": ("model disagreement vs mirror polarizability", ["|delta_mean|", "kappa"]),
        "profile": (
            "intracavity intensities, left-side drive",
            ["scattering left", "scattering right", "coupled left", "coupled right"],
        ),
        "darkmode": ("fiber intensity (log scale)", []),
    }

    @pytest.mark.parametrize("command", list(SVG_TEXT))
    def test_svg_comment_decodes_to_the_csv_config(self, tmp_path, command):
        # "--" may not appear in an XML comment, so the SVG writes it as "-\u002d"
        out = tmp_path / "run--1"
        raw = cascade_config(out, zeta_grid=[5.0, 20.0], phase_grid={"min": -1.0, "max": 1.0, "points": 5})
        args = [command, "--config", str(write_config(tmp_path, raw)), "--grid-points", "11", "--svg"]
        result = CliRunner().invoke(main, args)
        assert result.exit_code == 0, result.output
        configs = written_configs(out)
        assert configs[f"{command}.svg"] == configs[f"{command}.csv"]
        assert configs[f"{command}.svg"]["output"]["directory"] == str(out)
        texts = re.findall(r"<text [^>]*>([^<]*)</text>", (out / f"{command}.svg").read_text())
        title, labels = self.SVG_TEXT[command]
        assert texts[0] == title
        if labels:
            assert texts[-len(labels):] == labels
        else:  # the heat map's last text is its colour scale
            assert texts[-1].startswith("log10: ")


class TestOversizedIntegers:
    """A JSON integer beyond the float64 range is a configuration error that names its key or the file."""

    @pytest.mark.parametrize("key", ["zeta", "cavity_order", "fiber_order"])
    def test_400_digit_integer_names_the_key(self, tmp_path, key):
        raw = cascade_config(tmp_path / "out")
        raw["geometry"][key] = 10**400
        result = CliRunner().invoke(main, ["spectrum", "--config", str(write_config(tmp_path, raw))])
        assert result.exit_code == 2, result.output
        assert result.output.startswith("configuration error:") and f"geometry.{key}" in result.output

    def test_integer_past_the_digit_limit_names_the_file(self, tmp_path):
        raw = cascade_config(tmp_path / "out")
        raw["geometry"]["zeta"] = "ZETA"
        path = tmp_path / "run.json"
        path.write_text(json.dumps(raw).replace('"ZETA"', "1" + "0" * 4999))
        result = CliRunner().invoke(main, ["spectrum", "--config", str(path)])
        assert result.exit_code == 2, result.output
        # json.loads refuses the literal where int() has a digit limit (Python 3.10.7 on); otherwise the key check does
        limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
        assert result.output.startswith("configuration error:")
        assert (str(path) if 0 < limit < 5000 else "geometry.zeta") in result.output


class TestUnreadableConfigFile:
    """A config file that cannot be decoded is a configuration error naming the file, not a traceback."""

    def run(self, tmp_path, content: bytes):
        path = tmp_path / "run.json"
        path.write_bytes(content)
        result = CliRunner().invoke(main, ["spectrum", "--config", str(path)])
        assert result.exit_code == 2, result.output
        assert result.output.startswith("configuration error:") and str(path) in result.output
        return result.output

    def test_non_utf8_bytes(self, tmp_path):
        assert "UTF-8" in self.run(tmp_path, b'{"schema_version": 1, "model": "\xff"}')

    def test_nesting_past_the_recursion_limit(self, tmp_path):
        assert "too deeply" in self.run(tmp_path, b"[" * 200000 + b"]" * 200000)


class TestCollapsedGrid:
    """A grid too fine for float64 is a configuration error naming the command, the grid's source, ends and step.

    It repeats points, so its steps run from 0: the uneven-grid refusal, whose message also gives the float64
    spacing at the grid's top.
    """

    def run(self, tmp_path, command, *flags, **overrides):
        raw = cascade_config(tmp_path / "out", **overrides)
        result = CliRunner().invoke(main, [command, "--config", str(write_config(tmp_path, raw)), *flags])
        assert result.exit_code == 2, result.output
        assert result.output.startswith(f"configuration error: {command}: the grid from ")
        assert "does not increase evenly: its steps run from 0 to " in result.output
        assert "the float64 spacing at its top is " in result.output
        return result.output

    @pytest.mark.parametrize("command", ["spectrum", "profile", "darkmode"])
    def test_sweep_keys(self, tmp_path, command):
        sweep = {"parameter": "omega", "min": 1.0, "max": 1.0000000000000002, "points": 5}
        output = self.run(tmp_path, command, sweep=sweep)
        assert "sweep.min/sweep.max/sweep.points (5 points over [1.0, 1.0000000000000002])" in output
        assert f"its step {(1.0000000000000002 - 1.0) / 4:.3g}" in output
        assert f"the float64 spacing at its top is {np.spacing(1.0000000000000002):.3g}" in output

    def test_grid_points_flag(self, tmp_path):
        # three points over four ulps are distinct; fifty are not
        sweep = {"parameter": "omega", "min": 31.0, "max": 31.000000000000014, "points": 3}
        output = self.run(tmp_path, "spectrum", "--grid-points", "50", sweep=sweep)
        assert "sweep.min/sweep.max and --grid-points (50 points over [31.0, 31.000000000000014])" in output

    @pytest.mark.parametrize("command", ["spectrum", "profile"])
    def test_default_window(self, tmp_path, command):
        # the window is omega_c +- 3*sqrt(2)*g, and g ~ 1/(2*sqrt(5)*zeta) leaves 4001 points below one ulp apart
        geometry = {"zeta": 1e12, "cavity_length": 1.0, "fiber_length": 5.0, "cavity_order": 10}
        output = self.run(tmp_path, command, geometry=geometry)
        assert "the default window at geometry.zeta = 1000000000000.0 (4001 points over [31.4" in output

    @pytest.mark.parametrize("command", ["spectrum", "profile", "darkmode"])
    def test_window_collapsed_to_one_point(self, tmp_path, command):
        # at zeta = 1e16 the window's half width is below half a float64 spacing of omega_c: every step is 0
        geometry = {"zeta": 1e16, "cavity_length": 1.0, "fiber_length": 5.0, "cavity_order": 10}
        output = self.run(tmp_path, command, geometry=geometry)
        top = build_cascade(1e16, 1.0, 5.0, 10).system.omegas[0]
        assert f"points over [{top!r}, {top!r}])" in output
        assert "its steps run from 0 to 0, not within 1% of its step 0 of each other" in output
        assert f"the float64 spacing at its top is {np.spacing(top):.3g}" in output


class TestUnevenGrid:
    """A grid whose float64 steps spread by more than 1% of its step is a configuration error, not a skewed map."""

    def run(self, tmp_path, zeta):
        geometry = {"zeta": zeta, "cavity_length": 1.0, "fiber_length": 5.0, "cavity_order": 10}
        raw = cascade_config(tmp_path / "out", geometry=geometry)
        return CliRunner().invoke(main, ["darkmode", "--config", str(write_config(tmp_path, raw))])

    # darkmode's 401-point default window: its steps spread by 7.5% of the step at 1e11, 75% at 1e12
    @pytest.mark.parametrize("zeta", [1e11, 1e12])
    def test_default_darkmode_window(self, tmp_path, zeta):
        result = self.run(tmp_path, zeta)
        assert result.exit_code == 2, result.output
        grid = default_omega_window(build_cascade(zeta, 1.0, 5.0, 10), 401)
        steps = np.diff(grid)
        ends = f"[{float(grid[0])!r}, {float(grid[-1])!r}]"
        where = f"the grid from the default window at geometry.zeta = {zeta!r} (401 points over {ends})"
        assert result.output.startswith(f"configuration error: darkmode: {where} does not increase evenly")
        assert f"its steps run from {steps.min():.3g} to {steps.max():.3g}" in result.output
        assert f"the float64 spacing at its top is {np.spacing(grid[-1]):.3g}" in result.output
        assert not any((tmp_path / "out").iterdir())

    def test_spread_below_one_percent_runs(self, tmp_path):
        # 0.75% of the step at 1e10
        result = self.run(tmp_path, 1e10)
        assert result.exit_code == 0, result.output
        assert (tmp_path / "out" / "darkmode.csv").is_file()


class TestStartup:
    def test_delta_runs_without_scipy(self, tmp_path):
        # scipy.optimize was most of the CLI's import time; only lorentzian_fit imports it now.
        # orjson is imported by the first CSV write, not at start-up.
        raw = cascade_config(tmp_path / "out", zeta_grid=[3.0, 5.0, 8.0, 12.0, 20.0])
        cfg = write_config(tmp_path, raw)
        code = (
            "import sys\n"
            "import cascavity.cli, cascavity.runs, cascavity.svgplot\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'orjson'))\n"
            f"cascavity.cli.main(['delta', '--config', {str(cfg)!r}, '--quiet'], standalone_mode=False)\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
        )
        src = str(Path(cascavity.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": src}
        done = subprocess.run([sys.executable, "-c", code], cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        assert done.stdout.split() == ["[]", "[]"]
        assert (tmp_path / "out" / "delta.csv").exists()


class TestExtremeZeta:
    """Where the stack matrix overflows or kappa underflows, a command exits 3 with a message that names zeta.

    delta's pole search is the exception: it reports its overflow in the row's error cell, which names zeta too.
    """

    def run(self, tmp_path, command, zeta, **overrides):
        raw = cascade_config(tmp_path / "out", **overrides)
        raw["geometry"]["zeta"] = zeta
        return CliRunner().invoke(main, [command, "--config", str(write_config(tmp_path, raw))])

    @pytest.mark.parametrize("command", ["spectrum", "profile", "darkmode"])
    def test_transfer_matrix_overflow(self, tmp_path, command):
        # the default window collapses at this zeta, so the sweep is explicit
        sweep = {"parameter": "omega", "min": 31.0, "max": 32.0, "points": 11}
        result = self.run(tmp_path, command, 1e100, sweep=sweep)
        assert result.exit_code == 3
        assert "boundary solve" in result.output and "zeta = 1e+100" in result.output
        assert not (tmp_path / "out").exists() or not any((tmp_path / "out").iterdir())

    def test_region_intensities_keep_their_digits_off_resonance(self, tmp_path):
        # at zeta = 1e8 the fiber and the left cavity lie where a wave propagated from one end of the stack loses
        # every digit (fiber intensity 267.5 for an exact 2.7e-22); the rows must match a 150-digit solve.
        # The coupled right cavity must keep its digits too: formed as a difference of two nearly equal terms
        # it was up to 19 (relative) off on these rows, and 0.0 on 20 of the 201
        sweep = {"parameter": "omega", "min": 31.0, "max": 32.0, "points": 201}
        phases = {"min": -3.14159, "max": 3.14159, "points": 5}
        for command in ("profile", "darkmode"):
            result = self.run(tmp_path, command, 1e8, sweep=sweep, phase_grid=phases)
            assert result.exit_code == 0, result.output
        setup = build_cascade(1e8, 1.0, 5.0, 10)
        stack = setup.stack
        _, header, rows = read_csv(tmp_path / "out" / "profile.csv")
        for row in rows[::50]:
            alpha, _, beta = dense_solve(setup.system, float(row[0]), 1.0, 0.0)
            for name, amplitude in (("coupled_left", alpha), ("coupled_right", beta)):
                want = abs(amplitude) ** 2
                assert abs(float(row[header.index(name)]) - want) <= 1e-12 * want, (name, row[0])
        with mpmath.workdps(150):
            for row in rows[::50]:
                omega = float(row[0])
                regions = oracle.solve(stack, mpmath.mpf(omega), 1, 0, mpmath.exp)[2]
                for name, (right, left) in (("scat_left", regions[1]), ("scat_right", regions[5])):
                    want = abs(right) ** 2 + abs(left) ** 2
                    assert abs(float(row[header.index(name)]) - want) <= 1e-12 * want, (name, omega)
        _, header, rows = read_csv(tmp_path / "out" / "darkmode.csv")
        assert len(rows) == 201 * 5
        with mpmath.workdps(150):
            for row in rows[::47]:
                omega, phi = float(row[0]), float(row[1])
                u, v = (oracle.solve(stack, mpmath.mpf(omega), *drive, mpmath.exp)[2][3] for drive in ((1, 0), (0, 1)))
                r = mpmath.exp(-1j * mpmath.mpf(phi))
                want = abs(u[0] + r * v[0]) ** 2 + abs(u[1] + r * v[1]) ** 2
                # relative to (|u| + |v|)^2, which bounds the map over phi, since u + r*v may cancel
                scale = (mpmath.sqrt(abs(u[0]) ** 2 + abs(u[1]) ** 2) + mpmath.sqrt(abs(v[0]) ** 2 + abs(v[1]) ** 2)) ** 2
                assert abs(float(row[header.index("fiber_intensity")]) - want) <= 1e-12 * scale, (omega, phi)

    @pytest.mark.parametrize("command", ["spectrum", "delta", "profile", "darkmode", "match"])
    def test_kappa_underflow(self, tmp_path, command):
        result = self.run(tmp_path, command, 1e160, zeta_grid=[1e160])
        assert result.exit_code == 3
        assert "zeta = 1e+160 and l_c = 1.0" in result.output

    @pytest.mark.parametrize(
        "overrides",
        [
            {"model": "coupled"},
            {"geometry": {"cavity_length": 1.0, "cavity_order": 10, "single_cavity": True}, "model": "both"},
        ],
        ids=["cascade_coupled", "single_cavity_both"],
    )
    def test_plot_with_nothing_to_draw(self, tmp_path, overrides):
        # every transmitted value underflows to 0.0, which the log10 y axis cannot draw: the written CSV stays,
        # the plot is a numerical failure naming its file
        sweep = {"parameter": "omega", "min": 31.0, "max": 32.0, "points": 201}
        raw = {**cascade_config(tmp_path / "out", sweep=sweep), **overrides}
        raw["geometry"]["zeta"] = 1e100
        env = {**os.environ, "PYTHONPATH": str(Path(cascavity.__file__).resolve().parents[1])}
        command = [sys.executable, "-m", "cascavity.cli", "spectrum", "--svg", "--config", str(write_config(tmp_path, raw))]
        done = subprocess.run(command, cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)
        output = done.stdout + done.stderr
        assert done.returncode == 3, output
        assert "spectrum.svg: nothing to plot" in output and "Traceback" not in output
        assert not (tmp_path / "out" / "spectrum.svg").exists()
        _, _, rows = read_csv(tmp_path / "out" / "spectrum.csv")
        assert len(rows) == 201 and {float(v) for row in rows for v in row[1:-1]} == {0.0}

    def test_pole_search_overflow(self, tmp_path):
        # kappa is still representable here, but the stack's m22 overflows: the row's error names zeta and the overflow
        cfg = write_config(tmp_path, cascade_config(tmp_path / "out", zeta_grid=[1e100]))
        env = {**os.environ, "PYTHONPATH": str(Path(cascavity.__file__).resolve().parents[1])}
        command = [sys.executable, "-m", "cascavity.cli", "delta", "--config", str(cfg), "--quiet"]
        done = subprocess.run(command, cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)
        assert done.returncode == 0 and done.stderr == "", done.stderr
        _, header, rows = read_csv(tmp_path / "out" / "delta.csv")
        error = rows[0][header.index("error")]
        assert error.startswith("zeta=1e+100: ") and "overflows" in error

    def test_unresolvable_splitting_names_the_tolerance(self, tmp_path):
        # the side splitting sqrt(2)*g = 3.2e-12 is below the 1e-12 * |omega| at which two poles count as one
        result = self.run(tmp_path, "delta", 5.0, zeta_grid=[1e11])
        assert result.exit_code == 0, result.output
        _, header, rows = read_csv(tmp_path / "out" / "delta.csv")
        error = rows[0][header.index("error")]
        omega_c = build_cascade(1e11, 1.0, 5.0, 10).system.omegas[0]
        # the cell names zeta as the zeta column writes it (repr(1e11) is "100000000000.0")
        assert error.startswith(f"zeta={1e11!r}: ") and rows[0][header.index("zeta")] == repr(1e11)
        assert "same pole" in error
        assert f"below the tolerance {1e-12 * omega_c:.3g}" in error
