import json
import math
import os
import subprocess
import sys
from pathlib import Path

import jsonschema
import numpy as np
import pytest

from trapquad.cli import load_run_config, main, trap_from_config
from trapquad.dynamics import RwaSystem
from trapquad.errors import InvalidInputError
from trapquad.inference import NoiseModel, simulate_counts
from trapquad.species import load_species

TWO_PI = 2 * math.pi

SRC = Path(__file__).resolve().parent.parent / "src"
SCHEMAS = SRC / "trapquad" / "schemas"
OUTPUT_SCHEMA = json.loads((SCHEMAS / "cli_output.schema.json").read_text())


@pytest.fixture
def ba_config(tmp_path):
    cfg = {
        "schema_version": 1,
        "trap": {
            "omega_rf_hz": 20.585e6,
            "preset": "ideal-linear",
            "secular_hz": {"omega_x": 990e3, "omega_y": 895e3, "omega_z": 112e3},
            "mass_u": 137.905,
            "alpha_deg": 0.0,
            "beta_deg": 0.0,
        },
    }
    path = tmp_path / "ba_trap.json"
    path.write_text(json.dumps(cfg))
    return str(path)


@pytest.fixture
def lu_config(tmp_path):
    cfg = {
        "schema_version": 1,
        "trap": {
            "omega_rf_hz": 33e6,
            "preset": "ideal-linear",
            "omega_s_hz": 1e6,
        },
    }
    path = tmp_path / "lu_trap.json"
    path.write_text(json.dumps(cfg))
    return str(path)


def run_to_file(tmp_path, argv, name="out"):
    out = tmp_path / name
    code = main(argv + ["--output", str(out)])
    return code, out


class TestMatrixElements:
    def test_ba_beta_zero_has_dm2_only(self, tmp_path, ba_config):
        code, out = run_to_file(tmp_path, [
            "matrix-elements", "--species", "ba138", "--level", "D5/2",
            "--manifold", "5/2", "--config", ba_config, "--format", "json",
        ])
        assert code == 0
        payload = json.loads(out.read_text())
        jsonschema.validate(payload, OUTPUT_SCHEMA)
        assert payload["entries"], "no couplings found"
        for entry in payload["entries"]:
            dm = abs(int(entry["bra_m"].split("/")[0]) -
                     int(entry["ket_m"].split("/")[0]))
            assert dm == 4  # twice-values: |dm| = 2

    def test_lu_diagonal_proportional_to_c2(self, tmp_path, lu_config):
        from trapquad.coupling import c2_coefficient
        code, out = run_to_file(tmp_path, [
            "matrix-elements", "--species", "lu176", "--level", "3D2",
            "--manifold", "5", "--config", lu_config, "--format", "json",
            "--include-zeros",
        ])
        assert code == 0
        payload = json.loads(out.read_text())
        lu = load_species("lu176")
        level = lu.level("3D2")
        diag = {e["bra_m"]: e["real_rad_s"] for e in payload["entries"]
                if e["bra_m"] == e["ket_m"] and e["bra_f"] == "5"}
        # beta = 0 linear trap: diagonals vanish; use a rotated config instead
        assert all(abs(v) < 1e-20 for v in diag.values())

    def test_rotated_diagonal_tracks_c2(self, tmp_path, lu_config):
        from trapquad.coupling import c2_coefficient
        cfg = json.loads(open(lu_config).read())
        cfg["trap"]["beta_deg"] = 90.0
        path = lu_config.replace("lu_trap", "lu_rot")
        with open(path, "w") as fh:
            fh.write(json.dumps(cfg))
        code, out = run_to_file(tmp_path, [
            "matrix-elements", "--species", "lu176", "--level", "3D2",
            "--manifold", "5", "--config", path, "--format", "json",
            "--include-zeros",
        ])
        assert code == 0
        payload = json.loads(out.read_text())
        lu = load_species("lu176")
        level = lu.level("3D2")
        diag = {e["bra_m"]: e["real_rad_s"] for e in payload["entries"]
                if e["bra_m"] == e["ket_m"] and e["bra_f"] == "5"}
        c2_ref = c2_coefficient(level, 5, 0)
        base = diag["0"]
        for m_str, value in diag.items():
            m = int(m_str)
            want = base * c2_coefficient(level, 5, m) / c2_ref
            assert value == pytest.approx(want, rel=1e-9, abs=1e-12)

    def test_empty_manifold_is_config_error(self, tmp_path, ba_config):
        code = main([
            "matrix-elements", "--species", "ba138", "--level", "D5/2",
            "--manifold", ",", "--config", ba_config,
        ])
        assert code == 2

    def test_unknown_level_is_config_error(self, tmp_path, ba_config):
        code = main([
            "matrix-elements", "--species", "ba138", "--level", "D3/2",
            "--manifold", "3/2", "--config", ba_config,
        ])
        assert code == 2

    def test_repeated_f_is_config_error(self, tmp_path, ba_config, capsys):
        # exited 0 with a 12-state basis listing every state twice
        code = main([
            "matrix-elements", "--species", "ba138", "--level", "D5/2",
            "--manifold", "5/2,5/2", "--config", ba_config,
        ])
        assert code == 2
        assert "more than once" in capsys.readouterr().err


class TestClockShift:
    def test_lu_transitions_match_reference_parameters(self, tmp_path, lu_config):
        targets = {
            "1S0-3D1": (1.28e-19, -0.199),
            "1S0-3D2": (-0.90e-19, -0.197),
            "1S0-1D2": (2.34e-23, -0.212),
        }
        for label, (a_want, eta_want) in targets.items():
            code, out = run_to_file(tmp_path, [
                "clock-shift", "--species", "lu176", "--transition", label,
                "--config", lu_config, "--format", "json",
            ], name=f"{label}.json")
            assert code == 0
            payload = json.loads(out.read_text())
            jsonschema.validate(payload, OUTPUT_SCHEMA)
            assert payload["a"] == pytest.approx(a_want, rel=5e-2)
            assert abs(payload["eta"] - eta_want) < 0.01

    def test_orientation_grid_extremes(self, tmp_path, lu_config):
        code, out = run_to_file(tmp_path, [
            "clock-shift", "--species", "lu176", "--transition", "1S0-3D2",
            "--config", lu_config, "--grid", "33", "--format", "json",
        ])
        assert code == 0
        payload = json.loads(out.read_text())
        values = [row["fractional_shift"] / payload["a"]
                  for row in payload["grid"]]
        assert max(values) == pytest.approx(1.0, abs=1e-9)
        assert min(values) == pytest.approx(payload["eta"], abs=1e-3)

    def test_negative_grid_is_config_error(self, tmp_path, lu_config):
        # ended in a numpy ValueError traceback, exit 1
        code = main(["clock-shift", "--species", "lu176", "--transition",
                     "1S0-3D2", "--config", lu_config, "--grid", "-3"])
        assert code == 2

    def test_missing_hyperfine_energies_named(self, tmp_path, ba_config):
        code = main([
            "clock-shift", "--species", "ba138", "--transition", "S1/2-D5/2",
            "--config", ba_config,
        ])
        assert code == 2


class TestSpectrum:
    def test_two_line_csv(self, tmp_path):
        code, out = run_to_file(tmp_path, [
            "spectrum", "--Delta", "0", "--Omega0-ratio", "0.05",
            "--points", "401",
        ])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "delta_over_omegaQ,transfer_probability"
        data = np.array([[float(x) for x in ln.split(",")] for ln in lines[1:]])
        from scipy.signal import find_peaks
        idx, _ = find_peaks(data[:, 1], height=0.15, prominence=0.05)
        assert len(idx) == 2
        assert np.allclose(np.abs(data[idx, 0]), math.sqrt(7) / 5, rtol=0.01)

    def test_json_schema(self, tmp_path):
        code, out = run_to_file(tmp_path, [
            "spectrum", "--Delta", "0.5", "--points", "101", "--format", "json",
        ])
        assert code == 0
        payload = json.loads(out.read_text())
        jsonschema.validate(payload, OUTPUT_SCHEMA)

    def test_noise_averaged_at_100nt(self, tmp_path):
        # tau = pi/Omega0 ~ 1.2 ms, as in the fits; a fixed Gauss-Hermite
        # order 128 failed its convergence check here (exit 3)
        code, out = run_to_file(tmp_path, [
            "spectrum", "--sigma-nt", "100", "--Omega0-ratio", "0.25",
            "--points", "101", "--format", "json",
        ])
        assert code == 0
        payload = json.loads(out.read_text())
        jsonschema.validate(payload, OUTPUT_SCHEMA)
        assert payload["diagnostics"]["quadrature_nodes"] > 33
        assert payload["diagnostics"]["quadrature_change"] <= 1e-6

    def test_noise_averaged_at_100nt_default_probe(self, tmp_path):
        # tau ~ 5.9 ms: Gauss-Hermite failed at its order-640 cap (exit 3);
        # the rule that resolves sigma_B*tau starts at 1025 nodes
        code, out = run_to_file(tmp_path, [
            "spectrum", "--sigma-nt", "100", "--points", "101",
            "--format", "json",
        ])
        assert code == 0
        payload = json.loads(out.read_text())
        jsonschema.validate(payload, OUTPUT_SCHEMA)
        assert payload["diagnostics"]["quadrature_nodes"] == 1025

    def test_unresolvable_noise_average_is_numerical_failure(self, capsys):
        assert main(["spectrum", "--sigma-nt", "400", "--Omega0-ratio", "0.01",
                     "--points", "11"]) == 3
        assert "4097 nodes" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["--points", "-5"],             # a numpy traceback, exit 1
        ["--g-d", "nan", "--sigma-nt", "10"],   # reached eigh, exit 3
        ["--g-s", "nan", "--sigma-nt", "10"],
        ["--Delta", "nan"],
        ["--span", "nan"],
    ], ids=["points", "g-d", "g-s", "Delta", "span"])
    def test_bad_number_is_config_error(self, argv):
        assert main(["spectrum", "--points", "11", *argv]) == 2

    def test_noiseless_has_no_diagnostics(self, tmp_path):
        code, out = run_to_file(tmp_path, [
            "spectrum", "--points", "11", "--format", "json",
        ])
        assert code == 0
        assert "diagnostics" not in json.loads(out.read_text())

    def test_negative_sigma_is_config_error(self, tmp_path):
        assert main(["spectrum", "--sigma-nt", "-5", "--points", "11"]) == 2

    @pytest.mark.parametrize("sigma", ["0", "18"])
    def test_negative_tau_is_config_error(self, tmp_path, sigma):
        # exited 0 with a spectrum at a negative probe time
        assert main(["spectrum", "--tau=-0.001", "--sigma-nt", sigma,
                     "--points", "11"]) == 2

    def test_byte_stable(self, tmp_path):
        argv = ["spectrum", "--Delta", "0.25", "--points", "99",
                "--sigma-nt", "10"]
        _, out1 = run_to_file(tmp_path, argv, "a.csv")
        _, out2 = run_to_file(tmp_path, argv, "b.csv")
        assert out1.read_bytes() == out2.read_bytes()


class TestFitAndExtract:
    @pytest.fixture
    def synthetic_csv(self, tmp_path):
        wq = TWO_PI * 1.70e3
        tau = 1.2e-3
        deltas = np.linspace(-1.5, 1.5, 40) * wq
        rng = np.random.default_rng(7)
        counts = simulate_counts(
            RwaSystem(wq, math.pi / tau, 0.0, 0.0),
            NoiseModel(sigma_b=18e-9), deltas, tau, 300, rng,
        )
        path = tmp_path / "data.csv"
        rows = ["delta_hz,excited_counts,shots"]
        rows += [f"{d / TWO_PI:.6f},{c},300" for d, c in zip(deltas, counts)]
        path.write_text("\n".join(rows) + "\n")
        return str(path)

    def test_fit_then_extract(self, tmp_path, synthetic_csv, ba_config):
        code, fit_out = run_to_file(tmp_path, [
            "fit", "--data", synthetic_csv, "--tau", "1.2e-3",
            "--format", "json",
        ], "fit.json")
        assert code == 0
        payload = json.loads(fit_out.read_text())
        jsonschema.validate(payload, OUTPUT_SCHEMA)
        assert payload["omega_q_hz"] == pytest.approx(1700, abs=60)
        assert payload["diagnostics"]["quadrature_change"] <= 1e-6
        assert not payload["diagnostics"]["sigma_b_at_bound"]

        code, theta_out = run_to_file(tmp_path, [
            "extract-theta", "--config", ba_config,
            "--fit-json", str(fit_out), "--format", "json",
        ], "theta.json")
        assert code == 0
        est = json.loads(theta_out.read_text())
        jsonschema.validate(est, OUTPUT_SCHEMA)
        assert est["theta_e_a02"] == pytest.approx(3.24, abs=0.15)

    def test_extract_theta_paper_numbers(self, tmp_path, ba_config):
        code, out = run_to_file(tmp_path, [
            "extract-theta", "--config", ba_config,
            "--omega-q-hz", "1708", "--omega-q-hz", "1662",
            "--omega-q-hz", "1713",
            "--omega-q-err-hz", "24", "--omega-q-err-hz", "19",
            "--omega-q-err-hz", "16",
            "--drift-error-hz", "24", "--format", "json",
        ])
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["omega_q_hz"] == pytest.approx(1694.33, abs=0.01)
        assert payload["theta_e_a02"] == pytest.approx(3.229, rel=5e-3)
        assert payload["theta_err_e_a02"] == pytest.approx(0.089, rel=0.12)

    @pytest.mark.parametrize("text", [
        '{"omega_q_hz": 1700.0}',            # no omega_q_err_hz
        "omega_q_hz,omega_q_err_hz\n1700,35\n",   # not JSON
    ])
    def test_malformed_fit_json_is_config_error(self, tmp_path, ba_config,
                                                text):
        path = tmp_path / "fit.json"
        path.write_text(text)
        code = main(["extract-theta", "--config", ba_config,
                     "--fit-json", str(path)])
        assert code == 2

    @pytest.mark.parametrize("tau", [
        "0",          # ended in a ZeroDivisionError traceback, exit 1
        "-1.2e-3",    # exited 0 with a fit (chi2_nu 82, status 2)
        "nan",
    ])
    def test_non_positive_tau_is_config_error(self, tmp_path, synthetic_csv,
                                              tau):
        assert main(["fit", "--data", synthetic_csv, f"--tau={tau}"]) == 2

    def test_non_finite_g_factor_is_config_error(self, synthetic_csv):
        # reached eigh and exited 3
        assert main(["fit", "--data", synthetic_csv, "--tau", "1.2e-3",
                     "--g-d", "nan"]) == 2

    def test_negative_error_is_config_error(self, tmp_path, ba_config):
        # exited 0, the error taken as +35 Hz
        code = main(["extract-theta", "--config", ba_config,
                     "--omega-q-hz", "1694", "--omega-q-err-hz", "-35"])
        assert code == 2

    def test_missing_data_file_is_config_error(self, tmp_path):
        code = main(["fit", "--data", str(tmp_path / "nope.csv"),
                     "--tau", "1.2e-3"])
        assert code == 2

    def test_non_numeric_field_is_config_error(self, tmp_path, capsys):
        path = tmp_path / "repr.csv"
        path.write_text("delta_hz,excited_counts,shots\n"
                        "np.float64(-2538.7),3,300\n")
        code = main(["fit", "--data", str(path), "--tau", "1.2e-3"])
        assert code == 2
        assert "line 2" in capsys.readouterr().err

    def test_bad_header_is_config_error(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("frequency,counts,n\n1,2,3\n")
        code = main(["fit", "--data", str(path), "--tau", "1.2e-3"])
        assert code == 2


class TestConfigHandling:
    def test_wrong_schema_version(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"schema_version": 99, "trap": {}}))
        code = main(["clock-shift", "--species", "lu176",
                     "--transition", "1S0-3D2", "--config", str(path)])
        assert code == 2

    def test_both_secular_and_fields_rejected(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({
            "schema_version": 1,
            "trap": {"omega_rf_hz": 1e7, "mass_u": 100.0,
                     "omega_s_hz": 1e6, "epsilon_v_m2": 1e9},
        }))
        code = main(["clock-shift", "--species", "lu176",
                     "--transition", "1S0-3D2", "--config", str(path)])
        assert code == 2

    def test_misspelt_trap_key_is_config_error(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({
            "schema_version": 1,
            "trap": {"omega_rf_hz": 33e6, "preset": "ideal-linear",
                     "omega_s_hz": 1e6, "alpha_degs": 30.0},
        }))
        code = main(["clock-shift", "--species", "lu176",
                     "--transition", "1S0-3D2", "--config", str(path)])
        assert code == 2
        assert "alpha_degs" in capsys.readouterr().err

    @pytest.mark.parametrize("key,value", [
        ("omega_rf_hz", "fast"), ("alpha_deg", None),
    ])
    def test_non_numeric_trap_value_is_config_error(self, tmp_path, capsys,
                                                    key, value):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({
            "schema_version": 1,
            "trap": {"omega_rf_hz": 33e6, "preset": "ideal-linear",
                     "omega_s_hz": 1e6, key: value},
        }))
        code = main(["clock-shift", "--species", "lu176",
                     "--transition", "1S0-3D2", "--config", str(path)])
        assert code == 2
        assert key in capsys.readouterr().err

    def test_unknown_keys_rejected_at_every_level(self):
        base = {"omega_rf_hz": 1e7, "mass_u": 100.0,
                "secular_hz": {"omega_x": 2e6, "omega_y": 1e6, "omega_z": 1e6}}
        assert trap_from_config({"schema_version": 1, "trap": base}).omega_s > 0
        for bad in ({**base, "omega_rf": 1e7},
                    {**base, "secular_hz": {**base["secular_hz"], "omega_q": 1}}):
            with pytest.raises(InvalidInputError, match="unknown key"):
                trap_from_config({"schema_version": 1, "trap": bad})

    def test_unknown_top_level_key_rejected(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({
            "schema_version": 1, "trap": {"omega_rf_hz": 1e7}, "traps": {},
        }))
        with pytest.raises(InvalidInputError, match="traps"):
            load_run_config(path)


class TestImports:
    """The package and every CLI subcommand but fit need numpy only."""

    @staticmethod
    def scipy_modules_after(script: str) -> list[str]:
        code = script + (
            "\nimport json, sys\n"
            "print(json.dumps(sorted(m for m in sys.modules"
            " if m.split('.')[0] == 'scipy')))\n")
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                              text=True, timeout=120,
                              env={**os.environ, "PYTHONPATH": str(SRC)})
        assert proc.returncode == 0, proc.stderr
        return json.loads(proc.stdout.strip().splitlines()[-1])

    def test_import_loads_no_scipy(self):
        assert self.scipy_modules_after("import trapquad.cli") == []

    def test_light_subcommands_load_no_scipy(self, tmp_path, ba_config, lu_config):
        steps = [
            ["matrix-elements", "--species", "ba138", "--level", "D5/2",
             "--manifold", "5/2", "--config", ba_config],
            ["clock-shift", "--species", "lu176", "--transition", "1S0-3D2",
             "--config", lu_config, "--grid", "5"],
            ["extract-theta", "--config", ba_config, "--omega-q-hz", "1694",
             "--omega-q-err-hz", "35"],
            ["spectrum", "--sigma-nt", "18", "--points", "101"],
        ]
        script = "from trapquad.cli import main\n" + "".join(
            f"assert main({argv + ['-o', str(tmp_path / f'out{k}')]!r}) == 0\n"
            for k, argv in enumerate(steps))
        assert self.scipy_modules_after(script) == []
        assert all((tmp_path / f"out{k}").read_text() for k in range(len(steps)))
