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
from trapquad.coupling import hq_matrix
from trapquad.dynamics import RwaSystem
from trapquad.errors import InvalidInputError
from trapquad.inference import NoiseModel, simulate_counts
from trapquad.species import load_species

TWO_PI = 2 * math.pi

SRC = Path(__file__).resolve().parent.parent / "src"
SCHEMAS = SRC / "trapquad" / "schemas"
OUTPUT_SCHEMA = json.loads((SCHEMAS / "cli_output.schema.json").read_text())


BA_CONFIG = {
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
LU_CONFIG = {
    "schema_version": 1,
    "trap": {
        "omega_rf_hz": 33e6,
        "preset": "ideal-linear",
        "omega_s_hz": 1e6,
    },
}


@pytest.fixture
def ba_config(tmp_path):
    path = tmp_path / "ba_trap.json"
    path.write_text(json.dumps(BA_CONFIG))
    return str(path)


@pytest.fixture
def lu_config(tmp_path):
    path = tmp_path / "lu_trap.json"
    path.write_text(json.dumps(LU_CONFIG))
    return str(path)


def write_counts_csv(path, seed=7):
    """Simulated 18 nT counts: 40 points over +-1.5 omega_q, tau = 1.2 ms."""
    wq = TWO_PI * 1.70e3
    tau = 1.2e-3
    deltas = np.linspace(-1.5, 1.5, 40) * wq
    rng = np.random.default_rng(seed)
    counts = simulate_counts(
        RwaSystem(wq, math.pi / tau, 0.0, 0.0),
        NoiseModel(sigma_b=18e-9), deltas, tau, 300, rng,
    )
    rows = ["delta_hz,excited_counts,shots"]
    rows += [f"{d / TWO_PI:.6f},{c},300" for d, c in zip(deltas, counts)]
    path.write_text("\n".join(rows) + "\n")
    return str(path)


@pytest.fixture
def synthetic_csv(tmp_path):
    return write_counts_csv(tmp_path / "data.csv")


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

    def test_entries_are_hq_matrix_bit_for_bit(self, tmp_path):
        # the subcommand writes its rows from coupling.amplitudes, in Python;
        # they are hq_matrix's entries, zeros included, in row-major order
        config = {"schema_version": 1, "trap": {**LU_CONFIG["trap"], "alpha_deg": 23.0,
                                                "beta_deg": 61.0}}
        path = tmp_path / "tilted.json"
        path.write_text(json.dumps(config))
        code, out = run_to_file(tmp_path, [
            "matrix-elements", "--species", "lu176", "--level", "3D2",
            "--manifold", "7,5", "--config", str(path), "--include-zeros",
            "--format", "json"])
        assert code == 0
        payload = json.loads(out.read_text())
        level = load_species("lu176").level("3D2")
        mat = hq_matrix(level, trap_from_config(config, load_species("lu176").mass_kg),
                        [5, 7])
        assert payload["basis"] == [f"{s.F},{s.m}" for s in mat.basis]
        want = [(z.real, z.imag, abs(z)) for z in mat.amplitude.ravel().tolist()]
        got = [(e["real_rad_s"], e["imag_rad_s"], e["modulus_rad_s"])
               for e in payload["entries"]]
        assert [tuple(map(float.hex, row)) for row in got] == [
            tuple(map(float.hex, row)) for row in want]

    def test_empty_manifold_is_config_error(self, tmp_path, ba_config):
        code = main([
            "matrix-elements", "--species", "ba138", "--level", "D5/2",
            "--manifold", ",", "--config", ba_config,
        ])
        assert code == 2

    @pytest.mark.parametrize("manifold", ["x", "2.5"])
    def test_malformed_manifold_is_config_error(self, ba_config, capsys, manifold):
        # ended in int()'s ValueError, exit 1
        code = main([
            "matrix-elements", "--species", "ba138", "--level", "D5/2",
            "--manifold", manifold, "--config", ba_config,
        ])
        assert code == 2
        assert repr(manifold) in capsys.readouterr().err

    def test_over_long_manifold_number_is_config_error(self, ba_config, capsys):
        # exited 1 with int()'s ValueError
        code = main([
            "matrix-elements", "--species", "ba138", "--level", "D5/2",
            "--manifold", "9" * 5000, "--config", ba_config,
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert "5000 digits" in err and len(err) < 200

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

    def test_grid_is_numpys_linspace_bit_for_bit(self, tmp_path, lu_config):
        # the grid is built in Python floats, by numpy's rule: i * step +
        # start, the last point stop
        for n in range(1, 10):
            code, out = run_to_file(tmp_path, [
                "clock-shift", "--species", "lu176", "--transition", "1S0-3D2",
                "--config", lu_config, "--grid", str(n), "--format", "json",
            ], name=f"grid{n}.json")
            assert code == 0
            grid = json.loads(out.read_text())["grid"]
            want = [(alpha, beta) for alpha in np.linspace(0.0, 360.0, n).tolist()
                    for beta in np.linspace(0.0, 180.0, n).tolist()]
            got = [(row["alpha_deg"], row["beta_deg"]) for row in grid]
            assert [tuple(map(float.hex, pair)) for pair in got] == [
                tuple(map(float.hex, pair)) for pair in want]

    def test_negative_grid_is_config_error(self, tmp_path, lu_config):
        # ended in a numpy ValueError traceback, exit 1
        code = main(["clock-shift", "--species", "lu176", "--transition",
                     "1S0-3D2", "--config", lu_config, "--grid", "-3"])
        assert code == 2

    def test_missing_hyperfine_energies_named(self, tmp_path, ba_config, capsys):
        code = main([
            "clock-shift", "--species", "ba138", "--transition", "S1/2-D5/2",
            "--config", ba_config,
        ])
        assert code == 2
        assert "I >= J" in capsys.readouterr().err

    def test_field_free_trap_is_config_error(self, tmp_path, capsys):
        # ended in a ZeroDivisionError traceback, exit 1
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"schema_version": 1, "trap": {
            "omega_rf_hz": 33e6, "A_v_m2": 0, "epsilon_v_m2": 0}}))
        code = main(["clock-shift", "--species", "lu176", "--transition",
                     "1S0-3D2", "--config", str(path)])
        assert code == 2
        assert "epsilon" in capsys.readouterr().err


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
        # the rule that resolves sigma_B*tau starts at 769 nodes
        code, out = run_to_file(tmp_path, [
            "spectrum", "--sigma-nt", "100", "--points", "101",
            "--format", "json",
        ])
        assert code == 0
        payload = json.loads(out.read_text())
        jsonschema.validate(payload, OUTPUT_SCHEMA)
        assert payload["diagnostics"]["quadrature_nodes"] == 769

    def test_unresolvable_noise_average_is_numerical_failure(self, capsys):
        assert main(["spectrum", "--sigma-nt", "400", "--Omega0-ratio", "0.01",
                     "--points", "11"]) == 3
        assert "3073 nodes" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["--points", "-5"],             # a numpy traceback, exit 1
        ["--Delta", "nan"],
        ["--span", "nan"],
        ["--sigma-nt", "nan"],
    ], ids=["points", "Delta", "span", "sigma-nt"])
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

    @pytest.mark.parametrize("row", ["100.0,450,300", "100.0,-20,300"])
    def test_counts_outside_zero_to_shots_are_config_error(self, tmp_path,
                                                           synthetic_csv, row):
        # exited 0 with a fit
        lines = Path(synthetic_csv).read_text().splitlines()
        lines[6] = row
        path = tmp_path / "bad.csv"
        path.write_text("\n".join(lines) + "\n")
        assert main(["fit", "--data", str(path), "--tau", "1.2e-3"]) == 2

    def test_fractional_shots_are_config_error(self, tmp_path, synthetic_csv,
                                               capsys):
        # exited 0 with a fit, as simulate_counts would not draw 300.5 trials
        lines = Path(synthetic_csv).read_text().splitlines()
        delta, count, _ = lines[6].split(",")
        lines[6] = f"{delta},{count},300.5"
        path = tmp_path / "fractional.csv"
        path.write_text("\n".join(lines) + "\n")
        assert main(["fit", "--data", str(path), "--tau", "1.2e-3"]) == 2
        assert "not 300.5" in capsys.readouterr().err

    @pytest.mark.parametrize("deltas_hz", [
        [-800.0, 800.0] * 5,   # exited 0: omega_q = 972 +- 11 Hz
        [150.0] * 10,          # exited 0: omega_q = 0 +- 3.2e18 Hz
    ], ids=["two-mirrored", "one-detuning"])
    def test_fewer_than_three_magnitudes_are_config_error(self, tmp_path,
                                                          capsys, deltas_hz):
        path = tmp_path / "degenerate.csv"
        path.write_text("delta_hz,excited_counts,shots\n"
                        + "".join(f"{d},150,300\n" for d in deltas_hz))
        assert main(["fit", "--data", str(path), "--tau", "1.2e-3"]) == 2
        assert "3 distinct" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--omega-q-hz", "--omega-q-err-hz",
                                      "--drift-error-hz"])
    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_input_is_config_error(self, ba_config, flag, value):
        # exited 0 with NaN or Infinity in the output
        argv = {"--omega-q-hz": "1694", "--omega-q-err-hz": "35",
                "--drift-error-hz": "24", flag: value}
        code = main(["extract-theta", "--config", ba_config,
                     *(item for pair in argv.items() for item in pair)])
        assert code == 2

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

    def test_header_after_comment_lines(self, tmp_path, synthetic_csv):
        # exited 2: the header was looked for on line 1 only
        path = tmp_path / "commented.csv"
        path.write_text("# run 1\n\n# 18 nT\n" + Path(synthetic_csv).read_text())
        outputs = []
        for data in (synthetic_csv, str(path)):
            out = tmp_path / f"fit{len(outputs)}.json"
            assert main(["fit", "--data", data, "--tau", "1.2e-3",
                         "--format", "json", "-o", str(out)]) == 0
            outputs.append(out.read_text())
        assert outputs[0] == outputs[1]

    @pytest.mark.parametrize("text", [
        "# run 1\nfrequency,counts,n\n1,2,3\n",       # a bad header after a comment
        "delta_hz,excited_counts,shots\n# run 1\n"
        "delta_hz,excited_counts,shots\n1,2,3\n",     # a second header
    ])
    def test_header_only_on_first_content_line(self, tmp_path, text):
        path = tmp_path / "bad.csv"
        path.write_text(text)
        assert main(["fit", "--data", str(path), "--tau", "1.2e-3"]) == 2


class TestConfigHandling:
    @pytest.mark.parametrize("module,name,argv", [
        ("inference", "fit_spectrum", ["fit", "--tau", "1.2e-3"]),
        ("coupling", "amplitudes", ["matrix-elements", "--species", "ba138",
                                    "--level", "D5/2", "--manifold", "5/2"]),
    ])
    def test_linalg_error_is_numerical_failure(self, monkeypatch, capsys, tmp_path,
                                               ba_config, synthetic_csv,
                                               module, name, argv):
        # the subcommand imports its function when it runs, so patching the
        # function's own module reaches it; numpy is not imported to catch this
        def fail(*args, **kwargs):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")
        monkeypatch.setattr(f"trapquad.{module}.{name}", fail)
        given = ["--data", synthetic_csv] if argv[0] == "fit" else ["--config", ba_config]
        assert main([*argv, *given, "-o", str(tmp_path / "out")]) == 3
        assert "numerical failure: Eigenvalues" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_wrong_schema_version(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"schema_version": 99, "trap": {}}))
        code = main(["clock-shift", "--species", "lu176",
                     "--transition", "1S0-3D2", "--config", str(path)])
        assert code == 2

    def test_both_secular_and_fields_rejected(self, tmp_path, capsys):
        # mass_u 100 against the species' 175.94 u made this exit 2 before
        # the two descriptions were looked at
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({
            "schema_version": 1,
            "trap": {"omega_rf_hz": 1e7, "omega_s_hz": 1e6, "epsilon_v_m2": 1e9},
        }))
        code = main(["clock-shift", "--species", "lu176",
                     "--transition", "1S0-3D2", "--config", str(path)])
        assert code == 2
        assert "exactly one of" in capsys.readouterr().err

    def test_preset_with_explicit_fields_is_config_error(self, tmp_path, capsys):
        # exited 0 with A = 0 and eps = 1e7: the preset was dropped unread
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"schema_version": 1, "trap": {
            "omega_rf_hz": 24.1e6, "preset": "ideal-quadrupole",
            "epsilon_v_m2": 1e7}}))
        code = main(["matrix-elements", "--species", "ba138", "--level", "D5/2",
                     "--manifold", "5/2", "--config", str(path)])
        assert code == 2
        assert "preset goes only with secular_hz or omega_s_hz" in (
            capsys.readouterr().err)

    def test_secular_block_and_omega_s_rejected(self, tmp_path):
        # secular_hz was used and omega_s_hz silently ignored
        trap = {**BA_CONFIG["trap"], "omega_s_hz": 1e6}
        with pytest.raises(InvalidInputError, match="exactly one"):
            trap_from_config({"schema_version": 1, "trap": trap})

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

    def test_negative_secular_uncertainty_is_config_error(self, tmp_path, capsys):
        # exited 0 with a negative theta_err_e_a02
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"schema_version": 1, "trap": {
            "omega_rf_hz": 20.585e6, "omega_s_hz": 942.5e3,
            "omega_s_unc_hz": -5, "mass_u": 137.905}}))
        code = main(["extract-theta", "--config", str(path),
                     "--omega-q-hz", "1694", "--omega-q-err-hz", "35"])
        assert code == 2
        assert "trap.omega_s_unc_hz" in capsys.readouterr().err

    @pytest.mark.parametrize("trap", [
        {**BA_CONFIG["trap"], "omega_s_unc_hz": 50e3},
        {"omega_rf_hz": 20.585e6, "mass_u": 137.905, "A_v_m2": 1e7,
         "epsilon_v_m2": 0.0, "omega_s_unc_hz": 50e3},
    ], ids=["secular_hz", "A-epsilon"])
    def test_secular_uncertainty_without_omega_s_is_config_error(
            self, tmp_path, capsys, trap):
        # exited 0 with the stated uncertainty left out of theta_err_e_a02
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"schema_version": 1, "trap": trap}))
        code = main(["extract-theta", "--config", str(path),
                     "--omega-q-hz", "1694", "--omega-q-err-hz", "35"])
        assert code == 2
        assert "omega_s_unc_hz without omega_s_hz" in capsys.readouterr().err

    def test_duplicate_species_entry_is_config_error(self, tmp_path, capsys,
                                                     lu_config):
        raw = json.loads((SRC / "trapquad" / "species" / "lu176.json").read_text())
        raw["levels"].append({**raw["levels"][2], "theta_e_a02": 5.0})
        path = tmp_path / "lu_dup.json"
        path.write_text(json.dumps(raw))
        code = main(["clock-shift", "--species", str(path), "--transition",
                     "1S0-3D2", "--config", lu_config])
        assert code == 2
        assert "repeats term '3D2'" in capsys.readouterr().err

    def test_repeated_key_in_species_file_is_config_error(self, tmp_path, capsys,
                                                          lu_config):
        # a second "6" before the 3D1 level's own: the last value won, and
        # the file loaded with F=6 at the original energy
        text = (SRC / "trapquad" / "species" / "lu176.json").read_text()
        first = '"6": 11724753626.374,'
        assert text.count(first) == 1
        path = tmp_path / "lu_dup.json"
        path.write_text(text.replace(first, '"6": 123.0, ' + first))
        code = main(["clock-shift", "--species", str(path), "--transition",
                     "1S0-3D1", "--config", lu_config])
        assert code == 2
        assert "species file repeats the key '6'" in capsys.readouterr().err

    def test_repeated_key_in_run_config_is_config_error(self, tmp_path, capsys):
        # omega_rf_hz twice: the second value was used without a word
        path = tmp_path / "cfg.json"
        path.write_text('{"schema_version": 1, "trap": {"omega_rf_hz": 33e6, '
                        '"preset": "ideal-linear", "omega_s_hz": 1e6, '
                        '"omega_rf_hz": 20e6}}')
        code = main(["clock-shift", "--species", "lu176", "--transition", "1S0-3D2",
                     "--config", str(path)])
        assert code == 2
        assert "config file repeats the key 'omega_rf_hz'" in capsys.readouterr().err

    def test_mass_u_disagreeing_with_species_is_config_error(self, tmp_path,
                                                              capsys):
        # exited 0 with the species mass; the config's mass_u was ignored
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"schema_version": 1,
                                    "trap": {**LU_CONFIG["trap"], "mass_u": 1.0}}))
        code = main(["clock-shift", "--species", "lu176",
                     "--transition", "1S0-3D2", "--config", str(path)])
        assert code == 2
        assert ("trap.mass_u in config is 1 u, but the species mass is 175.94 u"
                in capsys.readouterr().err)

    def test_mass_u_agreeing_with_species_is_accepted(self, tmp_path):
        outputs = []
        for extra in ({}, {"mass_u": 175.94 * (1 + 5e-7)}):
            path = tmp_path / "cfg.json"
            path.write_text(json.dumps({"schema_version": 1,
                                        "trap": {**LU_CONFIG["trap"], **extra}}))
            code, out = run_to_file(tmp_path, [
                "clock-shift", "--species", "lu176", "--transition", "1S0-3D2",
                "--config", str(path)], f"out{len(outputs)}")
            assert code == 0
            outputs.append(out.read_text())
        assert outputs[0] == outputs[1]

    def test_partial_energy_map_is_config_error(self, tmp_path, capsys, lu_config):
        # a species file that leaves out one F of a level fails when loaded,
        # also for matrix-elements, which reads no energies
        raw = json.loads((SRC / "trapquad" / "species" / "lu176.json").read_text())
        del raw["levels"][2]["hyperfine_f_energies_hz"]["9"]
        path = tmp_path / "lu_partial.json"
        path.write_text(json.dumps(raw))
        code = main(["matrix-elements", "--species", str(path), "--level", "3D2",
                     "--manifold", "5", "--config", lu_config])
        assert code == 2
        err = capsys.readouterr().err
        assert "176Lu+ 3D2" in err and "missing F=[9]" in err

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


class TestConfigErrorMessages:
    """Exits with code 2 that no other test reaches, each with its message."""

    @pytest.mark.parametrize("argv, message", [
        (["extract-theta", "--config", "{no_mass}", "--omega-q-hz", "1694"],
         "trap block needs mass_u when no species is given"),
        (["fit", "--data", "{short_row}", "--tau", "1.2e-3"],
         "line 2: need delta_hz,excited_counts,shots"),
        (["fit", "--data", "{header_only}", "--tau", "1.2e-3"],
         "fit CSV contains no data rows"),
        (["extract-theta", "--config", "{ba}"], "need --fit-json or --omega-q-hz"),
        (["extract-theta", "--config", "{ba}", "--omega-q-hz", "1694",
          "--omega-q-hz", "1700", "--omega-q-err-hz", "35"],
         "need one --omega-q-err-hz per --omega-q-hz"),
        (["spectrum", "--Omega0-ratio", "0"], "Omega0 ratio must be positive"),
        # named the Omega0 ratio, which was not at fault
        (["spectrum", "--omega-q-hz", "0"], "--omega-q-hz must be nonzero"),
        (["spectrum", "--span", "0"], "--points and --span must be positive"),
    ], ids=["no-mass", "short-row", "no-rows", "no-coupling", "error-count",
            "zero-ratio", "zero-omega-q", "zero-span"])
    def test_exits_2_with_message(self, tmp_path, capsys, ba_config, lu_config,
                                  argv, message):
        files = {"ba": ba_config, "no_mass": lu_config}
        for name, text in (("short_row", "delta_hz,excited_counts,shots\n1.0,2\n"),
                           ("header_only", "# no data\ndelta_hz,excited_counts,shots\n")):
            files[name] = str(tmp_path / f"{name}.csv")
            Path(files[name]).write_text(text)
        code = main([arg.format(**files) for arg in argv])
        assert code == 2
        assert f"configuration error: {message}" in capsys.readouterr().err


class TestCsvMatchesJson:
    """Each subcommand's CSV carries the JSON payload's numbers."""

    @staticmethod
    def json_rows(p: dict) -> tuple[list, list]:
        """The payload's table rows and '#' comment rows, in CSV column order."""
        def table(items, keys):
            return [[item[k] for k in keys] for item in items]
        if p["kind"] == "matrix_elements":
            return table(p["entries"], ("bra_f", "bra_m", "ket_f", "ket_m", "real_rad_s",
                                        "imag_rad_s", "modulus_rad_s")), []
        if p["kind"] == "clock_shift":
            return (table(p["grid"], ("alpha_deg", "beta_deg", "fractional_shift")),
                    [["a", p["a"]], ["eta", p["eta"]]])
        if p["kind"] == "spectrum":
            return table(p["points"], ("delta_over_omega_q", "transfer_probability")), []
        if p["kind"] == "fit_result":
            return table([p], ("omega_q_hz", "omega_q_err_hz", "sigma_b_nt",
                               "sigma_b_err_nt", "chi2_reduced", "n_points", "shots")), []
        return table([p], ("omega_q_hz", "omega_q_err_hz", "theta_e_a02",
                           "theta_err_e_a02")), []

    @staticmethod
    def same_cells(csv_row: list[str], json_row: list) -> bool:
        return len(csv_row) == len(json_row) and all(
            cell == value if isinstance(value, str)
            else float(cell) == pytest.approx(value, rel=1e-11, abs=0)
            for cell, value in zip(csv_row, json_row))

    @pytest.mark.parametrize("argv", [
        ["matrix-elements", "--species", "lu176", "--level", "3D2",
         "--manifold", "5,6", "--include-zeros", "--config", "{lu}"],
        ["clock-shift", "--species", "lu176", "--transition", "1S0-3D2",
         "--grid", "5", "--config", "{lu}"],
        ["spectrum", "--points", "21", "--sigma-nt", "10"],
        ["fit", "--data", "{csv}", "--tau", "1.2e-3"],
        ["extract-theta", "--omega-q-hz", "1708", "--omega-q-hz", "1662",
         "--omega-q-err-hz", "24", "--omega-q-err-hz", "19",
         "--drift-error-hz", "24", "--config", "{ba}"],
    ], ids=lambda argv: argv[0])
    def test_rows_carry_the_json_numbers(self, tmp_path, ba_config, lu_config,
                                         synthetic_csv, argv):
        argv = [a.format(ba=ba_config, lu=lu_config, csv=synthetic_csv) for a in argv]
        assert run_to_file(tmp_path, argv + ["--format", "csv"], "out.csv")[0] == 0
        assert run_to_file(tmp_path, argv + ["--format", "json"], "out.json")[0] == 0
        payload = json.loads((tmp_path / "out.json").read_text())
        rows, comments = self.json_rows(payload)
        lines = (tmp_path / "out.csv").read_text().splitlines()
        csv_comments = [ln[2:].split(",") for ln in lines if ln.startswith("# ")]
        csv_rows = [ln.split(",") for ln in lines if not ln.startswith("#")][1:]
        assert rows and len(csv_rows) == len(rows)
        assert len(csv_comments) == len(comments)
        assert all(map(self.same_cells, csv_rows + csv_comments, rows + comments))


class TestImports:
    """The package and every CLI subcommand need numpy only, and none of
    them loads jsonschema.  Each subcommand loads what it uses: a bare
    `import trapquad` or `import trapquad.species`, matrix-elements,
    clock-shift, extract-theta and a rejected config load no numpy."""

    TYPO_TRAP = {"schema_version": 1,
                 "trap": {"omega_rf_hz": 33e6, "preset": "ideal-linear",
                          "omega_s_hz": 1e6, "alpha_degs": 30.0}}

    @staticmethod
    def fresh_process(args) -> tuple[int, set[str]]:
        """Exit code of a fresh `python -X importtime <args>` process, and the
        top-level package of every module it imported."""
        proc = subprocess.run([sys.executable, "-X", "importtime", *args],
                              capture_output=True, text=True, timeout=120,
                              env={**os.environ, "PYTHONPATH": str(SRC)})
        loaded = {line.rsplit("|", 1)[-1].strip().split(".")[0]
                  for line in proc.stderr.splitlines()
                  if line.startswith("import time:")}
        return proc.returncode, loaded

    def test_bare_import_loads_no_numpy(self):
        code, loaded = self.fresh_process(["-c", "import trapquad"])
        assert code == 0 and "trapquad" in loaded
        assert "numpy" not in loaded

    @pytest.mark.parametrize("source", ["omega", "fit-json"])
    def test_extract_theta_loads_no_numpy(self, tmp_path, ba_config, synthetic_csv,
                                          source):
        if source == "omega":
            given = ["--omega-q-hz", "1694", "--omega-q-err-hz", "35"]
        else:
            fit_json = tmp_path / "fit.json"
            assert main(["fit", "--data", synthetic_csv, "--tau", "1.2e-3",
                         "--format", "json", "-o", str(fit_json)]) == 0
            given = ["--fit-json", str(fit_json)]
        out = tmp_path / "theta.csv"
        code, loaded = self.fresh_process(
            ["-m", "trapquad.cli", "extract-theta", "--config", ba_config, *given,
             "-o", str(out)])
        assert code == 0 and "theta_e_a02" in out.read_text()
        assert "numpy" not in loaded

    @pytest.mark.parametrize("argv", [
        ["clock-shift", "--species", "lu176", "--transition", "1S0-3D2"],
        ["matrix-elements", "--species", "lu176", "--level", "3D2", "--manifold", "5"],
    ])
    def test_config_typo_exits_before_numpy_loads(self, tmp_path, argv):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(self.TYPO_TRAP))
        code, loaded = self.fresh_process(
            ["-m", "trapquad.cli", *argv, "--config", str(path)])
        assert code == 2
        assert "numpy" not in loaded

    def test_clock_shift_loads_no_fractions_or_decimal(self, tmp_path, lu_config):
        # the Racah sums divide exact integers, with no rational type
        code, loaded = self.fresh_process(
            ["-m", "trapquad.cli", "clock-shift", "--species", "lu176", "--transition",
             "1S0-3D2", "--config", lu_config, "-o", str(tmp_path / "shift.csv")])
        assert code == 0 and "numpy" not in loaded
        assert not loaded & {"fractions", "decimal"}

    @pytest.mark.parametrize("argv", [
        ["clock-shift", "--species", "lu176", "--transition", "1S0-3D2", "--grid", "7"],
        ["matrix-elements", "--species", "ba138", "--level", "D5/2", "--manifold", "5/2",
         "--include-zeros"],
    ], ids=["clock-shift", "matrix-elements"])
    def test_light_subcommands_load_no_numpy(self, tmp_path, ba_config, lu_config, argv):
        out = tmp_path / "out.json"
        config = lu_config if argv[0] == "clock-shift" else ba_config
        code, loaded = self.fresh_process(["-m", "trapquad.cli", *argv, "--config", config,
                                           "--format", "json", "-o", str(out)])
        payload = json.loads(out.read_text())
        assert code == 0 and len(payload.get("grid", payload.get("entries"))) in (49, 36)
        assert "numpy" not in loaded

    def test_species_loads_no_numpy(self):
        code, loaded = self.fresh_process(
            ["-c", "from trapquad.species import load_species\n"
                   "assert load_species('lu176').level('3D2').hyperfine_energies_hz"])
        assert code == 0 and "trapquad" in loaded
        assert "numpy" not in loaded

    def test_import_loads_no_scipy(self):
        code, loaded = self.fresh_process(["-c", "import trapquad.cli"])
        assert code == 0 and "trapquad" in loaded
        assert not loaded & {"scipy", "jsonschema"}

    def test_floquet_oracle_loads_no_scipy(self):
        script = ("import math\n"
                  "from trapquad.dynamics import RwaSystem, floquet_oracle_from_rwa\n"
                  "wq = 2 * math.pi * 1.7e3\n"
                  "pops = floquet_oracle_from_rwa(RwaSystem(wq, math.pi / 1.2e-3, 0.0, "
                  "-0.5 * wq), 2 * math.pi * 20.585e6, 1.2e-3)\n"
                  "assert abs(sum(pops) - 1.0) <= 1e-12\n")
        code, loaded = self.fresh_process(["-c", script])
        assert code == 0 and "numpy" in loaded
        assert not loaded & {"scipy", "jsonschema"}

    def test_light_subcommands_load_no_scipy(self, tmp_path, ba_config, lu_config,
                                             synthetic_csv):
        steps = [
            ["matrix-elements", "--species", "ba138", "--level", "D5/2",
             "--manifold", "5/2", "--config", ba_config],
            ["clock-shift", "--species", "lu176", "--transition", "1S0-3D2",
             "--config", lu_config, "--grid", "5"],
            ["extract-theta", "--config", ba_config, "--omega-q-hz", "1694",
             "--omega-q-err-hz", "35"],
            ["spectrum", "--sigma-nt", "18", "--points", "101"],
            ["fit", "--data", synthetic_csv, "--tau", "1.2e-3"],
        ]
        script = "from trapquad.cli import main\n" + "".join(
            f"assert main({argv + ['-o', str(tmp_path / f'out{k}')]!r}) == 0\n"
            for k, argv in enumerate(steps))
        code, loaded = self.fresh_process(["-c", script])
        assert code == 0
        assert not loaded & {"scipy", "jsonschema"}
        assert all((tmp_path / f"out{k}").read_text() for k in range(len(steps)))
