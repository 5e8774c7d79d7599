"""Command-line front end.

Subcommands:
  matrix-elements   quadrupole coupling matrix over chosen hyperfine levels
  clock-shift       fractional-shift parameters (a, eta) and orientation grids
  spectrum          resonant transfer spectrum, optionally noise averaged
  fit               chi^2 fit of (omega_q, sigma_B) to a measured-counts CSV
  extract-theta     quadrupole moment from a fitted coupling and trap config

Configuration is JSON with an explicit schema_version; angles are degrees at
this boundary and radians internally.  Exit codes: 0 success, 2 configuration
error, 3 numerical failure.  All outputs are deterministic for a fixed
config and seed.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np

from .angular import EulerAngles
from .coupling import hq_matrix
from .dynamics import RwaSystem, default_detuning_grid, scan_spectrum
from .effects import orientation_f1, orientation_f2, shift_decomposition
from .errors import (
    FitError,
    IntegrationError,
    InvalidInputError,
    QuadratureConvergenceError,
    ResonanceError,
    bundled_schema,
    reject_unknown_keys,
)
from .inference import (
    FitConfig,
    NoiseModel,
    combine_runs,
    extract_theta,
    fit_spectrum,
    noise_averaged_signal,
)
from .species import load_species, parse_half_int
from .trap import CODATA2018, TrapConfig, secular_consistency

CONFIG_SCHEMA_VERSION = 1
EXIT_OK, EXIT_CONFIG, EXIT_NUMERICAL = 0, 2, 3
TWO_PI = 2.0 * math.pi

_NUMERICAL_ERRORS = (
    ResonanceError, QuadratureConvergenceError, IntegrationError, FitError,
    np.linalg.LinAlgError,
)


def _fmt(value: float) -> str:
    return f"{value:.12g}"


def _number(block: dict, key: str, where: str,
            default: float | None = None) -> float:
    """block[key] as a float; only a missing key with a default may be absent,
    and anything but a finite JSON number is a configuration error."""
    if key not in block:
        if default is None:
            raise InvalidInputError(f"{where} needs {key}")
        return default
    value = block[key]
    if (isinstance(value, bool) or not isinstance(value, (int, float))
            or not math.isfinite(value)):
        raise InvalidInputError(f"{key} in {where} must be a finite number, "
                                f"not {value!r}")
    return float(value)


def load_run_config(path: str | Path) -> dict:
    try:
        raw = json.loads(Path(path).read_text())
    except FileNotFoundError:
        raise InvalidInputError(f"config file not found: {path}") from None
    except json.JSONDecodeError as exc:
        raise InvalidInputError(f"config file is not valid JSON: {exc}") from None
    if not isinstance(raw, dict):
        raise InvalidInputError("config file must hold a JSON object")
    if raw.get("schema_version") != CONFIG_SCHEMA_VERSION:
        raise InvalidInputError(
            f"unsupported config schema_version {raw.get('schema_version')!r}"
        )
    reject_unknown_keys(raw, bundled_schema("run_config"), "config")
    return raw


def trap_from_config(config: dict, mass_kg: float | None = None) -> TrapConfig:
    """Build a TrapConfig from the config file's trap block.

    Exactly one of the secular-frequency description and explicit (A, eps)
    must be present.  Frequencies are Hz, fields V/m^2, angles degrees.
    A key that schemas/run_config.schema.json does not list is an error.
    """
    block = config.get("trap")
    if not isinstance(block, dict):
        raise InvalidInputError("config has no 'trap' block")
    trap_schema = bundled_schema("run_config")["properties"]["trap"]
    reject_unknown_keys(block, trap_schema, "trap block")
    omega_rf = TWO_PI * _number(block, "omega_rf_hz", "trap block")
    if mass_kg is None:
        mass_kg = (_number(block, "mass_u", "trap block (no species given)")
                   * CODATA2018.atomic_mass)

    orientation = EulerAngles(
        math.radians(_number(block, "alpha_deg", "trap block", 0.0)),
        math.radians(_number(block, "beta_deg", "trap block", 0.0)),
    )

    has_secular = ("secular_hz" in block) or ("omega_s_hz" in block)
    has_fields = ("A_v_m2" in block) or ("epsilon_v_m2" in block)
    if has_secular == has_fields:
        raise InvalidInputError(
            "trap block needs exactly one of {secular frequencies, explicit "
            "A/epsilon}"
        )

    if has_fields:
        return TrapConfig(
            omega_rf=omega_rf, mass=mass_kg,
            A=_number(block, "A_v_m2", "trap block", 0.0),
            epsilon=_number(block, "epsilon_v_m2", "trap block", 0.0),
            orientation=orientation,
        )

    if "secular_hz" in block:
        sec = block["secular_hz"]
        if not isinstance(sec, dict):
            raise InvalidInputError("secular_hz must be an object")
        reject_unknown_keys(sec, trap_schema["properties"]["secular_hz"],
                            "secular_hz block")
        est = secular_consistency(*(
            TWO_PI * _number(sec, key, "secular_hz block")
            for key in ("omega_x", "omega_y", "omega_z")))
        omega_s, omega_s_unc = est.omega_s, est.uncertainty
    else:
        omega_s = TWO_PI * _number(block, "omega_s_hz", "trap block")
        omega_s_unc = TWO_PI * _number(block, "omega_s_unc_hz", "trap block", 0.0)

    kind = block.get("preset", "ideal-linear")
    if kind == "ideal-linear":
        return TrapConfig.ideal_linear(mass_kg, omega_rf, omega_s,
                                       omega_s_unc, orientation)
    if kind == "ideal-quadrupole":
        return TrapConfig.ideal_quadrupole(mass_kg, omega_rf, omega_s,
                                           omega_s_unc, orientation)
    raise InvalidInputError(f"unknown trap preset {kind!r}")


def _emit(args, payload: dict, csv_lines: list[str]) -> None:
    if args.format == "json":
        text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    else:
        text = "\n".join(csv_lines) + "\n"
    if args.output:
        Path(args.output).write_text(text)
    else:
        sys.stdout.write(text)


def cmd_matrix_elements(args) -> int:
    species = load_species(args.species)
    level = species.level(args.level)
    trap = trap_from_config(load_run_config(args.config), species.mass_kg)
    manifold = [parse_half_int(f) for f in args.manifold.split(",") if f.strip()]
    if not manifold:
        raise InvalidInputError("empty manifold")
    mat = hq_matrix(level, trap, manifold)

    entries = []
    lines = ["bra_F,bra_m,ket_F,ket_m,real_rad_s,imag_rad_s,modulus_rad_s"]
    for i, bra in enumerate(mat.basis):
        for k, ket in enumerate(mat.basis):
            val = mat.amplitude[i, k]
            if val == 0 and not args.include_zeros:
                continue
            entries.append({
                "bra_f": str(bra.F), "bra_m": str(bra.m),
                "ket_f": str(ket.F), "ket_m": str(ket.m),
                "real_rad_s": val.real, "imag_rad_s": val.imag,
                "modulus_rad_s": abs(val),
            })
            lines.append(
                f"{bra.F},{bra.m},{ket.F},{ket.m},"
                f"{_fmt(val.real)},{_fmt(val.imag)},{_fmt(abs(val))}"
            )
    payload = {
        "kind": "matrix_elements", "schema_version": 1,
        "species": species.name, "level": args.level,
        "basis": [f"{s.F},{s.m}" for s in mat.basis],
        "entries": entries,
    }
    _emit(args, payload, lines)
    return EXIT_OK


def cmd_clock_shift(args) -> int:
    species = load_species(args.species)
    transition = species.transition(args.transition)
    trap = trap_from_config(load_run_config(args.config), species.mass_kg)
    if args.grid < 0:
        raise InvalidInputError("--grid must be non-negative")
    dec = shift_decomposition(transition, trap)

    grid_rows = []
    if args.grid:
        n = args.grid
        for alpha in np.linspace(0.0, 360.0, n):
            for beta in np.linspace(0.0, 180.0, n):
                ang = EulerAngles(math.radians(alpha), math.radians(beta))
                grid_rows.append((alpha, beta, dec.fractional_shift(ang)))

    payload = {
        "kind": "clock_shift", "schema_version": 1,
        "species": species.name, "transition": args.transition,
        "a": dec.a, "eta": dec.eta,
        "frequency_hz": dec.frequency_hz,
        "grid": [
            {"alpha_deg": a, "beta_deg": b, "fractional_shift": s}
            for a, b, s in grid_rows
        ],
    }
    lines = [f"# a,{_fmt(dec.a)}", f"# eta,{_fmt(dec.eta)}",
             "alpha_deg,beta_deg,fractional_shift"]
    lines += [f"{_fmt(a)},{_fmt(b)},{_fmt(s)}" for a, b, s in grid_rows]
    _emit(args, payload, lines)
    return EXIT_OK


def cmd_spectrum(args) -> int:
    omega_q = TWO_PI * args.omega_q_hz
    omega_0 = args.omega0_ratio * abs(omega_q)
    if omega_0 <= 0:
        raise InvalidInputError("Omega0 ratio must be positive")
    tau = args.tau if args.tau is not None else math.pi / omega_0
    sys_ = RwaSystem(omega_q, omega_0, args.Delta * abs(omega_q), 0.0)
    if args.points < 1 or not 0.0 < args.span < math.inf:
        raise InvalidInputError("--points and --span must be positive")
    grid = default_detuning_grid(omega_q, args.points, args.span)
    if not args.sigma_nt >= 0:
        raise InvalidInputError("--sigma-nt must be non-negative")
    if args.sigma_nt > 0:
        noise = NoiseModel(sigma_b=args.sigma_nt * 1e-9, g_d=args.g_d,
                           g_s=args.g_s)
        scan = noise_averaged_signal(sys_, noise, grid, tau)
    else:
        scan = scan_spectrum(sys_, grid, tau)

    rows = [(d / abs(omega_q), p) for d, p in zip(scan.detunings, scan.transfer)]
    payload = {
        "kind": "spectrum", "schema_version": 1,
        "omega_q_hz": args.omega_q_hz, "omega0_ratio": args.omega0_ratio,
        "delta_rf_over_omega_q": args.Delta, "tau_s": tau,
        "sigma_nt": args.sigma_nt,
        "points": [
            {"delta_over_omega_q": d, "transfer_probability": p}
            for d, p in rows
        ],
    }
    if args.sigma_nt > 0:
        payload["diagnostics"] = {"quadrature_nodes": scan.quadrature_nodes,
                                  "quadrature_change": scan.quadrature_change}
    lines = ["delta_over_omegaQ,transfer_probability"]
    lines += [f"{_fmt(d)},{_fmt(p)}" for d, p in rows]
    _emit(args, payload, lines)
    return EXIT_OK


def _read_fit_csv(path: str) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    try:
        text = Path(path).read_text()
    except FileNotFoundError:
        raise InvalidInputError(f"data file not found: {path}") from None
    deltas, counts, shots = [], [], []
    for ln, line in enumerate(text.splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        cols = [c.strip() for c in line.split(",")]
        if ln == 1 and not _is_number(cols[0]):
            expect = ["delta_hz", "excited_counts", "shots"]
            if [c.lower() for c in cols[:3]] != expect:
                raise InvalidInputError(
                    f"fit CSV header must be {','.join(expect)}"
                )
            continue
        if len(cols) < 3:
            raise InvalidInputError(f"line {ln}: need delta_hz,excited_counts,shots")
        if not all(_is_number(c) for c in cols[:3]):
            raise InvalidInputError(f"line {ln}: not a number in {line!r}")
        deltas.append(float(cols[0]))
        counts.append(float(cols[1]))
        shots.append(float(cols[2]))
    if not deltas:
        raise InvalidInputError("fit CSV contains no data rows")
    return (TWO_PI * np.array(deltas), np.array(counts), np.array(shots))


def _is_number(text: str) -> bool:
    try:
        float(text)
        return True
    except ValueError:
        return False


def cmd_fit(args) -> int:
    deltas, counts, shots = _read_fit_csv(args.data)
    config = FitConfig(
        tau=args.tau, g_d=args.g_d, g_s=args.g_s,
        include_laser_sensitivity=not args.no_laser_sensitivity,
    )
    result = fit_spectrum(deltas, counts, shots, config)
    payload = {"kind": "fit_result", "schema_version": 1, **result.to_dict()}
    lines = ["omega_q_hz,omega_q_err_hz,sigma_b_nt,sigma_b_err_nt,chi2_reduced,"
             "n_points,shots"]
    d = result.to_dict()
    lines.append(",".join(_fmt(d[k]) if isinstance(d[k], float) else str(d[k])
                          for k in ("omega_q_hz", "omega_q_err_hz", "sigma_b_nt",
                                    "sigma_b_err_nt", "chi2_reduced",
                                    "n_points", "shots")))
    _emit(args, payload, lines)
    return EXIT_OK


def cmd_extract_theta(args) -> int:
    trap = trap_from_config(load_run_config(args.config))
    if args.fit_json:
        try:
            fitted = json.loads(Path(args.fit_json).read_text())
        except FileNotFoundError:
            raise InvalidInputError(
                f"fit result not found: {args.fit_json}"
            ) from None
        except json.JSONDecodeError as exc:
            raise InvalidInputError(f"fit result is not valid JSON: {exc}") from None
        if not isinstance(fitted, dict):
            raise InvalidInputError("fit result must hold a JSON object")
        values = [TWO_PI * _number(fitted, "omega_q_hz", "fit result")]
        errors = [TWO_PI * _number(fitted, "omega_q_err_hz", "fit result")]
    else:
        if args.omega_q_hz is None:
            raise InvalidInputError("need --fit-json or --omega-q-hz")
        values = [TWO_PI * v for v in args.omega_q_hz]
        errors = [TWO_PI * v for v in (args.omega_q_err_hz or [0.0] * len(values))]
        if len(values) != len(errors):
            raise InvalidInputError("need one --omega-q-err-hz per --omega-q-hz")
    omega_q, omega_q_err = combine_runs(values, errors,
                                        TWO_PI * args.drift_error_hz)
    est = extract_theta(omega_q, omega_q_err, trap)
    payload = {
        "kind": "theta_estimate", "schema_version": 1,
        "omega_q_hz": omega_q / TWO_PI, "omega_q_err_hz": omega_q_err / TWO_PI,
        "theta_e_a02": est.theta, "theta_err_e_a02": est.error,
    }
    lines = ["omega_q_hz,omega_q_err_hz,theta_e_a02,theta_err_e_a02",
             ",".join(_fmt(v) for v in (omega_q / TWO_PI, omega_q_err / TWO_PI,
                                        est.theta, est.error))]
    _emit(args, payload, lines)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="trapquad",
        description="Oscillating quadrupole effects on trapped-ion levels",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--format", choices=("csv", "json"), default="csv")
        p.add_argument("--output", "-o", default=None, help="output file")

    p = sub.add_parser("matrix-elements",
                       help="quadrupole coupling matrix over |F,m> states")
    p.add_argument("--species", required=True)
    p.add_argument("--level", required=True)
    p.add_argument("--manifold", required=True,
                   help="comma-separated F values, e.g. '5,6' or '5/2'")
    p.add_argument("--config", required=True, help="trap config JSON")
    p.add_argument("--include-zeros", action="store_true")
    add_common(p)
    p.set_defaults(func=cmd_matrix_elements)

    p = sub.add_parser("clock-shift",
                       help="fractional-shift parameters (a, eta)")
    p.add_argument("--species", required=True)
    p.add_argument("--transition", required=True)
    p.add_argument("--config", required=True)
    p.add_argument("--grid", type=int, default=0,
                   help="emit an NxN (alpha, beta) orientation grid")
    add_common(p)
    p.set_defaults(func=cmd_clock_shift)

    p = sub.add_parser("spectrum", help="resonant transfer spectrum")
    p.add_argument("--omega-q-hz", type=float, default=1700.0)
    p.add_argument("--Delta", type=float, default=0.0,
                   help="rf detuning in units of omega_q")
    p.add_argument("--Omega0-ratio", dest="omega0_ratio", type=float,
                   default=0.05, help="laser coupling in units of omega_q")
    p.add_argument("--tau", type=float, default=None,
                   help="probe time in s (default pi/Omega0)")
    p.add_argument("--points", type=int, default=801)
    p.add_argument("--span", type=float, default=2.0,
                   help="detuning span in units of omega_q")
    p.add_argument("--sigma-nt", type=float, default=0.0,
                   help="rms field noise in nT (0 disables averaging)")
    p.add_argument("--g-d", type=float, default=NoiseModel.g_d)
    p.add_argument("--g-s", type=float, default=NoiseModel.g_s)
    add_common(p)
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser("fit", help="fit (omega_q, sigma_B) to counts")
    p.add_argument("--data", required=True,
                   help="CSV of delta_hz,excited_counts,shots")
    p.add_argument("--tau", type=float, required=True, help="probe time in s")
    p.add_argument("--g-d", type=float, default=NoiseModel.g_d)
    p.add_argument("--g-s", type=float, default=NoiseModel.g_s)
    p.add_argument("--no-laser-sensitivity", action="store_true")
    add_common(p)
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("extract-theta",
                       help="quadrupole moment from fitted couplings")
    p.add_argument("--config", required=True)
    p.add_argument("--fit-json", default=None,
                   help="fit_result JSON from the fit subcommand")
    p.add_argument("--omega-q-hz", type=float, action="append", default=None)
    p.add_argument("--omega-q-err-hz", type=float, action="append",
                   default=None)
    p.add_argument("--drift-error-hz", type=float, default=0.0)
    add_common(p)
    p.set_defaults(func=cmd_extract_theta)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except InvalidInputError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except _NUMERICAL_ERRORS as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
