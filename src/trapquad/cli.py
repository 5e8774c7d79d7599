"""Command-line front end.

Subcommands:
  matrix-elements   quadrupole coupling matrix over chosen hyperfine levels
  clock-shift       fractional-shift parameters (a, eta) and orientation grids
  spectrum          resonant transfer spectrum, optionally noise averaged
  fit               chi^2 fit of (omega_q, sigma_B) to a measured-counts CSV
  extract-theta     quadrupole moment from a fitted coupling and trap config

Every JSON input is checked against its bundled schema; angles are degrees
at this boundary and radians internally.  CSV and JSON render one table of
rows.  Exit codes: 0 success, 2 configuration error, 3 numerical failure.
All outputs are deterministic for a fixed config and seed.  Each subcommand
imports the modules it uses when it runs, after its config is checked.
spectrum and fit load numpy; matrix-elements, clock-shift, extract-theta
and any run whose config is rejected never do.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

from .angular import EulerAngles
from .errors import (FitError, IntegrationError, InvalidInputError, ResonanceError,
                     QuadratureConvergenceError, check_document, read_json, read_text)
from .trap import (CODATA2018, TWO_PI, NoiseModel, TrapConfig, combine_runs,
                   extract_theta, secular_consistency)

EXIT_OK, EXIT_CONFIG, EXIT_NUMERICAL = 0, 2, 3


def _numerical_errors() -> tuple:
    """The exceptions that exit 3.  numpy's LinAlgError is among them once
    numpy is loaded; before that, nothing can have raised it."""
    linalg = sys.modules.get("numpy.linalg")
    return (ResonanceError, QuadratureConvergenceError, IntegrationError, FitError,
            *((linalg.LinAlgError,) if linalg else ()))


def load_run_config(path: str | Path) -> dict:
    """The run config at `path`, checked against schemas/run_config.schema.json."""
    return check_document(read_json(Path(path), "config file"), "run_config", "config")


def trap_from_config(config: dict, mass_kg: float | None = None) -> TrapConfig:
    """Build a TrapConfig from a run config's trap block.

    The config must satisfy schemas/run_config.schema.json.  Exactly one of
    secular_hz, omega_s_hz and explicit (A, eps) must be present,
    omega_s_unc_hz only with omega_s_hz, preset only without (A, eps), and
    mass_u, when a species gives `mass_kg`, must agree with it to 1e-6.
    Frequencies are Hz, fields V/m^2, angles degrees.
    """
    block = check_document(config, "run_config", "config")["trap"]
    omega_rf = TWO_PI * block["omega_rf_hz"]
    if mass_kg is None:
        if "mass_u" not in block:
            raise InvalidInputError("trap block needs mass_u when no species is given")
        mass_kg = block["mass_u"] * CODATA2018.atomic_mass
    elif "mass_u" in block:
        species_u = mass_kg / CODATA2018.atomic_mass
        if not math.isclose(block["mass_u"], species_u, rel_tol=1e-6):
            raise InvalidInputError(f"trap.mass_u in config is {block['mass_u']:g} u, "
                                    f"but the species mass is {species_u:g} u")

    orientation = EulerAngles(math.radians(block.get("alpha_deg", 0.0)),
                              math.radians(block.get("beta_deg", 0.0)))

    has_fields = ("A_v_m2" in block) or ("epsilon_v_m2" in block)
    if ("secular_hz" in block) + ("omega_s_hz" in block) + has_fields != 1:
        raise InvalidInputError("trap block needs exactly one of secular_hz, "
                                "omega_s_hz and explicit A/epsilon")
    if "omega_s_unc_hz" in block and "omega_s_hz" not in block:
        raise InvalidInputError("trap block has omega_s_unc_hz without omega_s_hz, "
                                "and nothing else would use it")
    if "preset" in block and has_fields:
        raise InvalidInputError("trap block has preset with explicit A/epsilon; "
                                "preset goes only with secular_hz or omega_s_hz")

    if has_fields:
        return TrapConfig(
            omega_rf=omega_rf, mass=mass_kg, A=block.get("A_v_m2", 0.0),
            epsilon=block.get("epsilon_v_m2", 0.0), orientation=orientation,
        )

    if "secular_hz" in block:
        est = secular_consistency(*(TWO_PI * block["secular_hz"][key]
                                    for key in ("omega_x", "omega_y", "omega_z")))
        omega_s, omega_s_unc = est.omega_s, est.uncertainty
    else:
        omega_s = TWO_PI * block["omega_s_hz"]
        omega_s_unc = TWO_PI * block.get("omega_s_unc_hz", 0.0)

    preset = (TrapConfig.ideal_quadrupole
              if block.get("preset") == "ideal-quadrupole" else TrapConfig.ideal_linear)
    return preset(mass_kg, omega_rf, omega_s, omega_s_unc, orientation)


def _emit(args, payload: dict, header, rows, comments=()) -> None:
    """Write `payload` as JSON, or as CSV: each `comments` row after '# ',
    the `header` names, then the `rows` the payload was built from."""
    if args.format == "json":
        text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    else:
        lines = ([f"# {_csv_row(row)}" for row in comments] + [",".join(header)]
                 + [_csv_row(row) for row in rows])
        text = "\n".join(lines) + "\n"
    if args.output:
        try:
            Path(args.output).write_text(text)
        except OSError as exc:
            raise InvalidInputError(f"cannot write {args.output}: {exc.strerror}") from None
    else:
        sys.stdout.write(text)


def _csv_row(row) -> str:
    return ",".join(f"{v:.12g}" if isinstance(v, float) else str(v) for v in row)


def cmd_matrix_elements(args) -> int:
    config = load_run_config(args.config)   # a bad config exits before the physics loads
    from .coupling import amplitudes, manifold_rows, reduced_table
    from .species import load_species
    species = load_species(args.species)
    level = species.level(args.level)
    trap = trap_from_config(config, species.mass_kg)
    idx = manifold_rows(level, [f for f in args.manifold.split(",") if f.strip()])
    states = reduced_table(level).states
    columns = [dict(amplitudes(level, trap, k)) for k in idx]
    rows = [(str(states[i].F), str(states[i].m), str(states[k].F), str(states[k].m),
             val.real, val.imag, abs(val))
            for i in idx for k, column in zip(idx, columns)
            if (val := column.get(i, 0j)) != 0 or args.include_zeros]
    keys = ("bra_f", "bra_m", "ket_f", "ket_m", "real_rad_s", "imag_rad_s",
            "modulus_rad_s")
    payload = {
        "kind": "matrix_elements", "schema_version": 1,
        "species": species.name, "level": args.level,
        "basis": [f"{states[i].F},{states[i].m}" for i in idx],
        "entries": [dict(zip(keys, row)) for row in rows],
    }
    _emit(args, payload, ("bra_F", "bra_m", "ket_F", "ket_m", *keys[4:]), rows)
    return EXIT_OK


def _linspace(start: float, stop: float, n: int) -> list[float]:
    """numpy.linspace(start, stop, n) bit for bit: i * step + start, then stop."""
    step = (stop - start) / max(n - 1, 1)
    return [i * step + start for i in range(n - 1)] + [stop] if n > 1 else [start] * n


def cmd_clock_shift(args) -> int:
    config = load_run_config(args.config)   # a bad config exits before the physics loads
    from .effects import shift_decomposition
    from .species import load_species
    species = load_species(args.species)
    transition = species.transition(args.transition)
    trap = trap_from_config(config, species.mass_kg)
    if args.grid < 0:
        raise InvalidInputError("--grid must be non-negative")
    dec = shift_decomposition(transition, trap)

    rows = []
    for alpha in _linspace(0.0, 360.0, args.grid):
        for beta in _linspace(0.0, 180.0, args.grid):
            ang = EulerAngles(math.radians(alpha), math.radians(beta))
            rows.append((alpha, beta, dec.fractional_shift(ang)))

    keys = ("alpha_deg", "beta_deg", "fractional_shift")
    payload = {
        "kind": "clock_shift", "schema_version": 1,
        "species": species.name, "transition": args.transition,
        "a": dec.a, "eta": dec.eta,
        "frequency_hz": dec.frequency_hz,
        "grid": [dict(zip(keys, row)) for row in rows],
    }
    _emit(args, payload, keys, rows, comments=[("a", dec.a), ("eta", dec.eta)])
    return EXIT_OK


def cmd_spectrum(args) -> int:
    from .dynamics import RwaSystem, default_detuning_grid
    from .inference import noise_averaged_signal
    omega_q = TWO_PI * args.omega_q_hz
    if omega_q == 0:
        raise InvalidInputError("--omega-q-hz must be nonzero")
    omega_0 = args.omega0_ratio * abs(omega_q)
    if omega_0 <= 0:
        raise InvalidInputError("Omega0 ratio must be positive")
    tau = args.tau if args.tau is not None else math.pi / omega_0
    sys_ = RwaSystem(omega_q, omega_0, args.Delta * abs(omega_q), 0.0)
    if args.points < 1 or not 0.0 < args.span < math.inf:
        raise InvalidInputError("--points and --span must be positive")
    grid = default_detuning_grid(omega_q, args.points, args.span)
    scan = noise_averaged_signal(sys_, NoiseModel(args.sigma_nt * 1e-9), grid, tau)

    rows = [(d / abs(omega_q), p) for d, p in zip(scan.detunings, scan.transfer)]
    payload = {
        "kind": "spectrum", "schema_version": 1,
        "omega_q_hz": args.omega_q_hz, "omega0_ratio": args.omega0_ratio,
        "delta_rf_over_omega_q": args.Delta, "tau_s": tau,
        "sigma_nt": args.sigma_nt,
        "points": [dict(zip(("delta_over_omega_q", "transfer_probability"), row))
                   for row in rows],
    }
    if scan.quadrature_nodes > 1:      # a noise average, not the bare spectrum
        payload["diagnostics"] = {"quadrature_nodes": scan.quadrature_nodes,
                                  "quadrature_change": scan.quadrature_change}
    _emit(args, payload, ("delta_over_omegaQ", "transfer_probability"), rows)
    return EXIT_OK


def _read_fit_csv(path: str) -> tuple[list[float], list[float], list[float]]:
    text = read_text(Path(path), "data file")
    deltas, counts, shots = [], [], []
    rows = [(ln, line) for ln, line in enumerate(map(str.strip, text.splitlines()), 1)
            if line and not line.startswith("#")]
    for i, (ln, line) in enumerate(rows):
        cols = [c.strip() for c in line.split(",")]
        if i == 0 and not _is_number(cols[0]):   # a header, after any comments
            expect = ["delta_hz", "excited_counts", "shots"]
            if [c.lower() for c in cols[:3]] != expect:
                raise InvalidInputError(f"fit CSV header must be {','.join(expect)}")
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
    return [TWO_PI * d for d in deltas], counts, shots


def _is_number(text: str) -> bool:
    try:
        float(text)
        return True
    except ValueError:
        return False


def cmd_fit(args) -> int:
    from .inference import FitConfig, fit_spectrum
    deltas, counts, shots = _read_fit_csv(args.data)
    result = fit_spectrum(deltas, counts, shots, FitConfig(tau=args.tau))
    fitted = result.to_dict()
    keys = ("omega_q_hz", "omega_q_err_hz", "sigma_b_nt", "sigma_b_err_nt",
            "chi2_reduced", "n_points", "shots")
    payload = {"kind": "fit_result", "schema_version": 1, **fitted}
    _emit(args, payload, keys, [tuple(fitted[k] for k in keys)])
    return EXIT_OK


def cmd_extract_theta(args) -> int:
    trap = trap_from_config(load_run_config(args.config))
    if args.fit_json:
        fitted = check_document(read_json(Path(args.fit_json), "fit result"),
                                "cli_output#/definitions/fit_result", "fit result")
        values = [TWO_PI * fitted["omega_q_hz"]]
        errors = [TWO_PI * fitted["omega_q_err_hz"]]
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
    keys = ("omega_q_hz", "omega_q_err_hz", "theta_e_a02", "theta_err_e_a02")
    row = (omega_q / TWO_PI, omega_q_err / TWO_PI, est.theta, est.error)
    payload = {"kind": "theta_estimate", "schema_version": 1, **dict(zip(keys, row))}
    _emit(args, payload, keys, [row])
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
                   help="rms field noise in nT (0: the noiseless spectrum)")
    add_common(p)
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser("fit", help="fit (omega_q, sigma_B) to counts")
    p.add_argument("--data", required=True,
                   help="CSV of delta_hz,excited_counts,shots")
    p.add_argument("--tau", type=float, required=True, help="probe time in s")
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
    except _numerical_errors() as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
