"""The three workloads: their inputs, their timed operations, their checks.

A workload is built from the seed (inputs only), then `operations()` yields
one round: named operations that call trapquad through its module
attributes (so the tracer's wrappers see them).  The runner times each
operation against the workload's `gauge` (gauge.py); `check()` then judges
the outputs of the first round operation by operation, against `checks`
(which never imports trapquad).
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import checks as ref

TWO_PI = 2.0 * math.pi


# -- shared Ba+ experiment of the paper ---------------------------------------
SECULAR_HZ = (990e3, 895e3, 112e3)   # measured omega_x, omega_y, omega_z
BA_OMEGA_RF = TWO_PI * 20.585e6
BA_MASS_U = 137.905
TAU = 1.2e-3                         # probe time, s (a pi pulse: Omega0 = pi/tau)
SIGMA_B = 18.2e-9                    # quasi-static field noise, T


def ba_omega_s() -> tuple[float, float]:
    """omega_s = (omega_x + omega_y)/2 with |omega_z - (omega_x - omega_y)|."""
    wx, wy, wz = (TWO_PI * f for f in SECULAR_HZ)
    return 0.5 * (wx + wy), abs(wz - (wx - wy))


def ba_omega_q_true() -> float:
    """eps*Theta/hbar for the synthetic truth Theta = 3.229 e*a0^2."""
    eps = ref.linear_trap_epsilon(BA_MASS_U * ref.ATOMIC_MASS, BA_OMEGA_RF,
                                  ba_omega_s()[0])
    return eps * ref.THETA_BA * ref.E_A0_SQ / ref.HBAR


class Workload:
    name = ""
    known_fault = None   # the operation a named program fault fails every time
    gauge = ""           # the reference work of the same kind (gauge.py)

    def operations(self):
        raise NotImplementedError

    def check(self, results: dict) -> tuple[dict[str, list[str]], list[str]]:
        raise NotImplementedError

    def close(self) -> None:
        pass


def _fail_if_error(results: dict, name: str) -> list[str]:
    got = results.get(name)
    if isinstance(got, OpError):
        return [f"raised: {got.message}"]
    return []


class OpError:
    """An operation that raised; its message stands in for its output."""

    def __init__(self, message: str):
        self.message = message

    def __repr__(self) -> str:
        return f"OpError({self.message!r})"


# -- lu_clock_budget ------------------------------------------------------------
class LuClockBudget(Workload):
    """The Lu+ static clock-shift budget at seeded trap orientations."""

    name = "lu_clock_budget"
    gauge = "python"
    TERMS = ("3D1", "3D2", "1D2")
    N_ORIENTATIONS = 3
    ZEEMAN_SPLITTING = TWO_PI * 100e3   # rad/s, with g_F = 1.2

    def __init__(self, ctx, seed: int):
        self.ctx = ctx
        rng = np.random.default_rng([seed, 1])
        self.angles = [(float(rng.uniform(0.0, TWO_PI)), float(rng.uniform(0.0, math.pi)))
                       for _ in range(self.N_ORIENTATIONS)]
        self.wigner_rng = np.random.default_rng([seed, 11])

    def operations(self):
        for label in ref.LU_PAPER:
            yield f"decomposition {label}", lambda res, label=label: self._decompose(label)
        for k, angles in enumerate(self.angles):
            yield f"orientation {k}", lambda res, angles=angles: self._budget(angles)

    def _decompose(self, label):
        ctx = self.ctx
        dec = ctx.effects.shift_decomposition(ctx.lu.transition(label), ctx.lu_trap)
        return {"a": dec.a, "eta": dec.eta, "frequency_hz": dec.frequency_hz}

    def _budget(self, angles):
        ctx = self.ctx
        eff = ctx.effects
        trap = ctx.lu_trap.with_orientation(ctx.angular.EulerAngles(*angles))
        out = {}
        for term in self.TERMS:
            level = ctx.lu.level(term)
            fs = level.f_values()
            mat = ctx.coupling.hq_matrix(level, trap, fs)
            per_f = {f: eff.clock_shift(level, f, trap) for f in fs}
            out[term] = {
                "H": mat.amplitude,
                "F2": np.array([s.F.twice for s in mat.basis]),
                "m2": np.array([s.m.twice for s in mat.basis]),
                "clock": np.array([per_f[f] for f in fs]),
                "average": eff.hyperfine_average(per_f, level),
                "sideband": np.array([eff.sideband_index(level, s.F, s.m, trap)
                                      for s in mat.basis]),
            }
        level = ctx.lu.level("3D2")
        zeeman = eff.ZeemanConfig.from_splitting(1.2, self.ZEEMAN_SPLITTING)
        out["offresonant"] = np.array([
            eff.offresonant_zeeman_shift(level, s.F, s.m, trap, zeeman)
            for s in level.manifold(7) + level.manifold(9)])
        return out

    def check(self, results):
        ops: dict[str, list[str]] = {}
        decs = {}
        for label, (a_want, eta_want) in ref.LU_PAPER.items():
            name = f"decomposition {label}"
            probs = _fail_if_error(results, name)
            if not probs:
                dec = decs[label] = results[name]
                if not ref.close(dec["a"], a_want, 0.05):
                    probs.append(f"a = {dec['a']:.4e}, paper {a_want:.3e} (5%)")
                if abs(dec["eta"] - eta_want) > 0.01:
                    probs.append(f"eta = {dec['eta']:.4f}, paper {eta_want} (0.01)")
            ops[name] = probs

        reference = None
        omega_rf = self.ctx.lu_trap.omega_rf
        for k, (alpha, beta) in enumerate(self.angles):
            name = f"orientation {k}"
            probs = ops[name] = _fail_if_error(results, name)
            if probs:
                continue
            out = results[name]
            # H_Q's spectrum, whole and per F block, must not depend on the
            # orientation: every orientation is held to the first one's
            spectra = {term: self._spectra(out[term]) for term in self.TERMS}
            reference = reference or spectra
            for term in self.TERMS:
                probs += self._check_level(term, out[term], spectra[term], reference[term])
                label = f"1S0-{term}"
                if label in decs:
                    dec = decs[label]
                    want = dec["a"] * dec["frequency_hz"] * (
                        ref.f2(alpha, beta) + dec["eta"] * ref.f1(alpha, beta))
                    if not ref.close(out[term]["average"], want, 1e-9):
                        probs.append(f"{term}: hyperfine average {out[term]['average']:.9e}"
                                     f" Hz != a*nu*(f2+eta*f1) = {want:.9e} Hz")
                sb = out[term]["sideband"]
                diag = np.real(np.diag(out[term]["H"])) / omega_rf
                if np.max(np.abs(sb - diag)) > 1e-12 * max(np.max(np.abs(diag)), 1e-300):
                    probs.append(f"{term}: sideband index != diag(H_Q)/Omega_rf")
                if np.max(np.abs(sb)) >= 1e-4:
                    probs.append(f"{term}: modulation index {np.max(np.abs(sb)):.2e} >= 1e-4")
            probs += self._check_offresonant(out)

        extra = self._check_wigner_sample()
        return ops, extra

    @staticmethod
    def _spectra(out) -> dict:
        """Eigenvalues of the whole level and of each F block of H_Q."""
        h, f2s = out["H"], out["F2"]
        return {"all": np.linalg.eigvalsh(h),
                **{int(f): np.linalg.eigvalsh(h[np.ix_(f2s == f, f2s == f)])
                   for f in np.unique(f2s)}}

    @staticmethod
    def _check_level(term, out, spectra, reference) -> list[str]:
        probs = []
        h, f2s = out["H"], out["F2"]
        scale = max(np.max(np.abs(h)), 1.0)
        if np.max(np.abs(h - h.conj().T)) > 1e-12 * scale:
            probs.append(f"{term}: H_Q not Hermitian")
        for f in np.unique(f2s):
            if abs(np.trace(h[np.ix_(f2s == f, f2s == f)])) > 1e-12 * scale:
                probs.append(f"{term}: F={f}/2 block not traceless")
        for key, want in reference.items():
            if np.max(np.abs(spectra[key] - want)) > 1e-12 * max(np.max(np.abs(want)), 1e-300):
                block = "whole level" if key == "all" else f"F={key}/2 block"
                probs.append(f"{term}: {block} eigenvalues change with orientation")
        return probs

    def _check_offresonant(self, out) -> list[str]:
        """Antisymmetry in m, and the second-order sum over H_Q's elements."""
        h = out["3D2"]["H"]
        f2s, m2s = out["3D2"]["F2"], out["3D2"]["m2"]
        omega_z = self.ZEEMAN_SPLITTING
        omega_rf = self.ctx.lu_trap.omega_rf
        index = {(f, m): i for i, (f, m) in enumerate(zip(f2s, m2s))}
        states = [(f, m) for f in (14, 18) for m in range(-f, f + 1, 2)]
        got = dict(zip(states, out["offresonant"]))
        probs = []
        scale = max(abs(v) for v in got.values())
        for (f, m), value in got.items():
            if abs(value + got[(f, -m)]) > 1e-12 * scale:
                probs.append(f"off-resonant shift of F={f}/2 m={m}/2 not odd in m")
                break
            want = 0.0
            for dm in (-2, -1, 1, 2):
                other = index.get((f, m + 2 * dm))
                if other is None:
                    continue
                amp2 = abs(h[other, index[(f, m)]]) ** 2
                want -= 0.5 * amp2 * omega_z * dm / ((omega_z * dm) ** 2 - omega_rf ** 2)
            if abs(value - want) > 1e-9 * scale:
                probs.append(f"off-resonant shift of F={f}/2 m={m}/2: {value:.6e}"
                             f" != sum over H_Q elements {want:.6e}")
                break
        return probs

    def _check_wigner_sample(self) -> list[str]:
        angular = self.ctx.angular
        three, six = ref.wigner_sample(self.wigner_rng, 25)
        probs = []
        for t in three:
            got = angular.wigner_3j(*(x / 2 for x in t))
            want = ref.exact_3j(*t)
            if abs(got - want) > 1e-12 * max(1.0, abs(want)):
                probs.append(f"3j{t} = {got!r}, sympy {want!r}")
        for t in six:
            got = angular.wigner_6j(*(x / 2 for x in t))
            want = ref.exact_6j(*t)
            if abs(got - want) > 1e-12 * max(1.0, abs(want)):
                probs.append(f"6j{t} = {got!r}, sympy {want!r}")
        return probs


# -- ba_theta_measurement ---------------------------------------------------------
class BaThetaMeasurement(Workload):
    """Demo 05's chain: three seeded spectra, their fits, and Theta."""

    name = "ba_theta_measurement"
    gauge = "numpy"
    RUNS = (200, 300, 500)       # shots per point
    N_POINTS = 40
    # The noisy fit sits inside the fit's own sigma_B seed grid (1..60 nT).  Its
    # data do not depend on --seed: it fails every time, through the fit's
    # unchecked order-40 quadrature (chi2_reduced off by ~2% at 50 nT).
    NOISY_SIGMA_B, NOISY_SHOTS, NOISY_SEED = 50e-9, 300, 50
    known_fault = "fit 50nT"

    def __init__(self, ctx, seed: int):
        self.ctx = ctx
        self.seed = seed
        self.omega_q = ba_omega_q_true()
        self.omega_0 = math.pi / TAU
        self.deltas = np.linspace(-1.5, 1.5, self.N_POINTS) * self.omega_q
        self.sample_rng = np.random.default_rng([seed, 21])

    def operations(self):
        for k, shots in enumerate(self.RUNS):
            yield (f"fit run {k + 1}",
                   lambda res, k=k, shots=shots: self._fit(
                       SIGMA_B, shots, np.random.default_rng([self.seed, 2, k])))
        yield (self.known_fault,
               lambda res: self._fit(self.NOISY_SIGMA_B, self.NOISY_SHOTS,
                                     np.random.default_rng(self.NOISY_SEED)))
        yield "theta", self._theta

    def _fit(self, sigma_b, shots, rng):
        inf = self.ctx.inference
        truth = self.ctx.dynamics.RwaSystem(self.omega_q, self.omega_0, 0.0, 0.0)
        counts = inf.simulate_counts(truth, inf.NoiseModel(sigma_b=sigma_b),
                                     self.deltas, TAU, shots, rng)
        fit = inf.fit_spectrum(self.deltas, counts, shots, inf.FitConfig(tau=TAU))
        return {"counts": counts, "shots": shots, "omega_q": fit.omega_q,
                "omega_q_err": fit.omega_q_err, "sigma_b": fit.sigma_b,
                "sigma_b_err": fit.sigma_b_err, "chi2_reduced": fit.chi2_reduced}

    def _theta(self, res):
        inf = self.ctx.inference
        fits = [res[f"fit run {k + 1}"] for k in range(len(self.RUNS))]
        values = [f["omega_q"] for f in fits]
        # slow drift of the mean field over a scan: ~1.4% on omega_q (demo 05)
        drift = 0.014 * float(np.mean(values))
        mean, err = inf.combine_runs(values, [f["omega_q_err"] for f in fits], drift)
        est = inf.extract_theta(mean, err, self.ctx.ba_trap)
        return {"omega_q": mean, "omega_q_err": err, "drift": drift,
                "theta": est.theta, "theta_err": est.error}

    def check(self, results):
        ops = {}
        for name in [f"fit run {k + 1}" for k in range(len(self.RUNS))] + [self.known_fault]:
            probs = ops[name] = _fail_if_error(results, name)
            if not probs:
                probs += self._check_fit(results[name])
        name = "theta"
        probs = ops[name] = _fail_if_error(results, name)
        if not probs:
            probs += self._check_theta(results)
        return ops, self._check_transfer()

    def _check_fit(self, fit) -> list[str]:
        counts, shots = fit["counts"], fit["shots"]
        if np.any(counts < 0) or np.any(counts > shots):
            return ["counts outside 0..shots"]
        model = ref.noise_average(fit["omega_q"], self.omega_0, self.deltas, TAU,
                                  fit["sigma_b"])
        want = ref.reduced_chi2(counts / shots, model, shots)
        if not ref.close(fit["chi2_reduced"], want, 1e-3):
            return [f"chi2_reduced {fit['chi2_reduced']:.6f} != {want:.6f} recomputed"
                    " with a converged noise average (1e-3)"]
        return []

    def _check_theta(self, results) -> list[str]:
        out = results["theta"]
        fits = [results[f"fit run {k + 1}"] for k in range(len(self.RUNS))]
        probs = []
        mean = sum(f["omega_q"] for f in fits) / len(fits)
        err = math.hypot(max(f["omega_q_err"] for f in fits), out["drift"])
        if not (ref.close(out["omega_q"], mean, 1e-12) and ref.close(out["omega_q_err"], err, 1e-12)):
            probs.append("combined coupling is not the mean with the largest error and drift")
        omega_s, omega_s_unc = ba_omega_s()
        theta = ref.theta_from_coupling(out["omega_q"], BA_MASS_U * ref.ATOMIC_MASS,
                                        BA_OMEGA_RF, omega_s)
        theta_err = abs(theta) * math.hypot(out["omega_q_err"] / out["omega_q"],
                                            omega_s_unc / omega_s)
        if not (ref.close(out["theta"], theta, 1e-9) and ref.close(out["theta_err"], theta_err, 1e-9)):
            probs.append(f"Theta {out['theta']:.6f}({out['theta_err']:.6f}) != "
                         f"{theta:.6f}({theta_err:.6f}) from the coupling")
        if abs(out["theta"] - ref.THETA_BA) > 3.0 * out["theta_err"]:
            probs.append(f"Theta {out['theta']:.4f}({out['theta_err']:.4f}) more than 3 sigma"
                         f" from the truth {ref.THETA_BA}")
        return probs

    def _check_transfer(self) -> list[str]:
        """transfer_probabilities against expm of the written-out Hamiltonian."""
        rng = self.sample_rng
        d_rf = rng.uniform(-2.0, 2.0, 12) * self.omega_q
        d_l = rng.uniform(-2.0, 2.0, 12) * self.omega_q
        got = self.ctx.dynamics.transfer_probabilities(self.omega_q, self.omega_0, d_rf, d_l, TAU)
        want = np.array([1.0 - ref.populations_expm(self.omega_q, self.omega_0, a, b, TAU)[3]
                         for a, b in zip(d_rf, d_l)])
        if np.max(np.abs(got - want)) > 1e-9:
            return [f"transfer_probabilities differs from expm by {np.max(np.abs(got - want)):.2e}"]
        return []


# -- cli_session ------------------------------------------------------------------------
class CliRunner:
    """Runs `python -m trapquad.cli` in fresh processes, one at a time.

    Each child is reaped with os.wait4, which also gives its peak RSS.
    """

    def __init__(self, root: Path, workdir: Path, seed: int):
        self.workdir = workdir
        workdir.mkdir(parents=True, exist_ok=True)
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = str(root / "src")
        self.peak_child_kb = 0
        rng = np.random.default_rng([seed, 4])
        alpha, beta = rng.uniform(0.0, 360.0), rng.uniform(0.0, 180.0)
        self.write_json("ba.json", {"schema_version": 1, "trap": {
            "omega_rf_hz": BA_OMEGA_RF / TWO_PI, "preset": "ideal-linear",
            "secular_hz": dict(zip(("omega_x", "omega_y", "omega_z"), SECULAR_HZ)),
            "mass_u": BA_MASS_U, "alpha_deg": alpha, "beta_deg": beta}})
        self.write_json("lu.json", {"schema_version": 1, "trap": {
            "omega_rf_hz": 33e6, "preset": "ideal-linear", "omega_s_hz": 1e6}})
        # A misspelt key: the documented answer is exit code 2.
        self.write_json("typo.json", {"schema_version": 1, "trap": {
            "omega_rf_hz": 33e6, "preset": "ideal-linear", "omega_s_hz": 1e6,
            "alpha_degs": 30.0}})

    def write_json(self, name: str, doc: dict) -> None:
        (self.workdir / name).write_text(json.dumps(doc))

    def run(self, argv: list[str], timeout: float = 120.0) -> int:
        with open(self.workdir / "stderr.txt", "ab") as err:
            proc = subprocess.Popen([sys.executable, "-m", "trapquad.cli", *argv],
                                    cwd=self.workdir, env=self.env,
                                    stdout=subprocess.DEVNULL, stderr=err)
            deadline = time.monotonic() + timeout
            while True:
                pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
                if pid:
                    break
                if time.monotonic() > deadline:
                    proc.kill()
                    _, status, usage = os.wait4(proc.pid, 0)
                    break
                time.sleep(0.002)
        proc.returncode = os.waitstatus_to_exitcode(status)
        self.peak_child_kb = max(self.peak_child_kb, usage.ru_maxrss)
        return proc.returncode

    def remove(self) -> None:
        shutil.rmtree(self.workdir, ignore_errors=True)

    def read(self, name: str):
        path = self.workdir / name
        return path.read_text() if path.exists() else None


LIGHT_STEPS = [
    ("matrix-elements", ["matrix-elements", "--species", "ba138", "--level", "D5/2",
                         "--manifold", "5/2", "--config", "ba.json", "--format", "json",
                         "-o", "matrix.json"]),
    ("clock-shift", ["clock-shift", "--species", "lu176", "--transition", "1S0-3D2",
                     "--config", "lu.json", "--grid", "7", "--format", "json",
                     "-o", "clock.json"]),
    ("extract-theta", ["extract-theta", "--config", "ba.json", "--omega-q-hz", "1694",
                       "--omega-q-err-hz", "35", "--format", "json", "-o", "theta0.json"]),
]


class CliSession(Workload):
    """A scripted user session, each step a fresh trapquad CLI process."""

    name = "cli_session"
    gauge = "cold_start"
    N_POINTS, SHOTS = 40, 300
    SPECTRUM_POINTS, OMEGA0_RATIO, SPECTRUM_SIGMA_NT = 201, 0.25, 18.0
    known_fault = "config typo"

    def __init__(self, ctx, seed: int):
        self.ctx = ctx
        self.cli = CliRunner(ctx.root, ctx.out_dir / f"session-{os.getpid()}", seed)
        self.omega_q = ba_omega_q_true()
        self.omega_q_hz = round(self.omega_q / TWO_PI, 3)
        # measured counts, drawn by the benchmark from its own noise average
        rng = np.random.default_rng([seed, 5])
        self.deltas_hz = np.linspace(-1.5, 1.5, self.N_POINTS) * self.omega_q / TWO_PI
        p = ref.noise_average(self.omega_q, math.pi / TAU, TWO_PI * self.deltas_hz, TAU, SIGMA_B)
        self.counts = rng.binomial(self.SHOTS, p)
        lines = ["delta_hz,excited_counts,shots"]
        lines += [f"{float(d)!r},{c},{self.SHOTS}" for d, c in zip(self.deltas_hz, self.counts)]
        (self.cli.workdir / "counts.csv").write_text("\n".join(lines) + "\n")
        self.steps = LIGHT_STEPS[:2] + [
            ("spectrum", ["spectrum", "--omega-q-hz", repr(self.omega_q_hz),
                          "--Omega0-ratio", repr(self.OMEGA0_RATIO),
                          "--sigma-nt", repr(self.SPECTRUM_SIGMA_NT),
                          "--points", str(self.SPECTRUM_POINTS), "--format", "json",
                          "-o", "spectrum.json"]),
            ("fit", ["fit", "--data", "counts.csv", "--tau", repr(TAU), "--format", "json",
                     "-o", "fit.json"]),
            ("extract-theta", ["extract-theta", "--config", "ba.json", "--fit-json",
                               "fit.json", "--format", "json", "-o", "theta.json"]),
            (self.known_fault, ["clock-shift", "--species", "lu176", "--transition",
                                "1S0-3D2", "--config", "typo.json", "--format", "json",
                                "-o", "typo.json.out"]),
        ]

    def operations(self):
        for name, argv in self.steps:
            yield name, lambda res, argv=argv: self._invoke(argv)

    def _invoke(self, argv):
        out = argv[argv.index("-o") + 1]
        path = self.cli.workdir / out
        if path.exists():
            path.unlink()
        with self.ctx.span("cli.cold_start"):
            code = self.cli.run(argv)
        return {"exit": code, "output": self.cli.read(out)}

    def check(self, results):
        schema = ref.SchemaCheck(self.ctx.root / "src" / "trapquad" / "schemas"
                                 / "cli_output.schema.json")
        ops = {}
        for name, _ in self.steps:
            probs = ops[name] = _fail_if_error(results, name)
            if probs:
                continue
            got = results[name]
            if name == self.known_fault:
                if got["exit"] != 2:
                    probs.append(f"misspelt config key 'alpha_degs': exit {got['exit']},"
                                 " documented configuration-error code is 2")
                continue
            if got["exit"] != 0:
                probs.append(f"exit code {got['exit']}")
                continue
            payload = json.loads(got["output"])
            probs += schema.errors(payload)
            probs += getattr(self, "_check_" + name.replace("-", "_"))(payload)
        return ops, []

    def _check_matrix_elements(self, payload) -> list[str]:
        basis = payload["basis"]
        index = {label: i for i, label in enumerate(basis)}
        h = np.zeros((len(basis), len(basis)), dtype=complex)
        for e in payload["entries"]:
            h[index[f"{e['bra_f']},{e['bra_m']}"], index[f"{e['ket_f']},{e['ket_m']}"]] = (
                e["real_rad_s"] + 1j * e["imag_rad_s"])
        if len(basis) != 6:
            return [f"D5/2 has 6 states, got {len(basis)}"]
        scale = np.max(np.abs(h))
        probs = []
        if np.max(np.abs(h - h.conj().T)) > 1e-12 * scale:
            probs.append("matrix not Hermitian")
        omega_s = ba_omega_s()[0]
        eps = ref.linear_trap_epsilon(BA_MASS_U * ref.ATOMIC_MASS, BA_OMEGA_RF, omega_s)
        want = ref.principal_frame_eigenvalues(5, ref.THETA_BA, eps)
        got = np.linalg.eigvalsh(h)
        if np.max(np.abs(got - want)) > 1e-9 * np.max(np.abs(want)):
            probs.append(f"eigenvalues {got} != exact-3j reference {want}")
        return probs

    def _check_clock_shift(self, payload) -> list[str]:
        a_want, eta_want = ref.LU_PAPER[payload["transition"]]
        a, eta = payload["a"], payload["eta"]
        probs = []
        if not ref.close(a, a_want, 0.05) or abs(eta - eta_want) > 0.01:
            probs.append(f"(a, eta) = ({a:.4e}, {eta:.4f}), paper ({a_want}, {eta_want})")
        if len(payload["grid"]) != 49:
            probs.append(f"grid has {len(payload['grid'])} rows, want 49")
        for row in payload["grid"]:
            al, be = math.radians(row["alpha_deg"]), math.radians(row["beta_deg"])
            want = a * (ref.f2(al, be) + eta * ref.f1(al, be))
            if abs(row["fractional_shift"] - want) > 1e-12 * abs(a):
                probs.append(f"grid ({row['alpha_deg']}, {row['beta_deg']}) != a*(f2+eta*f1)")
                break
        return probs

    def _check_spectrum(self, payload) -> list[str]:
        omega_q = TWO_PI * payload["omega_q_hz"]
        deltas = np.array([p["delta_over_omega_q"] for p in payload["points"]]) * omega_q
        got = np.array([p["transfer_probability"] for p in payload["points"]])
        if len(got) != self.SPECTRUM_POINTS:
            return [f"{len(got)} spectrum points, want {self.SPECTRUM_POINTS}"]
        omega_0 = self.OMEGA0_RATIO * omega_q
        want = ref.noise_average(omega_q, omega_0, deltas, payload["tau_s"],
                                 payload["sigma_nt"] * 1e-9)
        worst = float(np.max(np.abs(got - want)))
        return [] if worst <= 1e-6 else [f"spectrum differs from a dense noise average by {worst:.2e}"]

    def _check_fit(self, payload) -> list[str]:
        model = ref.noise_average(TWO_PI * payload["omega_q_hz"], math.pi / TAU,
                                  TWO_PI * self.deltas_hz, TAU, payload["sigma_b_nt"] * 1e-9)
        want = ref.reduced_chi2(self.counts / self.SHOTS, model, self.SHOTS)
        if not ref.close(payload["chi2_reduced"], want, 1e-3):
            return [f"chi2_reduced {payload['chi2_reduced']:.6f} != {want:.6f} recomputed"]
        return []

    def _check_extract_theta(self, payload) -> list[str]:
        omega_s, omega_s_unc = ba_omega_s()
        omega_q = TWO_PI * payload["omega_q_hz"]
        theta = ref.theta_from_coupling(omega_q, BA_MASS_U * ref.ATOMIC_MASS, BA_OMEGA_RF, omega_s)
        err = abs(theta) * math.hypot(payload["omega_q_err_hz"] / payload["omega_q_hz"],
                                      omega_s_unc / omega_s)
        probs = []
        if not (ref.close(payload["theta_e_a02"], theta, 1e-9)
                and ref.close(payload["theta_err_e_a02"], err, 1e-9)):
            probs.append("Theta does not follow from the fitted coupling")
        if abs(payload["theta_e_a02"] - ref.THETA_BA) > 3.0 * payload["theta_err_e_a02"]:
            probs.append(f"Theta {payload['theta_e_a02']:.4f} more than 3 sigma from 3.229")
        return probs

    def close(self) -> None:
        self.cli.remove()


WORKLOADS = {w.name: w for w in (LuClockBudget, BaThetaMeasurement, CliSession)}
