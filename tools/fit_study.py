"""Fit studies: fit_spectrum on counts drawn from a dense noise average.

    python3 tools/fit_study.py    # the global study, default_rng(0..9)

global: sigma_B of 300, 500, 800, 1200 and 2000 nT at tau = pi/(0.25 omega_q)
(1.18 ms), and 40 nT at tau = pi/(0.005 omega_q) (59 ms, Omega_0 = 0.005
omega_q), each with default_rng(seed) for seed 0..9.  omega_q is
2*pi*1.7 kHz; 40 points over +-1.5 omega_q, 300 shots, Delta = 0 and a pi
pulse, omega_0 = pi/tau.  The counts are binomial draws from a 4001-node
trapezoid average over +-8 sigma_B that this script writes itself, not from
simulate_counts, so a change to the package's quadrature rule cannot move
the data.  Each case reports its exit class (0, or the 2 or 3 the CLI exits
with for the error raised), omega_q relative to the truth, the fitted
sigma_B, the quadrature nodes, nfev, and Pearson chi^2 at the fit and at the
truth, both on the dense average.  A fit that finds the global optimum ends
with chi^2 no larger than at the truth (ROADMAP item 3).

Prints a table and writes out/fit_study/global.json, which is the same for
a given tree.  tests/test_fit_global.py runs a slice of the study through
run_case; tests/test_inference.py checks the package's noise average and
chi^2 against dense_average and chi2.  numpy and the standard library only.
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from trapquad.cli import EXIT_CONFIG, EXIT_NUMERICAL, _numerical_errors  # noqa: E402
from trapquad.dynamics import transfer_probabilities  # noqa: E402
from trapquad.errors import InvalidInputError  # noqa: E402
from trapquad.inference import FitConfig, fit_spectrum  # noqa: E402
from trapquad.trap import SENSITIVITY_LASER, SENSITIVITY_RF  # noqa: E402

OMEGA_Q = 2.0 * math.pi * 1.7e3
HALF = np.linspace(-1.5, 1.5, 40)[20:] * OMEGA_Q    # the 20 points above 0
DETUNINGS = np.concatenate([-HALF[::-1], HALF])     # and their exact mirrors
SHOTS = 300
TAU = math.pi / (0.25 * OMEGA_Q)          # 1.18 ms
TAU_LONG = math.pi / (0.005 * OMEGA_Q)    # 59 ms
GLOBAL = [(sigma_nt, TAU) for sigma_nt in (300, 500, 800, 1200, 2000)] + [(40, TAU_LONG)]
SEEDS = range(10)


def dense_average(omega_q: float, sigma_b: float, tau: float,
                  detunings: np.ndarray) -> np.ndarray:
    """The transfer at each laser detuning, Delta = 0 and a pi pulse
    (omega_0 = pi/tau), averaged over field noise of rms sigma_b (tesla): a
    trapezoid sum over b in +-8 sigma_b on 4001 nodes, normalised by its
    weight sum.  Its step 0.004 sigma_b is no dyadic fraction of the
    package rule's 0.5 sigma_b, so of that rule's nodes it shares only the
    multiples of 0.5 sigma_b.  It includes the tails beyond +-6 sigma_b
    that the rule leaves out; those can move the average by up to
    2*Phi(-6) = 2.0e-9."""
    x = np.linspace(-8.0, 8.0, 4001)
    w = np.exp(-0.5 * x * x)
    w /= w.sum()
    b = sigma_b * x
    d_l = detunings[:, None] - SENSITIVITY_LASER * b
    d_rf = np.broadcast_to(-SENSITIVITY_RF * b, d_l.shape)
    return transfer_probabilities(omega_q, math.pi / tau, d_rf, d_l, tau) @ w


def chi2(counts: np.ndarray, p: np.ndarray) -> float:
    """Pearson chi^2 with the fit's binomial variance max(p(1 - p), 1/(4N))/N."""
    var = np.maximum(p * (1.0 - p), 1.0 / (4.0 * SHOTS)) / SHOTS
    return float(np.sum((counts / SHOTS - p) ** 2 / var))


def run_case(sigma_nt: float, seed: int, tau: float = TAU) -> dict:
    """One case of the global study: counts drawn with default_rng(seed) at
    sigma_B = sigma_nt nT, fitted, and chi^2 at the truth and at the fit."""
    def average(omega_q: float, sigma_b: float) -> np.ndarray:
        # at Delta = 0 the transfer is even in delta and the nodes are
        # symmetric in b, so the average is even in delta: it is taken on
        # the points above 0 and mirrored
        p = dense_average(omega_q, sigma_b, tau, HALF)
        return np.concatenate([p[::-1], p])

    truth = average(OMEGA_Q, sigma_nt * 1e-9)
    counts = np.random.default_rng(seed).binomial(SHOTS, np.clip(truth, 0.0, 1.0))
    case = {"sigma_b_nt": sigma_nt, "tau_s": tau, "seed": seed,
            "chi2_truth": chi2(counts, truth)}
    try:
        fit = fit_spectrum(DETUNINGS, counts, SHOTS, FitConfig(tau=tau))
    except (InvalidInputError, *_numerical_errors()) as exc:   # as the CLI exits
        case.update(exit=EXIT_CONFIG if isinstance(exc, InvalidInputError) else EXIT_NUMERICAL,
                    error=f"{type(exc).__name__}: {exc}")
    else:
        case.update(exit=0, omega_q_ratio=fit.omega_q / OMEGA_Q,
                    fit_sigma_b_nt=fit.sigma_b * 1e9, nodes=fit.quadrature_nodes,
                    nfev=fit.nfev,
                    chi2_fit=chi2(counts, average(fit.omega_q, fit.sigma_b)))
    return case


def row(case: dict) -> str:
    head = (f"{case['sigma_b_nt']:>5g} nT {case['tau_s'] * 1e3:6.2f} ms "
            f"{case['seed']:>4} {case['exit']:>4}")
    if case["exit"]:
        return f"{head}   {case['error'][:60]}"
    below = "yes" if case["chi2_fit"] <= case["chi2_truth"] else "NO"
    return (f"{head} {case['omega_q_ratio']:7.3f} {case['fit_sigma_b_nt']:8.1f} "
            f"{case['nodes']:5} {case['nfev']:4} {case['chi2_fit']:8.1f} "
            f"{case['chi2_truth']:8.1f} {below:>5}")


def main() -> int:
    print(" sigma_B      tau seed exit wq/true  sigma_B nodes nfev  chi2fit "
          "chi2true fit<=")
    cases = []
    for sigma_nt, tau in GLOBAL:
        for seed in SEEDS:
            cases.append(run_case(sigma_nt, seed, tau))
            print(row(cases[-1]), flush=True)
    out = ROOT / "out" / "fit_study"
    out.mkdir(parents=True, exist_ok=True)
    (out / "global.json").write_text(json.dumps(
        {"omega_q_hz": OMEGA_Q / (2.0 * math.pi), "points": len(DETUNINGS),
         "span_omega_q": 3.0, "shots": SHOTS, "cases": cases}, indent=1) + "\n")
    print(f"wrote {out / 'global.json'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
