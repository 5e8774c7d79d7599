"""End-to-end quadrupole-moment measurement on synthetic Ba+ data.

Recreates the analysis chain of the proof-of-principle experiment: three
synthetic spectroscopy runs (200, 300, 500 shots per point) with quasi-static
Gaussian field noise are fitted for (omega_q, sigma_B); the runs combine with
a slow-drift error bound, and the trap's secular frequencies convert the
coupling into the D_5/2 quadrupole moment.
"""

import math

import numpy as np

from trapquad import (
    FitConfig,
    NoiseModel,
    RwaSystem,
    TrapConfig,
    combine_runs,
    extract_theta,
    fit_spectrum,
    simulate_counts,
)
from trapquad.trap import CODATA2018, secular_consistency

TWO_PI = 2 * math.pi

# trap: measured secular frequencies fix epsilon and its uncertainty
est = secular_consistency(TWO_PI * 990e3, TWO_PI * 895e3, TWO_PI * 112e3)
trap = TrapConfig.ideal_linear(
    137.905 * CODATA2018.atomic_mass, TWO_PI * 20.585e6,
    est.omega_s, est.uncertainty,
)
print(f"omega_s = 2*pi x {est.omega_s / TWO_PI / 1e3:.1f}"
      f"({est.uncertainty / TWO_PI / 1e3:.0f}) kHz from (990, 895, 112) kHz")

# ground truth for the synthetic experiment
theta_true = 3.229
omega_q_true = trap.epsilon * theta_true * CODATA2018.e_a0_squared / CODATA2018.hbar
sigma_true = 18.2e-9
tau = 1.2e-3
print(f"true coupling: omega_q = 2*pi x {omega_q_true / TWO_PI:.1f} Hz, "
      f"sigma_B = {sigma_true * 1e9:.1f} nT, tau = {tau * 1e3:.1f} ms")

deltas = np.linspace(-1.5, 1.5, 40) * omega_q_true
sys_true = RwaSystem(omega_q_true, math.pi / tau, 0.0, 0.0)
noise = NoiseModel(sigma_b=sigma_true)
config = FitConfig(tau=tau)

fits = []
print(f"\n{'run':>4} {'N':>4} {'omega_q/2pi (Hz)':>18} {'sigma (nT)':>12} "
      f"{'chi2_nu':>8} {'nfev':>5} {'nodes':>6}")
for run, (shots, seed) in enumerate([(200, 11), (300, 12), (500, 13)], 1):
    rng = np.random.default_rng(seed)
    counts = simulate_counts(sys_true, noise, deltas, tau, shots, rng)
    res = fit_spectrum(deltas, counts, shots, config)
    fits.append(res)
    print(f"{run:>4} {shots:>4} "
          f"{res.omega_q / TWO_PI:12.0f} ({res.omega_q_err / TWO_PI:.0f}) "
          f"{res.sigma_b * 1e9:8.1f} ({res.sigma_b_err * 1e9:.1f}) "
          f"{res.chi2_reduced:8.2f} {res.nfev:5d} {res.quadrature_nodes:6d}")

# slow drift of the mean field over a scan: bound 20 nT -> ~1.4% on omega_q
drift_nt = 20.0
drift_err = 0.014 * float(np.mean([f.omega_q for f in fits]))
omega_q, omega_q_err = combine_runs(
    [f.omega_q for f in fits], [f.omega_q_err for f in fits], drift_err
)
print(f"\ncombined: omega_q = 2*pi x {omega_q / TWO_PI:.0f}"
      f"({omega_q_err / TWO_PI:.0f}) Hz  "
      f"(drift bound {drift_nt:.0f} nT -> {drift_err / TWO_PI:.0f} Hz)")

est_theta = extract_theta(omega_q, omega_q_err, trap)
print(f"Theta(D5/2) = {est_theta.theta:.3f}({est_theta.error:.3f}) e*a0^2  "
      f"[truth {theta_true}]")
ok = abs(est_theta.theta - theta_true) < 2 * est_theta.error
print("recovered within two standard errors:", ok)
