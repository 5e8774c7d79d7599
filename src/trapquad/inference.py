"""Quasi-static noise averaging, lineshape fitting and moment extraction.

Magnetic field noise is modelled as Gaussian across experiments and constant
within one experiment.  A field excursion b shifts both rotating-frame
detunings: Delta -> Delta - k_D*b with k_D = 2*g_D*mu_B/hbar, and
delta -> delta - k_d*b with k_d = (g_D - g_S)*mu_B/(2*hbar).  The averaged
signal is a trapezoid sum over x = b/sigma_B in [-8, 8] with weights
h*phi(x), exponentially convergent once h resolves the transfer's features,
pi/(k_D*sigma_B*tau) wide (Trefethen & Weideman, SIAM Rev. 56, 385 (2014)).
h is worked out, never set: from the coarsest 0.5/2**k that resolves them, it
halves until two sums agree to 1e-6 at every point, up to 4097 nodes.

The (omega_q, sigma_B) pair is recovered from measured transfer fractions by
a bounded least-squares fit of the residuals weighted by per-point binomial
variance, seeded by a separable grid scan.  Parameter errors come from
(J^T J)^-1 at the optimum and are scaled by sqrt(chi2_nu) when chi2_nu > 1;
at the sigma_B >= 0 bound the sigma_B error is a one-sided upper limit
instead.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from .dynamics import (RwaSystem, SpectrumScan, check_probe_time,
                       transfer_probabilities)
from .errors import FitError, InvalidInputError, QuadratureConvergenceError
from .trap import CODATA2018, TrapConfig

TWO_PI = 2.0 * math.pi
_FIRST_NODES = 33              # the coarsest rule, step 0.5
_MAX_NODES = 4097
_QUADRATURE_TOL = 1e-6          # largest change of the average when h halves
_SEED_SIGMA_B_NT = np.linspace(1e-9, 60e-9, 13) * 1e9   # fit seed scan, 1..60 nT


@dataclass(frozen=True)
class NoiseModel:
    """Zero-mean Gaussian quasi-static field noise and its detuning sensitivities."""

    sigma_b: float                 # tesla, rms deviation
    g_d: float = 6.0 / 5.0
    g_s: float = 2.0025
    include_laser_sensitivity: bool = True

    def __post_init__(self):
        if not 0.0 <= self.sigma_b < math.inf:
            raise InvalidInputError("sigma_b must be finite and non-negative")
        if not (math.isfinite(self.g_d) and math.isfinite(self.g_s)):
            raise InvalidInputError("g-factors must be finite")

    @property
    def sensitivity_rf(self) -> float:
        """d(Delta)/d(-b): 2 g_D mu_B / hbar, rad/s per tesla."""
        return 2.0 * self.g_d * CODATA2018.bohr_magneton / CODATA2018.hbar

    @property
    def sensitivity_laser(self) -> float:
        """d(delta)/d(-b): (g_D - g_S) mu_B / (2 hbar), rad/s per tesla."""
        if not self.include_laser_sensitivity:
            return 0.0
        return ((self.g_d - self.g_s) * CODATA2018.bohr_magneton
                / (2.0 * CODATA2018.hbar))


@lru_cache(maxsize=None)
def _uniform_rule(n: int, new_only: bool) -> tuple[np.ndarray, np.ndarray]:
    """Read-only nodes x and weights h*phi(x) of the n-node rule, computed
    once; with new_only, just the nodes it adds to the (n + 1)/2-node rule."""
    x = np.linspace(-8.0, 8.0, n)
    if new_only:
        x = x[1::2]
    w = 16.0 / (n - 1) * np.exp(-0.5 * x * x) / math.sqrt(TWO_PI)
    for array in (x, w):
        array.flags.writeable = False
    return x, w


def _start_order(noise: NoiseModel, tau: float) -> int:
    """Nodes of the coarsest rule with h <= min(0.5, pi/(k_D*sigma_B*tau));
    raises QuadratureConvergenceError when its check would pass 4097 nodes."""
    check_probe_time(tau)
    spread = abs(noise.sensitivity_rf) * noise.sigma_b * tau
    n = _FIRST_NODES
    while 16.0 / (n - 1) * spread > math.pi:
        n = 2 * n - 1
        if 2 * n - 1 > _MAX_NODES:
            raise QuadratureConvergenceError(
                f"sigma_B*tau = {noise.sigma_b * tau:.3g} T*s needs more than "
                f"{_MAX_NODES} nodes")
    return n


def _averaged_transfer(sys: RwaSystem, noise: NoiseModel,
                       detunings: np.ndarray, tau: float, n: int,
                       new_only: bool = False) -> np.ndarray:
    """The average of the transfer probability over field noise on the
    n-node rule; with new_only, the share of the nodes it adds."""
    x, w = _uniform_rule(n, new_only)
    b = noise.sigma_b * x                        # field samples, tesla
    d_rf = sys.detuning_rf - noise.sensitivity_rf * b
    d_l = detunings[:, None] - noise.sensitivity_laser * b[None, :]
    return transfer_probabilities(sys.omega_q, sys.omega_0, d_rf, d_l, tau) @ w


def _converged_order(average, n: int) -> tuple[int, np.ndarray, float]:
    """(n, average(2n - 1), max |average(2n - 1) - average(n)|) for the first
    n from the given one where the two agree to 1e-6 at every point, raising
    past 4097 nodes.  average(n, new_only) is as _averaged_transfer, so each
    halving of h evaluates only the new nodes."""
    coarse = average(n, False)
    while True:
        fine = 0.5 * coarse + average(2 * n - 1, True)
        change = float(np.max(np.abs(fine - coarse)))
        if change <= _QUADRATURE_TOL:
            return n, fine, change
        if 4 * n - 3 > _MAX_NODES:
            raise QuadratureConvergenceError(
                f"the noise average changes by {change:.2e} (> {_QUADRATURE_TOL:g}) "
                f"from {n} to {2 * n - 1} nodes, the most it may use")
        n, coarse = 2 * n - 1, fine


@dataclass(frozen=True)
class NoiseAveragedScan(SpectrumScan):
    """A noise-averaged spectrum, taken on 2n - 1 nodes, and how it converged."""

    quadrature_nodes: int           # n: the averages on n and 2n - 1 nodes agree
    quadrature_change: float        # max |p(2n - 1) - p(n)|, at most 1e-6


def noise_averaged_signal(sys: RwaSystem, noise: NoiseModel,
                          detunings: np.ndarray,
                          tau: float) -> NoiseAveragedScan:
    """Noise-averaged transfer spectrum on 2n - 1 nodes, for the first n from
    the coarsest rule that resolves sigma_B*tau where the averages on n and
    2n - 1 nodes agree to 1e-6 at every point.  Raises
    QuadratureConvergenceError past 4097 nodes (sigma_B*tau near 1.9 nT*s)."""
    detunings = np.asarray(detunings, dtype=float)
    n, transfer, change = _converged_order(
        lambda m, new: _averaged_transfer(sys, noise, detunings, tau, m, new),
        _start_order(noise, tau))
    return NoiseAveragedScan(detunings=detunings, transfer=transfer, tau=tau,
                             quadrature_nodes=n, quadrature_change=change)


def simulate_counts(sys: RwaSystem, noise: NoiseModel, detunings: np.ndarray,
                    tau: float, shots: int,
                    rng: np.random.Generator) -> np.ndarray:
    """Binomial counts drawn from the noise-averaged transfer probability."""
    scan = noise_averaged_signal(sys, noise, detunings, tau)
    return rng.binomial(shots, np.clip(scan.transfer, 0.0, 1.0))


@dataclass(frozen=True)
class FitConfig:
    """Fixed experimental parameters and optimiser settings for fit_spectrum."""

    tau: float                      # probe time, s
    omega_0: float | None = None    # defaults to the pi-pulse value pi/tau
    detuning_rf: float = 0.0        # mean Delta during the scan
    g_d: float = NoiseModel.g_d
    g_s: float = NoiseModel.g_s
    include_laser_sensitivity: bool = True
    max_nfev: int = 200             # residual evaluations per refinement

    def __post_init__(self):
        check_probe_time(self.tau)

    def rabi_frequency(self) -> float:
        return self.omega_0 if self.omega_0 is not None else math.pi / self.tau


@dataclass(frozen=True)
class FitResult:
    """Fitted quadrupole coupling and field noise with scaled uncertainties,
    and how the fit got there."""

    omega_q: float        # rad/s
    omega_q_err: float
    sigma_b: float        # tesla
    sigma_b_err: float    # the one-sided upper limit when sigma_b_at_bound
    chi2_reduced: float
    n_points: int
    shots: int
    nfev: int             # model evaluations, seed scan included
    status: int           # least_squares termination status, 1..4
    correlation: float    # omega_q-sigma_B; 0 when sigma_B is held fixed
    quadrature_nodes: int
    quadrature_change: float   # max |p(2n - 1) - p(n)| where the results were taken
    sigma_b_at_bound: bool

    def to_dict(self) -> dict:
        return {
            "omega_q_hz": self.omega_q / TWO_PI,
            "omega_q_err_hz": self.omega_q_err / TWO_PI,
            "sigma_b_nt": self.sigma_b * 1e9,
            "sigma_b_err_nt": self.sigma_b_err * 1e9,
            "chi2_reduced": self.chi2_reduced,
            "n_points": self.n_points,
            "shots": self.shots,
            "diagnostics": {key: getattr(self, key) for key in (
                "nfev", "status", "correlation", "quadrature_nodes",
                "quadrature_change", "sigma_b_at_bound")},
        }


def _binomial_variance(p_model: np.ndarray, shots: np.ndarray) -> np.ndarray:
    """Per-point variance max(p(1-p), 1/(4N))/N; the floor avoids zero weights."""
    per_shot = np.maximum(p_model * (1.0 - p_model), 1.0 / (4.0 * shots))
    return per_shot / shots


def fit_spectrum(detunings: np.ndarray, counts: np.ndarray, shots,
                 config: FitConfig) -> FitResult:
    """Bounded least-squares fit of (omega_q, sigma_B) to measured transfer counts.

    Needs at least 8 points.  scipy's least_squares (trust-region
    reflective, omega_q > 0, sigma_B >= 0) minimises the binomial-weighted
    residuals from a separable seed scan on the 33-node rule: the omega_q
    grid at the middle sigma_B, then the sigma_B grid at the best omega_q.
    It runs on the coarsest rule that resolves the seed's sigma_B*tau; at
    the optimum the rule is checked as in noise_averaged_signal, and the fit
    is refined once on a finer rule when the check needs one.  Errors are the
    square roots of the diagonal of (J^T J)^-1, multiplied by sqrt(chi2_nu)
    when chi2_nu exceeds 1.

    When the sigma_B bound is active, or sigma_B is smaller than its own
    error, sigma_b_at_bound is set, sigma_b_err is the one-sided upper limit
    where chi^2 along sigma_B (omega_q fixed) has risen by 1 (by chi2_nu
    when that exceeds 1), and the omega_q error is taken with sigma_B held
    fixed.  Raises FitError when a refinement reaches config.max_nfev or the
    covariance is degenerate, and QuadratureConvergenceError past 4097 nodes.
    """
    detunings = np.asarray(detunings, dtype=float)
    counts = np.asarray(counts, dtype=float)
    shots_arr = np.broadcast_to(np.asarray(shots, dtype=float), counts.shape).copy()
    if detunings.shape != counts.shape:
        raise InvalidInputError("detunings and counts must have the same length")
    if len(detunings) < 8:
        raise InvalidInputError("need at least 8 data points")
    if not (np.all(np.isfinite(detunings)) and np.all(np.isfinite(counts))
            and np.all(np.isfinite(shots_arr))):
        raise InvalidInputError("detunings, counts and shots must be finite")
    if np.any(shots_arr < 1):
        raise InvalidInputError("each point needs at least one shot")
    noise = NoiseModel(0.0, config.g_d, config.g_s,
                       config.include_laser_sensitivity)
    from scipy.optimize import least_squares  # scipy is imported on first use

    fractions = counts / shots_arr
    ndof = len(detunings) - 2

    omega_0 = config.rabi_frequency()
    nfev = 0

    # x = (omega_q in rad/s, sigma_B in nT): least_squares' finite-difference
    # step is relative to max(1, |x|), which sigma_B in tesla would swamp
    def model(x, n: int, new_only: bool = False) -> np.ndarray:
        nonlocal nfev
        nfev += 1
        sys = RwaSystem(x[0], omega_0, config.detuning_rf, 0.0)
        return _averaged_transfer(sys, replace(noise, sigma_b=x[1] * 1e-9),
                                  detunings, config.tau, n, new_only)

    def residuals(x, n: int) -> np.ndarray:
        p = model(x, n)
        return (fractions - p) / np.sqrt(_binomial_variance(p, shots_arr))

    def chi2(x, n: int) -> float:
        return float(np.sum(residuals(x, n) ** 2))

    # the seed scan keeps the optimiser away from wrong peak assignments
    span = float(detunings.max() - detunings.min())
    grid_w = np.linspace(0.2 * span, 1.2 * span, 13)
    s_mid = _SEED_SIGMA_B_NT[len(_SEED_SIGMA_B_NT) // 2]
    w_seed = min(grid_w, key=lambda w: chi2((w, s_mid), _FIRST_NODES))
    s_seed = min(_SEED_SIGMA_B_NT, key=lambda s: chi2((w_seed, s), _FIRST_NODES))
    x = np.array([w_seed, s_seed])
    n = _start_order(replace(noise, sigma_b=s_seed * 1e-9), config.tau)

    while True:
        fit = least_squares(
            residuals, x, args=(n,), method="trf",
            bounds=([0.0, 0.0], [np.inf, np.inf]), x_scale="jac",
            max_nfev=config.max_nfev,
        )
        if fit.status == 0:
            raise FitError(f"no convergence within {config.max_nfev} "
                           f"evaluations on {n} quadrature nodes")
        x = fit.x
        chi2_min = 2.0 * fit.cost
        scale = math.sqrt(max(chi2_min / ndof, 1.0))
        omega_q_err, sigma_b_err, correlation, at_bound = _fit_errors(
            fit.jac, x[1], fit.active_mask[1] != 0, scale)
        checked = [x]
        if at_bound:
            sigma_b_err = _upper_limit(lambda s: chi2((x[0], s), n),
                                       x[1], chi2_min + scale ** 2)
            checked.append((x[0], sigma_b_err))
        needed, _, change = _converged_order(
            lambda m, new: np.concatenate([model(p, m, new) for p in checked]), n)
        if needed == n:
            break
        n = needed

    return FitResult(
        omega_q=float(x[0]), omega_q_err=float(omega_q_err),
        sigma_b=float(x[1]) * 1e-9, sigma_b_err=float(sigma_b_err) * 1e-9,
        chi2_reduced=chi2_min / ndof, n_points=len(detunings),
        shots=int(round(float(np.max(shots_arr)))),
        nfev=nfev, status=int(fit.status), correlation=float(correlation),
        quadrature_nodes=n, quadrature_change=change,
        sigma_b_at_bound=bool(at_bound),
    )


def _fit_errors(jac: np.ndarray, sigma_b: float, bound_active: bool,
                scale: float) -> tuple[float, float, float, bool]:
    """(omega_q error, sigma_B error, correlation, at bound) from J^T J.

    At the bound the sigma_B error is left as NaN for the caller's upper
    limit, and the omega_q error is taken with sigma_B held fixed.
    """
    jtj = jac.T @ jac
    if jtj[0, 0] <= 0:
        raise FitError("degenerate covariance at the optimum")
    if not bound_active and np.linalg.det(jtj) > 0:
        cov = np.linalg.inv(jtj)
        errs = np.sqrt(np.diag(cov)) * scale
        if np.all(np.isfinite(errs)) and errs[1] < sigma_b:
            return (errs[0], errs[1],
                    cov[0, 1] / math.sqrt(cov[0, 0] * cov[1, 1]), False)
    return scale / math.sqrt(jtj[0, 0]), math.nan, 0.0, True


def _upper_limit(chi2_along, start: float, target: float) -> float:
    """sigma_B (nT) above `start` where chi2_along crosses `target`: a
    doubling bracket from start + 1 nT, then Brent's method."""
    from scipy.optimize import brentq  # scipy is imported on first use

    lo, hi = start, start + 1.0
    while chi2_along(hi) < target:
        lo, hi = hi, start + 2.0 * (hi - start)
        if hi - start > 1e6:
            raise FitError("chi^2 does not rise along sigma_B above the bound")
    return brentq(lambda s: chi2_along(s) - target, lo, hi, xtol=1e-4)


@dataclass(frozen=True)
class ThetaEstimate:
    """Quadrupole moment in e*a0^2 with propagated uncertainty."""

    theta: float
    error: float


def extract_theta(omega_q: float, omega_q_err: float,
                  trap: TrapConfig) -> ThetaEstimate:
    """Theta = hbar*omega_q*sqrt(2)*e/(m*Omega_rf*omega_s), in e*a0^2.

    The relative error combines the omega_q and omega_s relative errors in
    quadrature.
    """
    if omega_q <= 0 or omega_q_err < 0:
        raise InvalidInputError("omega_q must be positive")
    if trap.omega_s is None or trap.omega_s <= 0:
        raise InvalidInputError("trap must carry a positive omega_s")
    c = CODATA2018
    theta_si = (c.hbar * omega_q * math.sqrt(2.0) * c.elementary_charge
                / (trap.mass * trap.omega_rf * trap.omega_s))
    theta = theta_si / c.e_a0_squared
    rel = math.hypot(omega_q_err / omega_q, trap.omega_s_unc / trap.omega_s)
    return ThetaEstimate(theta=theta, error=abs(theta) * rel)


def combine_runs(omega_qs: list[float], errors: list[float],
                 drift_error: float = 0.0) -> tuple[float, float]:
    """Mean coupling over runs; the largest fit error combines in quadrature
    with the slow-drift bound."""
    if not omega_qs or len(omega_qs) != len(errors):
        raise InvalidInputError("need one error per fitted value")
    if min(errors) < 0 or drift_error < 0:
        raise InvalidInputError("errors must be non-negative")
    mean = float(np.mean(omega_qs))
    err = math.hypot(max(errors), drift_error)
    return mean, err
