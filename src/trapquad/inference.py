"""Quasi-static noise averaging, lineshape fitting and moment extraction.

Magnetic field noise is modelled as Gaussian across experiments and constant
within one experiment.  A field excursion b shifts both rotating-frame
detunings: Delta -> Delta - k_D*b with k_D = 2*g_D*mu_B/hbar, and
delta -> delta - k_d*b with k_d = (g_D - g_S)*mu_B/(2*hbar).  The averaged
signal is a Gauss-Hermite integral of the transfer probability over b.  Its
order is worked out, never set: simulated, scanned and fitted averages all
double it from 40 until orders n and 2n agree to 1e-6, up to order 640.

The (omega_q, sigma_B) pair is recovered from measured transfer fractions by
a bounded least-squares fit of the residuals weighted by per-point binomial
variance, seeded by a separable grid scan.  Parameter errors come from
(J^T J)^-1 at the optimum and are scaled by sqrt(chi2_nu) when chi2_nu > 1;
at the sigma_B >= 0 bound the sigma_B error is a one-sided upper limit
instead.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .dynamics import RwaSystem, SpectrumScan, transfer_probabilities
from .errors import FitError, InvalidInputError, QuadratureConvergenceError
from .trap import CODATA2018, TrapConfig

TWO_PI = 2.0 * math.pi
_FIRST_ORDER = 40
_MAX_QUADRATURE_ORDER = 640
_QUADRATURE_TOL = 1e-6          # largest change of the average from order n to 2n
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


def _averaged_transfer(sys: RwaSystem, noise: NoiseModel,
                       detunings: np.ndarray, tau: float,
                       order: int) -> np.ndarray:
    """Gauss-Hermite average of the transfer probability over field noise."""
    detunings = np.asarray(detunings, dtype=float)
    if noise.sigma_b == 0.0:
        return transfer_probabilities(
            sys.omega_q, sys.omega_0,
            np.full_like(detunings, sys.detuning_rf), detunings, tau,
        )
    nodes, w = _hermite_rule(order)
    b = noise.sigma_b * nodes                          # field samples, tesla
    d_rf = sys.detuning_rf - noise.sensitivity_rf * b
    d_l = detunings[:, None] - noise.sensitivity_laser * b[None, :]
    probs = transfer_probabilities(
        sys.omega_q, sys.omega_0,
        np.broadcast_to(d_rf[None, :], d_l.shape), d_l, tau,
    )
    return probs @ w


@lru_cache(maxsize=None)
def _hermite_rule(order: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only Gauss-Hermite nodes and weights for the unit normal
    density (weights sum to 1), computed once per order."""
    from scipy.special import roots_hermitenorm  # scipy is imported on first use

    nodes, weights = roots_hermitenorm(order)
    weights = weights / math.sqrt(2.0 * math.pi)
    for array in (nodes, weights):
        array.flags.writeable = False
    return nodes, weights


def _converged_order(average, order: int = _FIRST_ORDER
                     ) -> tuple[int, np.ndarray, float]:
    """(n, average(2n), max |average(2n) - average(n)|) for the first n,
    doubling from `order`, where the two agree to 1e-6 at every point.
    Raises QuadratureConvergenceError when n would pass order 640."""
    coarse = average(order)
    while True:
        fine = average(2 * order)
        change = float(np.max(np.abs(fine - coarse)))
        if change <= _QUADRATURE_TOL:
            return order, fine, change
        if 2 * order > _MAX_QUADRATURE_ORDER:
            raise QuadratureConvergenceError(
                f"the noise average changes by {change:.2e} "
                f"(> {_QUADRATURE_TOL:g}) from order {order} to {2 * order}"
            )
        order, coarse = 2 * order, fine


@dataclass(frozen=True)
class NoiseAveragedScan(SpectrumScan):
    """A noise-averaged spectrum, taken at order 2n, and how it converged."""

    quadrature_order: int           # n: the averages at n and 2n agree
    quadrature_change: float        # max |p(2n) - p(n)|, at most 1e-6


def noise_averaged_signal(sys: RwaSystem, noise: NoiseModel,
                          detunings: np.ndarray,
                          tau: float) -> NoiseAveragedScan:
    """Noise-averaged transfer spectrum, at order 2n for the first n from 40
    (doubling) where orders n and 2n agree to 1e-6 at every point.  Raises
    QuadratureConvergenceError past order 640, which a 1.2 ms probe reaches
    above ~100 nT."""
    detunings = np.asarray(detunings, dtype=float)
    order, transfer, change = _converged_order(
        lambda n: _averaged_transfer(sys, noise, detunings, tau, n))
    return NoiseAveragedScan(detunings=detunings, transfer=transfer, tau=tau,
                             quadrature_order=order, quadrature_change=change)


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
        if not 0.0 < self.tau < math.inf:
            raise InvalidInputError(
                f"probe time must be positive and finite, not {self.tau!r}")

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
    quadrature_order: int
    quadrature_change: float   # max |p(2n) - p(n)| where the results were taken
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
                "nfev", "status", "correlation", "quadrature_order",
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
    residuals from a separable seed scan at order 40: the omega_q grid at
    the middle sigma_B, then the sigma_B grid at the best omega_q.  At the
    optimum the quadrature order is worked out as for noise_averaged_signal;
    when it is higher than the fit's, the fit is refined at it.  Errors are
    the square roots of the diagonal of (J^T J)^-1, multiplied by
    sqrt(chi2_nu) when chi2_nu exceeds 1.

    When the sigma_B bound is active, or sigma_B is smaller than its own
    error, sigma_b_at_bound is set, sigma_b_err is the one-sided upper limit
    where chi^2 along sigma_B (omega_q fixed) has risen by 1 (by chi2_nu
    when that exceeds 1), and the omega_q error is taken with sigma_B held
    fixed.  Raises FitError when a refinement reaches config.max_nfev or the
    covariance is degenerate, and QuadratureConvergenceError past order 640.
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
    from scipy.optimize import least_squares  # scipy is imported on first use

    fractions = counts / shots_arr
    ndof = len(detunings) - 2

    omega_0 = config.rabi_frequency()
    nfev = 0

    # x = (omega_q in rad/s, sigma_B in nT): least_squares' finite-difference
    # step is relative to max(1, |x|), which sigma_B in tesla would swamp
    def model(x, order: int) -> np.ndarray:
        nonlocal nfev
        nfev += 1
        sys = RwaSystem(x[0], omega_0, config.detuning_rf, 0.0)
        noise = NoiseModel(
            sigma_b=x[1] * 1e-9, g_d=config.g_d, g_s=config.g_s,
            include_laser_sensitivity=config.include_laser_sensitivity,
        )
        return _averaged_transfer(sys, noise, detunings, config.tau, order)

    def residuals(x, order: int) -> np.ndarray:
        p = model(x, order)
        return (fractions - p) / np.sqrt(_binomial_variance(p, shots_arr))

    def chi2(x, order: int) -> float:
        return float(np.sum(residuals(x, order) ** 2))

    # the seed scan keeps the optimiser away from wrong peak assignments
    span = float(detunings.max() - detunings.min())
    grid_w = np.linspace(0.2 * span, 1.2 * span, 13)
    order = _FIRST_ORDER
    s_mid = _SEED_SIGMA_B_NT[len(_SEED_SIGMA_B_NT) // 2]
    w_seed = min(grid_w, key=lambda w: chi2((w, s_mid), order))
    s_seed = min(_SEED_SIGMA_B_NT, key=lambda s: chi2((w_seed, s), order))
    x = np.array([w_seed, s_seed])

    while True:
        fit = least_squares(
            residuals, x, args=(order,), method="trf",
            bounds=([0.0, 0.0], [np.inf, np.inf]), x_scale="jac",
            max_nfev=config.max_nfev,
        )
        if fit.status == 0:
            raise FitError(f"no convergence within {config.max_nfev} "
                           f"evaluations at quadrature order {order}")
        x = fit.x
        chi2_min = 2.0 * fit.cost
        scale = math.sqrt(max(chi2_min / ndof, 1.0))
        omega_q_err, sigma_b_err, correlation, at_bound = _fit_errors(
            fit.jac, x[1], fit.active_mask[1] != 0, scale)
        checked = [x]
        if at_bound:
            sigma_b_err = _upper_limit(lambda s: chi2((x[0], s), order),
                                       x[1], chi2_min + scale ** 2)
            checked.append((x[0], sigma_b_err))
        needed, _, change = _converged_order(
            lambda n: np.concatenate([model(p, n) for p in checked]), order)
        if needed == order:
            break
        order = needed

    return FitResult(
        omega_q=float(x[0]), omega_q_err=float(omega_q_err),
        sigma_b=float(x[1]) * 1e-9, sigma_b_err=float(sigma_b_err) * 1e-9,
        chi2_reduced=chi2_min / ndof, n_points=len(detunings),
        shots=int(round(float(np.max(shots_arr)))),
        nfev=nfev, status=int(fit.status), correlation=float(correlation),
        quadrature_order=order, quadrature_change=change,
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
