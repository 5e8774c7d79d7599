"""Quasi-static noise averaging and lineshape fitting.

Magnetic field noise is modelled as Gaussian across experiments and constant
within one experiment.  A field excursion b shifts both rotating-frame
detunings: Delta -> Delta - k_D*b with k_D = 2*g_D*mu_B/hbar, and
delta -> delta - k_d*b with k_d = (g_D - g_S)*mu_B/(2*hbar).  The averaged
signal is a trapezoid sum over x = b/sigma_B in [-6, 6] with weights
h*phi(x), exponentially convergent once h resolves the transfer's features,
pi/(k_D*sigma_B*tau) wide (Trefethen & Weideman, SIAM Rev. 56, 385 (2014)).
Since 0 <= p <= 1, the nodes left out beyond |x| = 6 could move the average
by at most their Gaussian mass 2*Phi(-6) = 2.0e-9, far below the 1e-6
check; the sigma_B column's weights x*h*phi(x) lose 2*phi(6) = 1.2e-8 there.
h is worked out, never set: from the coarsest 0.5/2**k that resolves them
(25 nodes at h = 0.5), it halves until two sums agree to 1e-6 at every
point, up to 3073 nodes (h = 1/256).  At sigma_B = 0 every node is the same,
and the rule is the single node x = 0 with weight 1: the noiseless spectrum.
k_D and k_d are the constants trap.SENSITIVITY_RF and SENSITIVITY_LASER,
set by the Ba+ g-factors trap.G_D and trap.G_S.

fit_spectrum recovers (omega_q, sigma_B) from measured transfer fractions
with a projected Levenberg-Marquardt solver in numpy (the module needs no
scipy) on the binomial-weighted residuals of _Objective, which also holds
the fit's grouping by |delta|, its memory of passes and its seed.  The
Jacobian is exact: the transfer's derivatives come from the eigh that gives
the transfer (dynamics.transfer_probabilities), and the average's sigma_B
derivative is a second weighted sum over the same nodes.
The noise model and the moment extraction need no numpy and live in trap;
they are importable from here too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dynamics import (RwaSystem, SpectrumScan, check_detuning_grid,
                       check_probe_time, transfer_probabilities)
from .errors import FitError, InvalidInputError, QuadratureConvergenceError
from .trap import SENSITIVITY_LASER, SENSITIVITY_RF, TWO_PI, NoiseModel
from .trap import ThetaEstimate, combine_runs, extract_theta  # noqa: F401

_HALF_WIDTH = 6.0              # nodes on [-6, 6]; the tails hold 2*Phi(-6) = 2.0e-9
_FIRST_NODES = 25              # the coarsest rule, step 0.5
_MAX_NODES = 3073              # the finest, step 1/256
_QUADRATURE_TOL = 1e-6          # largest change of the average when h halves


def _uniform_rule(n: int, new_only: bool) -> tuple[np.ndarray, np.ndarray]:
    """Nodes x and weights h*phi(x) of the n-node rule, computed per call;
    with new_only, just the nodes it adds to the (n + 1)/2-node rule.
    The 1-node rule is x = 0 with weight 1."""
    if n == 1:
        x, w = np.zeros(1), np.ones(1)
    else:
        x = np.linspace(-_HALF_WIDTH, _HALF_WIDTH, n)
        if new_only:
            x = x[1::2]
        w = 2.0 * _HALF_WIDTH / (n - 1) * np.exp(-0.5 * x * x) / math.sqrt(TWO_PI)
    return x, w


def _start_order(sigma_b: float, tau: float) -> int:
    """Nodes of the coarsest rule with h <= min(0.5, pi/(k_D*sigma_B*tau)),
    sigma_B = sigma_b in tesla: 1 when sigma_B = 0, else from 25 nodes (h =
    0.5) on x in [-6, 6]; raises QuadratureConvergenceError when its check
    would pass 3073 nodes."""
    check_probe_time(tau)
    spread = abs(SENSITIVITY_RF) * sigma_b * tau
    if spread == 0.0:
        return 1
    n = _FIRST_NODES
    while 2.0 * _HALF_WIDTH / (n - 1) * spread > math.pi:
        n = 2 * n - 1
        if 2 * n - 1 > _MAX_NODES:
            raise QuadratureConvergenceError(
                f"sigma_B*tau = {sigma_b * tau:.3g} T*s needs more than "
                f"{_MAX_NODES} nodes")
    return n


def _averaged_transfer(omega_q, omega_0: float, detuning_rf: float, sigma_b: float,
                       detunings: np.ndarray, tau: float, n: int,
                       new_only: bool = False, derivatives: bool = False):
    """The average of the transfer at each laser detuning over field noise
    of rms sigma_b (tesla) on the n-node rule; with new_only, the share of
    the nodes it adds.  For a vector of omega_q, one row per value.  Every
    pass of the model, the noiseless one (sigma_b = 0, n = 1) included, is
    one transfer_probabilities call here, with one laser detuning per pair.
    With derivatives, also the average's d/d omega_q and d/d sigma_B (per
    tesla) as two rows: a node at b = sigma_B*x moves with sigma_B as
    x*(-k_D d/dDelta - k_d d/ddelta)."""
    x, w = _uniform_rule(n, new_only)
    b = sigma_b * x                              # field samples, tesla
    omega_q = np.asarray(omega_q, dtype=float)[..., None, None]
    d_rf = detuning_rf - SENSITIVITY_RF * b
    d_l = np.broadcast_to(detunings[:, None] - SENSITIVITY_LASER * b[None, :],
                          omega_q.shape[:-2] + (len(detunings), len(b)))
    if not derivatives:
        return transfer_probabilities(omega_q, omega_0, d_rf, d_l, tau) @ w
    p, (dp_wq, dp_rf, dp_l) = transfer_probabilities(
        omega_q, omega_0, d_rf, d_l, tau, derivatives=True)
    dp_sigma = -(SENSITIVITY_RF * dp_rf + SENSITIVITY_LASER * dp_l)
    return p @ w, np.stack([dp_wq @ w, dp_sigma @ (w * x)])


def _converged_order(average, n: int) -> tuple[int, np.ndarray, float]:
    """(n, average(2n - 1), max |average(2n - 1) - average(n)|) for the first
    n from the given one where the two agree to 1e-6 at every point, raising
    past 3073 nodes.  average(n, new_only) is as _averaged_transfer, so each
    halving of h evaluates only the new nodes; average(n, False), the first
    call, may return a pass already made (_Objective.p).  The 1-node rule
    is exact (every node is the same at sigma_B = 0) and returns unchecked."""
    coarse = average(n, False)
    if n == 1:
        return 1, coarse, 0.0
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


def noise_averaged_signal(sys: RwaSystem, noise: NoiseModel,
                          detunings: np.ndarray,
                          tau: float) -> SpectrumScan:
    """Noise-averaged transfer spectrum on 2n - 1 nodes, with n and the
    change, for the first n from the coarsest rule that resolves sigma_B*tau
    where the averages on n and 2n - 1 nodes agree to 1e-6 at every point
    (n = 1 at sigma_B = 0), taken once per distinct |delta| at Delta = 0,
    where it is even in delta (_Objective).  The nodes lie on x in [-6, 6],
    from 25 (h = 0.5) to 3073 (h = 1/256); those beyond |x| = 6 would move
    the average by at most 2*Phi(-6) = 2.0e-9.  Raises InvalidInputError,
    before any transfer is computed, for a nonzero sys.detuning_laser (the
    grid is the laser detuning) or a grid that is not 1-D, non-empty, finite
    and strictly increasing, and QuadratureConvergenceError past 3073 nodes
    (sigma_B*tau near 1.9 nT*s)."""
    if sys.detuning_laser != 0.0:
        raise InvalidInputError("detuning_laser must be 0: the grid is the laser detuning")
    detunings = check_detuning_grid(detunings)
    points, where = (_distinct_magnitudes(detunings) if sys.detuning_rf == 0.0
                     else (detunings, slice(None)))
    n, transfer, change = _converged_order(
        lambda m, new: _averaged_transfer(sys.omega_q, sys.omega_0, sys.detuning_rf,
                                          noise.sigma_b, points, tau, m, new),
        _start_order(noise.sigma_b, tau))
    return SpectrumScan(detunings=detunings, transfer=transfer[where],
                        quadrature_nodes=n, quadrature_change=change)


def simulate_counts(sys: RwaSystem, noise: NoiseModel, detunings: np.ndarray,
                    tau: float, shots: int,
                    rng: np.random.Generator) -> np.ndarray:
    """Binomial counts of `shots` trials per point, drawn from
    noise_averaged_signal on the grid.  Raises InvalidInputError before any
    transfer is computed unless shots pass _check_shots and sys and the grid
    pass noise_averaged_signal's."""
    _check_shots(shots, np.shape(detunings))
    transfer = noise_averaged_signal(sys, noise, detunings, tau).transfer
    return rng.binomial(shots, np.clip(transfer, 0.0, 1.0))


def _check_shots(shots, shape: tuple) -> np.ndarray:
    """shots, one number or one per point, as a float array of the points'
    shape; raises InvalidInputError unless each is a finite whole number of
    at least 1 and there is one, or one per point."""
    arr = np.asarray(shots)
    bad = (arr if arr.dtype.kind not in "iuf"
           else arr[~(np.isfinite(arr) & (arr >= 1) & (arr == np.floor(arr)))])
    if bad.size:
        raise InvalidInputError("shots must be whole numbers of at least 1, "
                                f"not {bad.ravel().tolist()[0]!r}")
    if arr.ndim and arr.shape != shape:
        raise InvalidInputError(f"need one shots value per point, not {arr.shape}")
    return np.broadcast_to(arr.astype(float), shape)


@dataclass(frozen=True)
class FitConfig:
    """Fixed experimental parameters for fit_spectrum.  The probe is a pi
    pulse on the rf resonance: omega_0 = pi/tau and Delta = 0."""

    tau: float                      # probe time, s

    def __post_init__(self):
        check_probe_time(self.tau)


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
    nfev: int             # transfer_probabilities calls, seed included; a
                          # pass with derivatives counts once
    status: int           # why _least_squares stopped, MINPACK's 1..4:
                          # 1 gtol, 2 ftol, 3 xtol, 4 ftol and xtol
    correlation: float    # omega_q-sigma_B; 0 when sigma_B is held fixed
    quadrature_nodes: int
    quadrature_change: float   # max |p(2n - 1) - p(n)| where the results were taken
    sigma_b_at_bound: bool     # J^T J singular, errors not finite, or
                               # sigma_B <= its error (_fit_errors)

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


def _distinct_magnitudes(detunings: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(magnitudes, where): the sorted distinct |delta| and each point's
    index into them.  Magnitudes within 8 ulps of the largest |delta| count
    as one, so magnitudes[where] is |detunings| to within that: np.linspace
    grids are mirror images only to within 3 ulps of their largest |delta|."""
    size = np.abs(detunings)
    order = np.argsort(size)
    ordered = size[order]
    starts = np.diff(ordered, prepend=-np.inf) > 8 * np.spacing(ordered[-1])
    where = np.empty(len(size), dtype=np.intp)
    where[order] = np.cumsum(starts) - 1
    return ordered[starts], where


class _Objective:
    """What fit_spectrum minimises: the residuals (f - p)/sqrt(var) of the
    measured fractions f against the model p, weighted by the binomial
    variance var = max(p(1 - p), 1/(4N))/N (the floor avoids zero weights),
    at x = (omega_q in rad/s, sigma_B in nT) on the n-node rule; nT are the
    units of the seed values and of the upper limit's 1 nT bracket.

    The model runs at Delta = 0, where H(-Delta, -delta) = -G*H(Delta,
    delta)*G (G = diag(-1, 1, -1, -1)) makes the transfer p(0, delta) even
    in delta; every rule's nodes are symmetric in x, so the average and both
    its derivatives are even in delta too.  So each pass evaluates it once
    per distinct |delta| (_distinct_magnitudes, which merges magnitudes
    within 8 ulps of the largest), and each point takes the value at its own
    |delta|: a scan symmetric about the carrier costs half the pairs.  Each
    full pass is remembered by x and the rule, and a pass with derivatives
    gives the same transfer bit for bit as one without: the rule check's
    first average, at the optimum and at the upper limit, is the solver's or
    _upper_limit's last pass and costs no eigh.  nfev counts the
    transfer_probabilities calls made, the seed's included.
    """

    def __init__(self, detunings: np.ndarray, fractions: np.ndarray,
                 shots: np.ndarray, tau: float):
        self.magnitudes, self.where = _distinct_magnitudes(detunings)
        self.span = float(detunings.max() - detunings.min())
        self.fractions, self.shots, self.tau = fractions, shots, tau
        self.omega_0 = math.pi / tau
        self.floor = 1.0 / (4.0 * shots)
        self.passes = {}    # (omega_q, sigma_B, n) -> [p] or [p, dp] of a full pass
        self.nfev = 0

    def _at_points(self, *per_magnitude: np.ndarray) -> list:
        """The values of one transfer_probabilities call, per distinct
        |delta| along their last axis, taken at each point."""
        self.nfev += 1
        return [values[..., self.where] for values in per_magnitude]

    def seed(self) -> np.ndarray:
        """x away from wrong peak assignments: the best of 61 omega_q over
        0.2..1.2 times the scan's span for the noiseless model (the 1-node
        rule at sigma_B = 0), in one call, then the best sigma_B of 5, 15,
        30 and 60 nT at that omega_q on the 25-node rule."""
        omegas = np.linspace(0.2 * self.span, 1.2 * self.span, 61)
        grid, = self._at_points(_averaged_transfer(
            omegas, self.omega_0, 0.0, 0.0, self.magnitudes, self.tau, 1))
        omega_q = float(omegas[np.argmin(self.chi2(grid))])
        sigma_b = min((5.0, 15.0, 30.0, 60.0), key=lambda s: self.chi2(
            self.p((omega_q, s), _FIRST_NODES)))
        return np.array([omega_q, sigma_b])

    def p(self, x, n: int, new_only: bool = False, derivatives: bool = False):
        """The model at each point, as _averaged_transfer; with derivatives,
        [p, dp] with d/d omega_q and d/d sigma_B (per tesla) as dp's rows."""
        key = (float(x[0]), float(x[1]), n)
        got = self.passes.get(key, [])
        if new_only or len(got) < 1 + derivatives:
            got = _averaged_transfer(x[0], self.omega_0, 0.0, x[1] * 1e-9,
                                     self.magnitudes, self.tau, n, new_only,
                                     derivatives)
            got = self._at_points(*got) if derivatives else self._at_points(got)
            if not new_only:
                self.passes[key] = got
        return got if derivatives else got[0]

    def _weighted(self, p: np.ndarray) -> tuple:
        """(residuals, var, sqrt(var)) of model values p."""
        var = np.maximum(p * (1.0 - p), self.floor) / self.shots
        sd = np.sqrt(var)
        return (self.fractions - p) / sd, var, sd

    def chi2(self, p: np.ndarray):
        """chi^2 of model values p at the points, summed over the last axis."""
        return np.sum(self._weighted(p)[0] ** 2, axis=-1)

    def residuals(self, x, n: int) -> tuple[np.ndarray, np.ndarray]:
        """(r, J) at x on the n-node rule, from one pass with derivatives."""
        p, dp = self.p(x, n, derivatives=True)
        r, var, sd = self._weighted(p)
        # d var/dp is (1 - 2p)/N above the floor and 0 on it
        slope = np.where(p * (1.0 - p) > self.floor, (1.0 - 2.0 * p) / self.shots, 0.0)
        dr_dp = -(1.0 + 0.5 * (self.fractions - p) * slope / var) / sd
        return r, np.stack(dr_dp * dp * [[1.0], [1e-9]], axis=-1)


def fit_spectrum(detunings: np.ndarray, counts: np.ndarray, shots,
                 config: FitConfig) -> FitResult:
    """Bounded least-squares fit of (omega_q, sigma_B) to measured transfer counts.

    A projected Levenberg-Marquardt solver (_least_squares, omega_q >= 0,
    sigma_B >= 0, scaled by the Jacobian's column norms) minimises
    _Objective's residuals, with their exact Jacobian, from _Objective.seed.
    The fit runs on the coarsest rule that resolves the seed's sigma_B*tau;
    at the optimum the rule is checked as in noise_averaged_signal, and the
    fit is refined once on a finer rule when the check needs one.  Errors
    are the square roots of the diagonal of (J^T J)^-1, multiplied by
    sqrt(chi2_nu) when chi2_nu exceeds 1.

    When J^T J is singular, the errors are not finite, or sigma_B is no larger
    than its own error (_fit_errors' one rule), sigma_b_at_bound is set,
    sigma_b_err is the one-sided upper limit where chi^2 along sigma_B
    (omega_q fixed) has risen by 1 (by chi2_nu when that exceeds 1), and the
    omega_q error is taken with sigma_B held fixed.  Raises InvalidInputError
    for detunings and counts not 1-D of one shape, for fewer than 8 points or
    3 distinct |delta| (the model is even in delta: two parameters need more),
    FitError when a refinement reaches _MAX_NFEV or the covariance is
    degenerate, and QuadratureConvergenceError past 3073 nodes.
    """
    detunings = np.asarray(detunings, dtype=float)
    counts = np.asarray(counts, dtype=float)
    if detunings.ndim != 1 or detunings.shape != counts.shape:
        raise InvalidInputError("detunings and counts must be 1-D and of one shape, "
                                f"not {detunings.shape} and {counts.shape}")
    shots_arr = _check_shots(shots, counts.shape)
    if len(detunings) < 8:
        raise InvalidInputError("need at least 8 data points")
    if not (np.all(np.isfinite(detunings)) and np.all(np.isfinite(counts))):
        raise InvalidInputError("detunings and counts must be finite")
    if np.any(counts < 0) or np.any(counts > shots_arr):
        raise InvalidInputError("counts must lie between 0 and shots")
    objective = _Objective(detunings, counts / shots_arr, shots_arr, config.tau)
    if (distinct := len(objective.magnitudes)) < 3:
        raise InvalidInputError(
            f"need at least 3 distinct |detuning| values, not {distinct}: "
            "the model is even in the detuning and has two parameters")
    ndof = len(detunings) - 2
    x = objective.seed()
    n = _start_order(x[1] * 1e-9, config.tau)

    while True:
        fit = _least_squares(lambda x: objective.residuals(x, n), x, _MAX_NFEV)
        if fit.status == 0:
            raise FitError(f"no convergence within {_MAX_NFEV} "
                           f"evaluations on {n} quadrature nodes")
        x = fit.x
        chi2_min = 2.0 * fit.cost
        scale = math.sqrt(max(chi2_min / ndof, 1.0))
        omega_q_err, sigma_b_err, correlation, at_bound = _fit_errors(
            fit.jac, x[1], scale)
        checked = [x]
        if at_bound:
            sigma_b_err = _upper_limit(
                lambda s: objective.chi2(objective.p((x[0], s), n)) - chi2_min,
                x[1], scale ** 2)
            checked.append((x[0], sigma_b_err))
        needed, _, change = _converged_order(lambda m, new: np.concatenate(
            [objective.p(at, m, new) for at in checked]), n)
        if needed == n:
            break
        n = needed

    return FitResult(
        omega_q=float(x[0]), omega_q_err=float(omega_q_err),
        sigma_b=float(x[1]) * 1e-9, sigma_b_err=float(sigma_b_err) * 1e-9,
        chi2_reduced=chi2_min / ndof, n_points=len(detunings),
        shots=int(np.max(shots_arr)),
        nfev=objective.nfev, status=int(fit.status), correlation=float(correlation),
        quadrature_nodes=n, quadrature_change=change,
        sigma_b_at_bound=bool(at_bound),
    )


_TOL = 1e-8       # MINPACK's gtol, ftol and xtol
_MAX_NFEV = 200   # residual evaluations per refinement
_BACK = 0.005     # a step that would cross 0 ends at this fraction of x


@dataclass(frozen=True)
class _Solution:
    """Where _least_squares stopped."""

    x: np.ndarray
    cost: float           # |r|^2 / 2
    jac: np.ndarray
    status: int           # 0 at max_nfev; 1 gtol, 2 ftol, 3 xtol, 4 ftol and xtol


def _least_squares(fun, x, max_nfev: int) -> _Solution:
    """Minimise |r(x)|^2/2 over x >= 0, where fun(x) = (r, J): projected
    Levenberg-Marquardt (More, LNM 630 (1978)) on two parameters.

    The damping mu multiplies diag(D^2), D the largest Jacobian column norms
    seen so far, and follows the gain ratio rho as in Madsen, Nielsen &
    Tingleff (2004).  A parameter whose step would cross its bound 0 moves
    to _BACK times its value instead, and the others minimise the damped
    model given that move, so iterates that start inside stay inside, as
    in scipy's trf.  On the bound the sigma_B column of J vanishes (the
    average is even in sigma_B): an iterate there could not tell a bound
    optimum from a saddle and would stay.  The stopping tests are MINPACK's,
    with gtol = ftol = xtol = _TOL; every call of fun counts towards
    max_nfev.
    """
    x = np.asarray(x, dtype=float)
    r, jac = fun(x)
    nfev, cost = 1, 0.5 * float(r @ r)
    scale, mu, nu = np.zeros(len(x)), 1e-3, 2.0

    while True:
        columns = np.linalg.norm(jac, axis=0)
        scale = np.maximum(scale, columns)
        g, a = jac.T @ r, jac.T @ jac
        # gtol: the cosine between r and each column of J
        norms = columns * math.sqrt(2.0 * cost)
        if np.all(np.abs(g) <= _TOL * norms, where=norms > 0):
            return _Solution(x, cost, jac, 1)
        if nfev >= max_nfev:
            return _Solution(x, cost, jac, 0)
        d = np.where(scale > 0.0, scale, 1.0)
        h = a + mu * np.diag(d ** 2)
        step = np.linalg.solve(h, -g)
        held = x + step < _BACK * x
        if held.any():
            step[held] = (_BACK - 1.0) * x[held]
            f = ~held
            step[f] = np.linalg.solve(h[np.ix_(f, f)],
                                      -g[f] - h[np.ix_(f, held)] @ step[held])
        x_new = np.maximum(x + step, _BACK * x)
        step = x_new - x
        predicted = -(g @ step) - 0.5 * (step @ a @ step)
        r_new, jac_new = fun(x_new)
        nfev += 1
        cost_new = 0.5 * float(r_new @ r_new)
        rho = (cost - cost_new) / predicted if predicted > 0.0 else -1.0
        ftol = (abs(cost - cost_new) <= _TOL * cost
                and predicted <= _TOL * cost and rho <= 2.0)
        xtol = np.linalg.norm(d * step) <= _TOL * (_TOL + np.linalg.norm(d * x))
        if rho > 0.0:
            x, r, jac, cost = x_new, r_new, jac_new, cost_new
            mu *= max(1.0 / 3.0, 1.0 - (2.0 * rho - 1.0) ** 3)
            nu = 2.0
        else:
            mu, nu = mu * nu, 2.0 * nu
        if ftol or xtol:
            return _Solution(x, cost, jac, 4 if ftol and xtol else 2 if ftol else 3)


def _fit_errors(jac: np.ndarray, sigma_b: float,
                scale: float) -> tuple[float, float, float, bool]:
    """(omega_q error, sigma_B error, correlation, at bound) from J^T J.

    The one rule for sigma_B at its bound: J^T J is singular (as on the
    bound itself, where the sigma_B column of J vanishes: the average is
    even in sigma_B), the errors are not finite, or sigma_B is no larger
    than its own error.  There the sigma_B error is left as NaN for the
    caller's upper limit, and the omega_q error is taken with sigma_B
    held fixed."""
    jtj = jac.T @ jac
    if jtj[0, 0] <= 0:
        raise FitError("degenerate covariance at the optimum")
    if np.linalg.det(jtj) > 0:
        cov = np.linalg.inv(jtj)
        errs = np.sqrt(np.diag(cov)) * scale
        if np.all(np.isfinite(errs)) and errs[1] < sigma_b:
            return (errs[0], errs[1],
                    cov[0, 1] / math.sqrt(cov[0, 0] * cov[1, 1]), False)
    return scale / math.sqrt(jtj[0, 0]), math.nan, 0.0, True


def _upper_limit(rise_along, start: float, rise: float) -> float:
    """sigma_B (nT) above `start` where rise_along, the rise of chi^2 from
    its value at `start`, reaches `rise`: a doubling bracket from start +
    1 nT, then Illinois regula falsi until the bracket is 1e-4 nT wide."""
    lo, hi, f_lo = start, start + 1.0, -rise
    while (f_hi := rise_along(hi) - rise) < 0.0:
        lo, hi, f_lo = hi, start + 2.0 * (hi - start), f_hi
        if hi - start > 1e6:
            raise FitError("chi^2 does not rise along sigma_B above the bound")
    kept = None   # the end the last step left in place
    while hi - lo > 1e-4:
        s = hi - f_hi * (hi - lo) / (f_hi - f_lo)
        f = rise_along(s) - rise
        if f == 0.0:
            return s
        if f < 0.0:
            lo, f_lo = s, f
            if kept == "hi":      # kept twice in a row: halve its value
                f_hi *= 0.5
            kept = "hi"
        else:
            hi, f_hi = s, f
            if kept == "lo":
                f_lo *= 0.5
            kept = "lo"
    return s
