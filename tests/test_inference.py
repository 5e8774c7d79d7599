import math

import numpy as np
import pytest

from trapquad.dynamics import (
    RwaSystem,
    SpectrumScan,
    default_detuning_grid,
    find_spectrum_peaks,
    scan_spectrum,
    transfer_probabilities,
)
from trapquad.errors import (
    FitError,
    InvalidInputError,
    QuadratureConvergenceError,
)
from trapquad.inference import (
    FitConfig,
    NoiseModel,
    ThetaEstimate,
    _averaged_transfer,
    _converged_order,
    _start_order,
    _uniform_rule,
    combine_runs,
    extract_theta,
    fit_spectrum,
    noise_averaged_signal,
    simulate_counts,
)
from trapquad.trap import CODATA2018, TrapConfig

TWO_PI = 2 * math.pi
WQ = TWO_PI * 1.7e3
TAU = 1.2e-3
# pi-pulse at Omega0 = 0.01 omega_q (spectrum --Omega0-ratio 0.01): at 400 nT
# the rule that resolves sigma_B*tau needs more than 4097 nodes
TAU_LONG = math.pi / (0.01 * WQ)


def reference_system(omega_q: float = WQ, tau: float = TAU) -> RwaSystem:
    return RwaSystem(omega_q, math.pi / tau, 0.0, 0.0)


class TestNoiseModel:
    def test_sensitivities(self):
        noise = NoiseModel(sigma_b=18e-9, g_d=1.2, g_s=2.0025)
        mu_over_hbar = CODATA2018.bohr_magneton / CODATA2018.hbar
        assert noise.sensitivity_rf == pytest.approx(2.4 * mu_over_hbar)
        assert noise.sensitivity_laser == pytest.approx(
            (1.2 - 2.0025) / 2 * mu_over_hbar
        )

    def test_laser_sensitivity_switch(self):
        noise = NoiseModel(sigma_b=18e-9, include_laser_sensitivity=False)
        assert noise.sensitivity_laser == 0.0

    def test_rejects_negative_sigma(self):
        with pytest.raises(InvalidInputError):
            NoiseModel(sigma_b=-1e-9)

    @pytest.mark.parametrize("g", [{"g_d": math.nan}, {"g_s": math.inf}])
    def test_rejects_non_finite_g_factors(self, g):
        with pytest.raises(InvalidInputError, match="g-factors"):
            NoiseModel(sigma_b=18e-9, **g)


def dense_noise_average(sys: RwaSystem, noise: NoiseModel,
                        detunings: np.ndarray, tau: float) -> np.ndarray:
    """Trapezoid sum over b in +-8 sigma_B on 4001 points, normalised by the
    weight sum: its step 0.004 sigma_B is no dyadic fraction of the rule's
    0.5 sigma_B, so the two share only the nodes at 0 and +-8 sigma_B."""
    b = np.linspace(-8.0, 8.0, 4001) * noise.sigma_b
    w = np.exp(-0.5 * (b / noise.sigma_b) ** 2)
    w /= w.sum()
    d_rf = sys.detuning_rf - noise.sensitivity_rf * b
    d_l = detunings[:, None] - noise.sensitivity_laser * b[None, :]
    probs = transfer_probabilities(sys.omega_q, sys.omega_0,
                                   np.broadcast_to(d_rf, d_l.shape), d_l, tau)
    return probs @ w


class TestNoiseAveragedSignal:
    def test_zero_sigma_reduces_to_bare_scan(self):
        sys = reference_system()
        grid = default_detuning_grid(WQ, 101)
        bare = scan_spectrum(sys, grid, TAU)
        avg = noise_averaged_signal(sys, NoiseModel(sigma_b=0.0), grid, TAU)
        assert np.allclose(avg.transfer, bare.transfer, atol=1e-14)

    def test_golden_curve_at_paper_parameters(self):
        # frozen from a quadrature run at order 200; order-independent to 1e-11
        golden = [
            (-1.500, 0.011554917286), (-1.250, 0.056147335445),
            (-1.000, 0.075010724285), (-0.750, 0.400318847384),
            (-0.500, 0.548372139898), (-0.250, 0.298182369808),
            (+0.000, 0.407048329564), (+0.250, 0.298182369808),
            (+0.500, 0.548372139898), (+0.750, 0.400318847384),
            (+1.000, 0.075010724285), (+1.250, 0.056147335445),
            (+1.500, 0.011554917286),
        ]
        deltas = np.array([d for d, _ in golden]) * WQ
        want = np.array([p for _, p in golden])
        scan = noise_averaged_signal(
            reference_system(), NoiseModel(sigma_b=18.2e-9), deltas, TAU
        )
        assert np.allclose(scan.transfer, want, atol=1e-9)

    def test_smoothing_preserves_two_dominant_lobes(self):
        grid = default_detuning_grid(WQ)
        scan = noise_averaged_signal(
            reference_system(), NoiseModel(sigma_b=18.2e-9), grid, TAU
        )
        peaks = find_spectrum_peaks(scan)
        lobes = [p for p in peaks if abs(p) > 0.2 * WQ]
        assert len(lobes) == 2
        assert scan.transfer.max() < 0.65  # splitting partly washed out

    def test_large_sigma_collapses_splitting(self):
        grid = default_detuning_grid(WQ)
        strong = noise_averaged_signal(
            reference_system(), NoiseModel(sigma_b=120e-9), grid, TAU
        )
        assert len(find_spectrum_peaks(strong)) == 1

    def test_convergence_check_raises_when_underresolved(self):
        # 400 nT at a 29 ms probe: the step that resolves the features,
        # pi/(k_D sigma_B tau) = 1.3e-3, needs 16385 nodes
        grid = default_detuning_grid(WQ, 51)
        with pytest.raises(QuadratureConvergenceError, match="4097 nodes"):
            noise_averaged_signal(reference_system(tau=TAU_LONG),
                                  NoiseModel(sigma_b=400e-9), grid, TAU_LONG)

    def test_cap_is_a_failure_when_the_average_keeps_moving(self):
        calls = []

        def average(n, new_only):
            calls.append((n, new_only))
            return np.full(3, 1.0 if new_only else 0.0)   # 0, 1, 1.5, 1.75

        with pytest.raises(QuadratureConvergenceError,
                           match="2.50e-01 .* from 2049 to 4097 nodes"):
            _converged_order(average, 513)
        assert calls == [(513, False), (1025, True), (2049, True), (4097, True)]

    def test_order_is_worked_out_at_100nt(self):
        # Gauss-Hermite needed order 640 here; the uniform rule starts at
        # the step that resolves sigma_B*tau and holds on the first halving
        grid = default_detuning_grid(WQ, 51)
        noise = NoiseModel(sigma_b=100e-9)
        scan = noise_averaged_signal(reference_system(), noise, grid, TAU)
        assert scan.quadrature_nodes > 33
        assert scan.quadrature_change <= 1e-6
        want = dense_noise_average(reference_system(), noise, grid, TAU)
        assert np.max(np.abs(scan.transfer - want)) < 1e-9

    @pytest.mark.parametrize("sigma_b, tau", [
        (150e-9, TAU), (200e-9, TAU), (40e-9, 5.9e-3), (100e-9, 5.9e-3),
    ])
    def test_converges_where_gauss_hermite_failed(self, sigma_b, tau):
        # each of these raised at the old order-640 cap
        grid = default_detuning_grid(WQ, 51)
        sys = reference_system(tau=tau)
        noise = NoiseModel(sigma_b=sigma_b)
        scan = noise_averaged_signal(sys, noise, grid, tau)
        assert scan.quadrature_nodes > 33
        assert scan.quadrature_change <= 1e-6
        want = dense_noise_average(sys, noise, grid, tau)
        assert np.max(np.abs(scan.transfer - want)) < 1e-9

    def test_refinement_passes_only_the_new_nodes(self, monkeypatch):
        points = []

        def counted(omega_q, omega_0, detuning_rf, detuning_laser, tau):
            points.append(np.size(detuning_laser))
            return transfer_probabilities(omega_q, omega_0, detuning_rf,
                                          detuning_laser, tau)

        monkeypatch.setattr("trapquad.inference.transfer_probabilities",
                            counted)
        grid = default_detuning_grid(WQ, 51)
        noise = NoiseModel(sigma_b=100e-9)
        scan = noise_averaged_signal(reference_system(), noise, grid, TAU)
        assert scan.quadrature_nodes == _start_order(noise, TAU) == 257
        # the start rule's 257 nodes, then the 256 the halving adds
        assert points == [51 * 257, 51 * 256]

    def test_simulated_counts_need_a_converged_average(self):
        # 400 nT at a 29 ms probe needs more than 4097 nodes; counts must
        # not be drawn from an unconverged average
        with pytest.raises(QuadratureConvergenceError):
            simulate_counts(reference_system(tau=TAU_LONG),
                            NoiseModel(sigma_b=400e-9), TestFitSpectrum.DELTAS,
                            TAU_LONG, 300, np.random.default_rng(0))

    @pytest.mark.parametrize("tau", [0.0, -1.2e-3, math.nan, math.inf])
    def test_probe_time_must_be_positive(self, tau):
        sys = reference_system()
        with pytest.raises(InvalidInputError, match="probe time"):
            transfer_probabilities(sys.omega_q, sys.omega_0, 0.0, 0.0, tau)
        with pytest.raises(InvalidInputError, match="probe time"):
            noise_averaged_signal(sys, NoiseModel(sigma_b=18e-9),
                                  np.linspace(-WQ, WQ, 11), tau)

    def test_uniform_rule_is_computed_once_and_read_only(self):
        nodes, weights = _uniform_rule(129, False)
        assert _uniform_rule(129, False)[0] is nodes
        assert nodes[0] == -8.0 and nodes[-1] == 8.0
        assert math.fsum(weights) == pytest.approx(1.0, abs=1e-14)
        new, new_weights = _uniform_rule(257, True)
        assert np.allclose(new, nodes[:-1] + 0.0625, rtol=0, atol=1e-15)
        assert math.fsum(weights) / 2 + math.fsum(new_weights) == pytest.approx(
            math.fsum(_uniform_rule(257, False)[1]), abs=1e-15)
        for array in (nodes, weights, new, new_weights):
            with pytest.raises(ValueError):
                array[0] = 0.0

    @pytest.mark.parametrize("tau, sigma_b, nodes", [
        (1.18e-3, 18e-9, 33), (5.9e-3, 18e-9, 129), (5.9e-3, 40e-9, 257),
        (5.9e-3, 100e-9, 1025), (1.18e-3, 150e-9, 257), (1.18e-3, 400e-9, 513),
    ])
    def test_start_rule_is_the_coarsest_that_resolves(self, tau, sigma_b,
                                                      nodes):
        noise = NoiseModel(sigma_b=sigma_b)
        assert _start_order(noise, tau) == nodes
        width = math.pi / (noise.sensitivity_rf * sigma_b * tau)
        step = 16.0 / (nodes - 1)
        assert step <= min(0.5, width) and (nodes == 33 or 2 * step > width)

    def test_order_doubling_stable_up_to_50nt(self):
        # up to 50 nT the start rule already holds to 1e-6 against the next
        grid = default_detuning_grid(WQ, 101)
        for sigma in (10e-9, 30e-9, 50e-9):
            noise = NoiseModel(sigma_b=sigma)
            n = _start_order(noise, TAU)
            a = _averaged_transfer(reference_system(), noise, grid, TAU, n)
            b = _averaged_transfer(reference_system(), noise, grid, TAU,
                                   2 * n - 1)
            assert np.max(np.abs(a - b)) < 1e-6


class TestFitSpectrum:
    DELTAS = np.linspace(-1.5, 1.5, 40) * WQ
    CONFIG = FitConfig(tau=TAU)

    def test_noiseless_recovery_to_1e6(self):
        exact = noise_averaged_signal(
            reference_system(), NoiseModel(sigma_b=18e-9), self.DELTAS, TAU
        ).transfer
        res = fit_spectrum(self.DELTAS, exact * 300, 300, self.CONFIG)
        assert abs(res.omega_q - WQ) / WQ < 1e-6
        assert abs(res.sigma_b - 18e-9) / 18e-9 < 1e-6

    def test_variance_scaling_doubles_errors(self):
        # quartering the shot count quadruples the binomial variance; with
        # exact model data the best fit is unchanged and errors double
        exact = noise_averaged_signal(
            reference_system(), NoiseModel(sigma_b=18e-9), self.DELTAS, TAU
        ).transfer
        res_full = fit_spectrum(self.DELTAS, exact * 400, 400, self.CONFIG)
        res_quarter = fit_spectrum(self.DELTAS, exact * 100, 100, self.CONFIG)
        assert res_quarter.omega_q == pytest.approx(res_full.omega_q, rel=1e-6)
        assert res_quarter.omega_q_err == pytest.approx(
            2 * res_full.omega_q_err, rel=1e-3
        )
        assert res_quarter.sigma_b_err == pytest.approx(
            2 * res_full.sigma_b_err, rel=1e-3
        )

    def test_round_trip_three_seeds(self):
        sys = reference_system(TWO_PI * 1.70e3)
        noise = NoiseModel(sigma_b=18e-9)
        for seed in (0, 1, 2):
            rng = np.random.default_rng(seed)
            counts = simulate_counts(sys, noise, self.DELTAS, TAU, 300, rng)
            res = fit_spectrum(self.DELTAS, counts, 300, self.CONFIG)
            assert abs(res.omega_q - sys.omega_q) <= 2 * res.omega_q_err
            assert abs(res.sigma_b - 18e-9) <= 2 * res.sigma_b_err
            assert 0.5 <= res.chi2_reduced <= 1.6

    def test_estimator_consistency_with_shots(self):
        # errors scale like 1/sqrt(N) and the estimate tracks the truth
        sys = reference_system(TWO_PI * 1.70e3)
        noise = NoiseModel(sigma_b=18e-9)
        errs = {}
        for shots in (100, 900):
            per_seed = []
            for seed in (3, 4):
                rng = np.random.default_rng(seed)
                counts = simulate_counts(sys, noise, self.DELTAS, TAU, shots, rng)
                res = fit_spectrum(self.DELTAS, counts, shots, self.CONFIG)
                assert abs(res.omega_q - sys.omega_q) <= 3 * res.omega_q_err
                per_seed.append(res.omega_q_err)
            errs[shots] = np.mean(per_seed)
        ratio = errs[100] / errs[900]  # expect 3 for 9x the shots
        assert 1.5 <= ratio <= 6.0

    def test_error_grows_with_noise(self):
        # reported omega_q error should not shrink as the field noise grows
        sys = reference_system(TWO_PI * 1.70e3)
        errs = []
        for sigma in (5e-9, 20e-9, 45e-9):
            per_seed = []
            for seed in (10, 11, 12):
                rng = np.random.default_rng(seed)
                counts = simulate_counts(
                    sys, NoiseModel(sigma_b=sigma), self.DELTAS, TAU, 300, rng
                )
                res = fit_spectrum(self.DELTAS, counts, 300, self.CONFIG)
                per_seed.append(res.omega_q_err)
            errs.append(np.mean(per_seed))
        assert errs[0] < errs[1] < errs[2]

    def test_sigma_b_at_bound_reports_upper_limit(self):
        # true sigma_B = 0: the fit sits on the sigma_B >= 0 bound, where a
        # covariance error is meaningless; the error is a one-sided limit
        sys = reference_system(TWO_PI * 1.70e3)
        rng = np.random.default_rng(2)
        counts = simulate_counts(sys, NoiseModel(sigma_b=0.0), self.DELTAS,
                                 TAU, 300, rng)
        res = fit_spectrum(self.DELTAS, counts, 300, self.CONFIG)
        assert res.sigma_b_at_bound
        assert res.correlation == 0.0
        assert res.sigma_b < res.sigma_b_err
        assert 0.1e-9 < res.sigma_b_err < 10e-9
        assert abs(res.omega_q - sys.omega_q) <= 2 * res.omega_q_err
        # chi^2 along sigma_B has risen by one at the limit (chi2_nu < 1 here)
        assert res.chi2_reduced < 1.0

        def chi2(sigma_b):
            p = noise_averaged_signal(reference_system(res.omega_q),
                                      NoiseModel(sigma_b=sigma_b),
                                      self.DELTAS, TAU).transfer
            f = counts / 300
            var = np.maximum(p * (1 - p), 1 / 1200) / 300
            return float(np.sum((f - p) ** 2 / var))

        rise = chi2(res.sigma_b_err) - chi2(res.sigma_b)
        assert rise == pytest.approx(1.0, abs=1e-3)

    def test_diagnostics_of_a_converged_fit(self):
        rng = np.random.default_rng(0)
        counts = simulate_counts(reference_system(), NoiseModel(sigma_b=18e-9),
                                 self.DELTAS, TAU, 300, rng)
        res = fit_spectrum(self.DELTAS, counts, 300, self.CONFIG)
        assert not res.sigma_b_at_bound
        assert res.nfev <= 60
        assert res.status in (1, 2, 3, 4)
        assert -1.0 < res.correlation < 1.0
        assert res.quadrature_nodes == 33
        assert 0.0 <= res.quadrature_change <= 1e-6
        assert res.to_dict()["diagnostics"]["nfev"] == res.nfev

    @staticmethod
    def dense_chi2_reduced(res, counts) -> float:
        p = dense_noise_average(reference_system(res.omega_q),
                                NoiseModel(sigma_b=res.sigma_b),
                                TestFitSpectrum.DELTAS, TAU)
        var = np.maximum(p * (1 - p), 1 / 1200) / 300
        return float(np.sum((counts / 300 - p) ** 2 / var)) / 38

    @staticmethod
    def least_squares_runs(monkeypatch) -> list:
        import scipy.optimize
        runs = []

        def counted(*args, **kwargs):
            runs.append(kwargs["args"])
            return least_squares(*args, **kwargs)

        least_squares = scipy.optimize.least_squares
        monkeypatch.setattr(scipy.optimize, "least_squares", counted)
        return runs

    def test_quadrature_order_escalates_at_50nt(self):
        # the coarsest rule misses the 50 nT average; the fit must run on a
        # finer one, so chi2_nu matches a recomputation on a dense grid
        sys = reference_system(TWO_PI * 1.70e3)
        rng = np.random.default_rng(50)
        counts = simulate_counts(sys, NoiseModel(sigma_b=50e-9), self.DELTAS,
                                 TAU, 300, rng)
        res = fit_spectrum(self.DELTAS, counts, 300, self.CONFIG)
        assert res.quadrature_nodes > 33
        assert res.quadrature_change <= 1e-6
        assert res.chi2_reduced == pytest.approx(
            self.dense_chi2_reduced(res, counts), rel=1e-6)

    def test_50nt_fit_runs_least_squares_once(self, monkeypatch):
        # Gauss-Hermite fitted at order 40, then refitted at 160: 74 model
        # evaluations.  The seed's sigma_B sets the rule the fit runs on
        runs = self.least_squares_runs(monkeypatch)
        rng = np.random.default_rng(50)
        counts = simulate_counts(reference_system(), NoiseModel(sigma_b=50e-9),
                                 self.DELTAS, TAU, 300, rng)
        res = fit_spectrum(self.DELTAS, counts, 300, self.CONFIG)
        assert len(runs) == 1
        assert res.nfev < 74

    def test_fit_is_refined_once_at_the_needed_order(self, monkeypatch):
        # the seed scan stops at 60 nT, whose rule (129 nodes) misses the
        # 150 nT optimum; the fit is refined once on the rule the check found
        runs = self.least_squares_runs(monkeypatch)
        rng = np.random.default_rng(0)
        counts = simulate_counts(reference_system(), NoiseModel(sigma_b=150e-9),
                                 self.DELTAS, TAU, 300, rng)
        res = fit_spectrum(self.DELTAS, counts, 300, self.CONFIG)
        assert len(runs) == 2
        assert res.quadrature_nodes == 257
        assert res.quadrature_change <= 1e-6
        assert res.chi2_reduced == pytest.approx(
            self.dense_chi2_reduced(res, counts), rel=1e-6)

    def test_unconverged_quadrature_at_the_cap_is_a_failure(self, monkeypatch):
        # a 59 ms probe (Omega0 = 0.005 omega_q): the seed scan's sigma_B
        # needs more than 4097 nodes, so the fit stops before least squares.
        # simulate_counts refuses that average; the counts come from the
        # 4001-point sum
        runs = self.least_squares_runs(monkeypatch)
        tau = math.pi / (0.005 * WQ)
        rng = np.random.default_rng(2)
        counts = rng.binomial(300, dense_noise_average(
            reference_system(tau=tau), NoiseModel(sigma_b=40e-9), self.DELTAS,
            tau))
        with pytest.raises(QuadratureConvergenceError, match="4097 nodes"):
            fit_spectrum(self.DELTAS, counts, 300, FitConfig(tau=tau))
        assert runs == []

    def test_evaluation_limit_is_a_failure(self):
        rng = np.random.default_rng(0)
        counts = simulate_counts(reference_system(), NoiseModel(sigma_b=18e-9),
                                 self.DELTAS, TAU, 300, rng)
        with pytest.raises(FitError):
            fit_spectrum(self.DELTAS, counts, 300,
                         FitConfig(tau=TAU, max_nfev=1))

    @pytest.mark.parametrize("tau", [0.0, -1.2e-3, math.nan, math.inf])
    def test_probe_time_must_be_positive(self, tau):
        with pytest.raises(InvalidInputError, match="probe time"):
            FitConfig(tau=tau)

    def test_input_validation(self):
        with pytest.raises(InvalidInputError):
            fit_spectrum(self.DELTAS[:5], np.zeros(5), 300, self.CONFIG)
        with pytest.raises(InvalidInputError):
            fit_spectrum(self.DELTAS, np.zeros(40), 0, self.CONFIG)
        with pytest.raises(InvalidInputError):
            fit_spectrum(self.DELTAS, np.zeros(39), 300, self.CONFIG)
        with pytest.raises(InvalidInputError):
            fit_spectrum(self.DELTAS, np.where(self.DELTAS > 0, np.nan, 0.0),
                         300, self.CONFIG)


class TestExtractTheta:
    BA_TRAP = TrapConfig.ideal_linear(
        137.905 * CODATA2018.atomic_mass, TWO_PI * 20.585e6, TWO_PI * 943e3,
        omega_s_unc=TWO_PI * 17e3,
    )

    def test_paper_values(self):
        est = extract_theta(TWO_PI * 1694.0, TWO_PI * 35.0, self.BA_TRAP)
        assert est.theta == pytest.approx(3.229, rel=5e-3)
        assert est.error == pytest.approx(0.089, rel=0.1)

    def test_linear_in_omega_q(self):
        a = extract_theta(TWO_PI * 1000.0, 0.0, self.BA_TRAP)
        b = extract_theta(TWO_PI * 2000.0, 0.0, self.BA_TRAP)
        assert b.theta == pytest.approx(2 * a.theta, rel=1e-12)

    def test_error_combines_in_quadrature(self):
        est = extract_theta(TWO_PI * 1694.0, TWO_PI * 35.0, self.BA_TRAP)
        rel = math.hypot(35.0 / 1694.0, 17.0 / 943.0)
        assert est.error / est.theta == pytest.approx(rel, rel=1e-12)
        assert rel == pytest.approx(0.0275, abs=2e-4)

    def test_inverts_epsilon_from_secular(self):
        # omega_q built from a trap's own epsilon and theta must invert exactly
        theta = 2.5
        trap = TrapConfig.ideal_linear(2.3e-25, 1.2e8, 5.5e6)
        omega_q = trap.epsilon * theta * CODATA2018.e_a0_squared / CODATA2018.hbar
        est = extract_theta(omega_q, 0.0, trap)
        assert est.theta == pytest.approx(theta, rel=1e-12)

    def test_rejects_bad_inputs(self):
        with pytest.raises(InvalidInputError):
            extract_theta(-1.0, 0.0, self.BA_TRAP)
        trap = TrapConfig(omega_rf=1e8, mass=2e-25, epsilon=1e9)
        with pytest.raises(InvalidInputError):
            extract_theta(TWO_PI * 1e3, 0.0, trap)


class TestCombineRuns:
    def test_paper_table(self):
        mean, err = combine_runs([1708.0, 1662.0, 1713.0], [24.0, 19.0, 16.0],
                                 drift_error=24.0)
        assert mean == pytest.approx(1694.33, abs=0.01)
        # quadrature of the rounded inputs gives 33.9; a reported 35
        # rounds from unrounded components and lies within input rounding
        assert 33.2 <= err <= 35.5

    def test_single_fit_identity(self):
        mean, err = combine_runs([1700.0], [20.0])
        assert mean == 1700.0 and err == 20.0

    def test_identical_fits(self):
        mean, err = combine_runs([5.0, 5.0, 5.0], [1.0, 1.0, 1.0])
        assert mean == 5.0 and err == 1.0

    def test_validation(self):
        with pytest.raises(InvalidInputError):
            combine_runs([], [])
        with pytest.raises(InvalidInputError):
            combine_runs([1.0, 2.0], [0.1])

    def test_rejects_negative_errors(self):
        with pytest.raises(InvalidInputError, match="non-negative"):
            combine_runs([1700.0, 1690.0], [20.0, -35.0])
        with pytest.raises(InvalidInputError, match="non-negative"):
            combine_runs([1700.0], [20.0], drift_error=-5.0)
