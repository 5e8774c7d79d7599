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
    _hermite_rule,
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


def reference_system(omega_q: float = WQ) -> RwaSystem:
    return RwaSystem(omega_q, math.pi / TAU, 0.0, 0.0)


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


def dense_noise_average(sys: RwaSystem, noise: NoiseModel,
                        detunings: np.ndarray, tau: float) -> np.ndarray:
    """Trapezoid sum over b in +-8 sigma_B on 4001 points: an average that
    shares no nodes or weights with the Gauss-Hermite quadrature."""
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
        strong = _averaged_transfer(
            reference_system(), NoiseModel(sigma_b=120e-9), grid, TAU, 512
        )
        peaks = find_spectrum_peaks(SpectrumScan(grid, strong, TAU))
        assert len(peaks) == 1

    def test_convergence_check_raises_when_underresolved(self):
        grid = default_detuning_grid(WQ, 51)
        with pytest.raises(QuadratureConvergenceError):
            noise_averaged_signal(
                reference_system(), NoiseModel(sigma_b=200e-9), grid, TAU
            )

    def test_order_is_worked_out_at_100nt(self):
        # a fixed order 128 (checked against 256) failed here; the average
        # now raises its own order until it holds
        grid = default_detuning_grid(WQ, 51)
        noise = NoiseModel(sigma_b=100e-9)
        scan = noise_averaged_signal(reference_system(), noise, grid, TAU)
        assert scan.quadrature_order > 40
        assert scan.quadrature_change <= 1e-6
        want = dense_noise_average(reference_system(), noise, grid, TAU)
        assert np.max(np.abs(scan.transfer - want)) < 1e-9

    def test_simulated_counts_need_a_converged_average(self):
        # at 150 nT no order up to 640 holds to 1e-6; counts must not be
        # drawn from an unconverged average
        with pytest.raises(QuadratureConvergenceError):
            simulate_counts(reference_system(), NoiseModel(sigma_b=150e-9),
                            TestFitSpectrum.DELTAS, TAU, 300,
                            np.random.default_rng(0))

    @pytest.mark.parametrize("tau", [0.0, -1.2e-3, math.nan, math.inf])
    def test_probe_time_must_be_positive(self, tau):
        sys = reference_system()
        with pytest.raises(InvalidInputError, match="probe time"):
            transfer_probabilities(sys.omega_q, sys.omega_0, 0.0, 0.0, tau)
        with pytest.raises(InvalidInputError, match="probe time"):
            noise_averaged_signal(sys, NoiseModel(sigma_b=18e-9),
                                  np.linspace(-WQ, WQ, 11), tau)

    def test_hermite_rule_is_computed_once_and_read_only(self):
        nodes, weights = _hermite_rule(40)
        assert _hermite_rule(40)[0] is nodes
        assert math.fsum(weights) == pytest.approx(1.0, abs=1e-14)
        with pytest.raises(ValueError):
            weights[0] = 0.0

    def test_order_doubling_stable_up_to_50nt(self):
        grid = default_detuning_grid(WQ, 101)
        for sigma in (10e-9, 30e-9, 50e-9):
            a = _averaged_transfer(
                reference_system(), NoiseModel(sigma_b=sigma), grid, TAU, 128
            )
            b = _averaged_transfer(
                reference_system(), NoiseModel(sigma_b=sigma), grid, TAU, 256
            )
            assert np.max(np.abs(a - b)) < 1e-4


class TestFitSpectrum:
    DELTAS = np.linspace(-1.5, 1.5, 40) * WQ
    CONFIG = FitConfig(tau=TAU)

    def test_noiseless_recovery_to_1e6(self):
        exact = _averaged_transfer(
            reference_system(), NoiseModel(sigma_b=18e-9), self.DELTAS, TAU, 40
        )
        res = fit_spectrum(self.DELTAS, exact * 300, 300, self.CONFIG)
        assert abs(res.omega_q - WQ) / WQ < 1e-6
        assert abs(res.sigma_b - 18e-9) / 18e-9 < 1e-6

    def test_variance_scaling_doubles_errors(self):
        # quartering the shot count quadruples the binomial variance; with
        # exact model data the best fit is unchanged and errors double
        exact = _averaged_transfer(
            reference_system(), NoiseModel(sigma_b=18e-9), self.DELTAS, TAU, 40
        )
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
            p = _averaged_transfer(reference_system(res.omega_q),
                                   NoiseModel(sigma_b=sigma_b), self.DELTAS,
                                   TAU, res.quadrature_order)
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
        assert res.quadrature_order == 40
        assert 0.0 <= res.quadrature_change <= 1e-6
        assert res.to_dict()["diagnostics"]["nfev"] == res.nfev

    def test_quadrature_order_escalates_at_50nt(self):
        # order 40 misses the 50 nT average by ~1e-2; the fit must raise the
        # order until the model holds still, so chi2_nu matches a
        # recomputation at a much higher order
        sys = reference_system(TWO_PI * 1.70e3)
        rng = np.random.default_rng(50)
        counts = simulate_counts(sys, NoiseModel(sigma_b=50e-9), self.DELTAS,
                                 TAU, 300, rng)
        res = fit_spectrum(self.DELTAS, counts, 300, self.CONFIG)
        assert res.quadrature_order > 40
        assert res.quadrature_change <= 1e-6
        p = _averaged_transfer(reference_system(res.omega_q),
                               NoiseModel(sigma_b=res.sigma_b), self.DELTAS,
                               TAU, 512)
        var = np.maximum(p * (1 - p), 1 / 1200) / 300
        chi2_nu = float(np.sum((counts / 300 - p) ** 2 / var)) / 38
        assert res.chi2_reduced == pytest.approx(chi2_nu, rel=1e-6)

    def test_fit_is_refined_once_at_the_needed_order(self):
        # order 40 -> 160 at 50 nT: refitting after each doubling took 86
        # model evaluations; one refit at the order found takes fewer
        rng = np.random.default_rng(50)
        counts = simulate_counts(reference_system(), NoiseModel(sigma_b=50e-9),
                                 self.DELTAS, TAU, 300, rng)
        res = fit_spectrum(self.DELTAS, counts, 300, self.CONFIG)
        assert res.quadrature_order == 160
        assert res.nfev < 86

    def test_unconverged_quadrature_at_the_cap_is_a_failure(self):
        # at 150 nT even order 640 moves the model by ~1e-4 from order 1280;
        # simulate_counts refuses this average, so the counts come from 2560
        rng = np.random.default_rng(0)
        counts = rng.binomial(300, _averaged_transfer(
            reference_system(), NoiseModel(sigma_b=150e-9), self.DELTAS, TAU,
            2560))
        with pytest.raises(QuadratureConvergenceError):
            fit_spectrum(self.DELTAS, counts, 300, self.CONFIG)

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
