import dataclasses
import math
import re

import numpy as np
import pytest

from trapquad.dynamics import (
    RwaSystem,
    SpectrumScan,
    default_detuning_grid,
    find_spectrum_peaks,
    transfer_probabilities,
)
from trapquad.errors import (
    FitError,
    InvalidInputError,
    QuadratureConvergenceError,
)
from trapquad import inference
from trapquad.inference import (
    FitConfig,
    NoiseModel,
    ThetaEstimate,
    _averaged_transfer,
    _converged_order,
    _distinct_magnitudes,
    _start_order,
    _uniform_rule,
    combine_runs,
    extract_theta,
    fit_spectrum,
    noise_averaged_signal,
    simulate_counts,
)
from trapquad.trap import (CODATA2018, SENSITIVITY_LASER, SENSITIVITY_RF,
                           TrapConfig)

TWO_PI = 2 * math.pi
WQ = TWO_PI * 1.7e3
TAU = 1.2e-3
# pi-pulse at Omega0 = 0.01 omega_q (spectrum --Omega0-ratio 0.01): at 400 nT
# the rule that resolves sigma_B*tau needs more than 3073 nodes
TAU_LONG = math.pi / (0.01 * WQ)


def reference_system(omega_q: float = WQ, tau: float = TAU) -> RwaSystem:
    return RwaSystem(omega_q, math.pi / tau, 0.0, 0.0)


class TestNoiseModel:
    def test_sensitivities(self):
        # the Ba+ g-factors g_D = 6/5 and g_S = 2.0025 are the model's constants
        mu_over_hbar = CODATA2018.bohr_magneton / CODATA2018.hbar
        assert SENSITIVITY_RF == pytest.approx(2.4 * mu_over_hbar)
        assert SENSITIVITY_LASER == pytest.approx(
            (1.2 - 2.0025) / 2 * mu_over_hbar
        )

    def test_rejects_negative_sigma(self):
        with pytest.raises(InvalidInputError):
            NoiseModel(sigma_b=-1e-9)

    def test_sigma_b_and_tau_are_the_only_settings(self):
        assert [f.name for f in dataclasses.fields(NoiseModel)] == ["sigma_b"]
        assert [f.name for f in dataclasses.fields(FitConfig)] == ["tau"]


def dense_noise_average(sys: RwaSystem, noise: NoiseModel,
                        detunings: np.ndarray, tau: float) -> np.ndarray:
    """Trapezoid sum over b in +-8 sigma_B on 4001 points, normalised by the
    weight sum: its step 0.004 sigma_B is no dyadic fraction of the rule's
    0.5 sigma_B, so of the rule's nodes it shares only the multiples of
    0.5 sigma_B.  It includes the tails beyond +-6 sigma_B that the rule
    leaves out.  Those can move the average by up to 2*Phi(-6) = 2.0e-9,
    above the 1e-9 checks against this sum: the checks hold because p is
    below 1/2 in the tails on their inputs (the tails account for at most
    9.3e-10, at 100 nT and tau = 1.2 ms), not because of that bound."""
    b = np.linspace(-8.0, 8.0, 4001) * noise.sigma_b
    w = np.exp(-0.5 * (b / noise.sigma_b) ** 2)
    w /= w.sum()
    d_rf = sys.detuning_rf - SENSITIVITY_RF * b
    d_l = detunings[:, None] - SENSITIVITY_LASER * b[None, :]
    probs = transfer_probabilities(sys.omega_q, sys.omega_0,
                                   np.broadcast_to(d_rf, d_l.shape), d_l, tau)
    return probs @ w


class TestNoiseAveragedSignal:
    def test_zero_sigma_reduces_to_bare_scan(self):
        # every node is the same at sigma_B = 0: one node, and the bare
        # transfer bit for bit, on the grid off the carrier and at each
        # point's own |delta| on it
        grid = default_detuning_grid(WQ, 101)
        for delta_rf in (0.0, 0.3 * WQ):
            sys = RwaSystem(WQ, math.pi / TAU, delta_rf, 0.0)
            avg = noise_averaged_signal(sys, NoiseModel(sigma_b=0.0), grid, TAU)
            assert avg.quadrature_nodes == 1
            assert avg.quadrature_change == 0.0
            points, where = (_distinct_magnitudes(grid) if delta_rf == 0.0
                             else (grid, slice(None)))
            bare = transfer_probabilities(WQ, sys.omega_0, delta_rf, points, TAU)
            assert np.array_equal(avg.transfer, bare[where])

    @pytest.mark.parametrize("sigma_b, nodes", [(0.0, [1]), (18e-9, [25, 24])])
    def test_carrier_spectrum_is_even_for_half_the_pairs(self, monkeypatch, sigma_b,
                                                         nodes):
        # at Delta = 0 the 101 points of a symmetric grid have 51 distinct
        # |delta|; off the carrier every point is passed, on each pass's nodes
        grid = np.linspace(-2.0, 2.0, 101) * WQ
        for delta_rf, distinct in ((0.0, 51), (0.3 * WQ, 101)):
            points = count_pairs(monkeypatch)
            sys = RwaSystem(WQ, math.pi / TAU, delta_rf, 0.0)
            scan = noise_averaged_signal(sys, NoiseModel(sigma_b=sigma_b), grid, TAU)
            assert points == [distinct * n for n in nodes]
            assert np.array_equal(scan.transfer, scan.transfer[::-1]) == (delta_rf == 0.0)

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
        # pi/(k_D sigma_B tau) = 1.3e-3, needs 12289 nodes
        grid = default_detuning_grid(WQ, 51)
        with pytest.raises(QuadratureConvergenceError, match="3073 nodes"):
            noise_averaged_signal(reference_system(tau=TAU_LONG),
                                  NoiseModel(sigma_b=400e-9), grid, TAU_LONG)

    def test_cap_is_a_failure_when_the_average_keeps_moving(self):
        calls = []

        def average(n, new_only):
            calls.append((n, new_only))
            return np.full(3, 1.0 if new_only else 0.0)   # 0, 1, 1.5, 1.75

        with pytest.raises(QuadratureConvergenceError,
                           match="2.50e-01 .* from 1537 to 3073 nodes"):
            _converged_order(average, 385)
        assert calls == [(385, False), (769, True), (1537, True), (3073, True)]

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
        assert scan.quadrature_nodes == _start_order(noise.sigma_b, TAU) == 193
        # the start rule's 193 nodes, then the 192 the halving adds, each at
        # the grid's 26 distinct |delta| (the carrier's spectrum is even)
        assert points == [26 * 193, 26 * 192]

    def test_simulated_counts_need_a_converged_average(self):
        # 400 nT at a 29 ms probe needs more than 3073 nodes; counts must
        # not be drawn from an unconverged average
        with pytest.raises(QuadratureConvergenceError):
            simulate_counts(reference_system(tau=TAU_LONG),
                            NoiseModel(sigma_b=400e-9), TestFitSpectrum.DELTAS,
                            TAU_LONG, 300, np.random.default_rng(0))

    def test_laser_detuning_is_the_grid(self, monkeypatch):
        # a nonzero sys.detuning_laser was ignored: 5 omega_q gave the
        # spectrum and the counts of 0
        points = count_pairs(monkeypatch)
        sys = RwaSystem(WQ, math.pi / TAU, 0.0, 5 * WQ)
        grid = default_detuning_grid(WQ, 51)
        with pytest.raises(InvalidInputError, match="detuning_laser"):
            noise_averaged_signal(sys, NoiseModel(sigma_b=18e-9), grid, TAU)
        with pytest.raises(InvalidInputError, match="detuning_laser"):
            simulate_counts(sys, NoiseModel(sigma_b=18e-9), grid, TAU, 300,
                            np.random.default_rng(0))
        assert points == []

    @pytest.mark.parametrize("tau", [0.0, -1.2e-3, math.nan, math.inf])
    def test_probe_time_must_be_positive(self, tau):
        sys = reference_system()
        with pytest.raises(InvalidInputError, match="probe time"):
            transfer_probabilities(sys.omega_q, sys.omega_0, 0.0, 0.0, tau)
        with pytest.raises(InvalidInputError, match="probe time"):
            noise_averaged_signal(sys, NoiseModel(sigma_b=18e-9),
                                  np.linspace(-WQ, WQ, 11), tau)

    @pytest.mark.parametrize("grid", [
        np.array([]), np.linspace(-WQ, WQ, 12).reshape(3, 4),
        np.linspace(WQ, -WQ, 11), [0.0, math.inf], [-math.inf, 0.0],
        [0.0, math.nan],
    ], ids=["empty", "2-d", "decreasing", "inf", "minus-inf", "nan"])
    def test_bad_grid_is_rejected_before_any_eigh(self, grid, monkeypatch):
        # an infinite detuning passed the check: at 18 nT [0, inf] raised
        # "changes by nan" at the 3073-node cap, at sigma_B = 0 [-inf, 0]
        # gave a NaN transfer, and simulate_counts on [-inf, 0] kept no
        # magnitude and named an empty grid
        calls = []
        monkeypatch.setattr("trapquad.inference.transfer_probabilities",
                            lambda *args, **kwargs: calls.append(args))
        for sigma_b in (0.0, 18e-9):
            noise = NoiseModel(sigma_b=sigma_b)
            with pytest.raises(InvalidInputError, match="detuning grid"):
                noise_averaged_signal(reference_system(), noise, grid, TAU)
            with pytest.raises(InvalidInputError, match="detuning grid"):
                simulate_counts(reference_system(), noise, grid, TAU, 300,
                                np.random.default_rng(0))
        assert calls == []

    def test_uniform_rule_is_computed_once_and_read_only(self):
        nodes, weights = _uniform_rule(97, False)
        assert _uniform_rule(97, False)[0] is nodes
        assert nodes[0] == -6.0 and nodes[-1] == 6.0
        # the weights are h*phi(x): with the full line's nodes beyond |x| = 6
        # they sum to 1, and what those nodes hold is below 2*Phi(-6)
        beyond = np.arange(6.125, 40.0, 0.125)
        tail = 2 * math.fsum(0.125 * np.exp(-0.5 * beyond ** 2)) / math.sqrt(TWO_PI)
        assert math.fsum(weights) + tail == pytest.approx(1.0, abs=1e-14)
        assert 0.0 < tail < math.erfc(6.0 / math.sqrt(2.0))
        new, new_weights = _uniform_rule(193, True)
        assert np.allclose(new, nodes[:-1] + 0.0625, rtol=0, atol=1e-15)
        assert math.fsum(weights) / 2 + math.fsum(new_weights) == pytest.approx(
            math.fsum(_uniform_rule(193, False)[1]), abs=1e-15)
        for array in (nodes, weights, new, new_weights):
            with pytest.raises(ValueError):
                array[0] = 0.0

    @pytest.mark.parametrize("tau, sigma_b, nodes", [
        (1.18e-3, 18e-9, 25), (5.9e-3, 18e-9, 97), (5.9e-3, 40e-9, 193),
        (5.9e-3, 100e-9, 769), (1.18e-3, 150e-9, 193), (1.18e-3, 400e-9, 385),
    ])
    def test_start_rule_is_the_coarsest_that_resolves(self, tau, sigma_b,
                                                      nodes):
        assert _start_order(sigma_b, tau) == nodes
        width = math.pi / (SENSITIVITY_RF * sigma_b * tau)
        step = 12.0 / (nodes - 1)
        assert step <= min(0.5, width) and (nodes == 25 or 2 * step > width)

    def test_order_doubling_stable_up_to_50nt(self):
        # up to 50 nT the start rule already holds to 1e-6 against the next
        grid = default_detuning_grid(WQ, 101)
        for sigma in (10e-9, 30e-9, 50e-9):
            n = _start_order(sigma, TAU)
            a = _averaged_transfer(WQ, math.pi / TAU, 0.0, sigma, grid, TAU, n)
            b = _averaged_transfer(WQ, math.pi / TAU, 0.0, sigma, grid, TAU,
                                   2 * n - 1)
            assert np.max(np.abs(a - b)) < 1e-6


def count_pairs(monkeypatch) -> list:
    """The pairs of every transfer_probabilities call inference makes."""
    points = []

    def counted(*args, **kwargs):
        points.append(np.size(args[3]))
        return transfer_probabilities(*args, **kwargs)

    monkeypatch.setattr("trapquad.inference.transfer_probabilities", counted)
    return points


class TestSimulateCounts:
    DELTAS = np.linspace(-1.5, 1.5, 40) * WQ

    @pytest.mark.parametrize("delta_rf, distinct", [(0.0, 20), (0.3 * WQ, 40)],
                             ids=["carrier", "off-carrier"])
    def test_passes_each_distinct_magnitude_once_on_the_carrier(
            self, monkeypatch, delta_rf, distinct):
        # at Delta = 0 the average is even in delta: the 40 points have 20
        # distinct |delta|.  Off the carrier every point is evaluated
        points = count_pairs(monkeypatch)
        sys = RwaSystem(WQ, math.pi / TAU, delta_rf, 0.0)
        simulate_counts(sys, NoiseModel(sigma_b=18e-9), self.DELTAS, TAU, 300,
                        np.random.default_rng(0))
        assert points == [distinct * 25, distinct * 24]

    @pytest.mark.parametrize("delta_rf", [0.0, 0.3 * WQ],
                             ids=["carrier", "off-carrier"])
    @pytest.mark.parametrize("sigma_b", [0.0, 18e-9, 50e-9, 150e-9])
    def test_counts_are_drawn_from_the_noise_averaged_signal(self, sigma_b,
                                                             delta_rf):
        sys = RwaSystem(WQ, math.pi / TAU, delta_rf, 0.0)
        noise = NoiseModel(sigma_b=sigma_b)
        for seed in (0, 1):
            counts = simulate_counts(sys, noise, self.DELTAS, TAU, 300,
                                     np.random.default_rng(seed))
            p = noise_averaged_signal(sys, noise, self.DELTAS, TAU).transfer
            want = np.random.default_rng(seed).binomial(300, np.clip(p, 0.0, 1.0))
            assert np.array_equal(counts, want)

    @pytest.mark.parametrize("shots", [2.5, 0, -1, math.nan])
    def test_shots_must_be_a_whole_number_of_at_least_one(self, monkeypatch,
                                                          shots):
        # 2.5 drew from 2 trials, 0 gave all-zero counts, and -1 and NaN
        # raised numpy's ValueError
        points = count_pairs(monkeypatch)
        with pytest.raises(InvalidInputError, match="shots"):
            simulate_counts(reference_system(), NoiseModel(sigma_b=18e-9),
                            self.DELTAS, TAU, shots, np.random.default_rng(0))
        assert points == []

    def test_whole_numbered_shots_are_accepted(self):
        counts = simulate_counts(reference_system(), NoiseModel(sigma_b=18e-9),
                                 self.DELTAS, TAU, np.int64(1),
                                 np.random.default_rng(0))
        assert set(counts.tolist()) <= {0, 1}


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
        assert res.nfev <= 15
        assert res.status in (1, 2, 3, 4)
        assert -1.0 < res.correlation < 1.0
        assert res.quadrature_nodes == 25
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
        """The starting points of every solver run fit_spectrum makes."""
        runs = []

        def counted(fun, x, *args, **kwargs):
            runs.append(np.array(x))
            return least_squares(fun, x, *args, **kwargs)

        least_squares = inference._least_squares
        monkeypatch.setattr(inference, "_least_squares", counted)
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
        # the seed's sigma_B sets the rule the fit runs on; with the exact
        # Jacobian and the batched seed the fit takes 15 model evaluations
        runs = self.least_squares_runs(monkeypatch)
        rng = np.random.default_rng(50)
        counts = simulate_counts(reference_system(), NoiseModel(sigma_b=50e-9),
                                 self.DELTAS, TAU, 300, rng)
        res = fit_spectrum(self.DELTAS, counts, 300, self.CONFIG)
        assert len(runs) == 1
        assert res.nfev <= 17

    def test_18nt_fit_passes_at_most_10000_pairs(self, monkeypatch):
        # the 40 points have 20 distinct |delta|: the seed's 61 x 20
        # noiseless pairs and 4 x 25 x 20 on the coarsest rule, then a few
        # residual-and-Jacobian passes and the check
        points = []

        def counted(*args, **kwargs):
            points.append(np.size(args[3]))
            return transfer_probabilities(*args, **kwargs)

        monkeypatch.setattr("trapquad.inference.transfer_probabilities",
                            counted)
        rng = np.random.default_rng(0)
        counts = simulate_counts(reference_system(), NoiseModel(sigma_b=18e-9),
                                 self.DELTAS, TAU, 300, rng)
        points.clear()
        res = fit_spectrum(self.DELTAS, counts, 300, self.CONFIG)
        assert len(points) == res.nfev
        assert points[0] == 61 * 20
        assert sum(points) <= 10000

    @staticmethod
    def record_passes(monkeypatch) -> list:
        """(omega_q, Delta, pairs, derivatives) of every pass the fit makes;
        omega_q and the Delta of the nodes as bytes, which tell the x and
        the nodes of a pass apart."""
        passes = []

        def counted(*args, **kwargs):
            derivatives = kwargs.get("derivatives", False)
            passes.append((np.asarray(args[0]).tobytes(),
                           np.asarray(args[2]).tobytes(), np.size(args[3]),
                           derivatives))
            return transfer_probabilities(*args, **kwargs)

        monkeypatch.setattr(inference, "transfer_probabilities", counted)
        return passes

    @staticmethod
    def repeats(passes) -> list:
        """Indices of the passes whose (x, nodes) an earlier pass had."""
        keys = [p[:2] for p in passes]
        return [i for i, key in enumerate(keys) if key in keys[:i]]

    def fit_recording(self, monkeypatch, sigma_b, seed):
        counts = simulate_counts(reference_system(), NoiseModel(sigma_b=sigma_b),
                                 self.DELTAS, TAU, 300,
                                 np.random.default_rng(seed))
        passes = self.record_passes(monkeypatch)
        res = fit_spectrum(self.DELTAS, counts, 300, self.CONFIG)
        assert len(passes) == res.nfev
        return res, passes

    def test_check_reuses_the_solvers_last_pass(self, monkeypatch):
        # the check's 25-node average at the optimum is the solver's pass
        # there: its only pass is the nodes the halving adds, 24 x 20 pairs.
        # The one (x, nodes) passed twice is the seed, where the solver's
        # first pass adds the derivatives the sigma_B scan did not take
        res, passes = self.fit_recording(monkeypatch, 18e-9, 0)
        assert res.quadrature_nodes == 25
        assert passes[-1][2:] == (24 * 20, False)
        assert self.repeats(passes) == [5]
        assert passes[5][3] and not passes[0][3]
        assert [p[3] for p in passes[:5]] == [False] * 5

    def test_upper_limit_point_is_not_evaluated_again(self, monkeypatch):
        # at the bound the check also takes the average at the upper limit,
        # which _upper_limit has just evaluated: the check passes only the
        # new nodes at the optimum and at the limit
        res, passes = self.fit_recording(monkeypatch, 0.0, 2)
        assert res.sigma_b_at_bound and res.quadrature_nodes == 25
        assert [p[2:] for p in passes[-2:]] == [(24 * 20, False)] * 2
        assert self.repeats(passes) == [5]
        assert passes[5][3]

    def test_each_refinement_starts_with_a_pass_on_its_rule(self,
                                                            monkeypatch):
        # at 150 nT the fit is refined from 97 to 193 nodes; the refined
        # solver's first pass, at the optimum on 97 nodes, is a new pass on
        # 193: a pass is remembered by its x and its rule together
        runs = self.least_squares_runs(monkeypatch)
        res, passes = self.fit_recording(monkeypatch, 150e-9, 0)
        assert len(runs) == 2 and res.quadrature_nodes == 193
        start = np.asarray(runs[1][0]).tobytes()
        on_rule = [p[2] for p in passes if p[0] == start and p[3]]
        assert on_rule == [97 * 20, 193 * 20]
        assert self.repeats(passes) == []

    class Captured(Exception):
        pass

    @classmethod
    def residual_function(cls, monkeypatch, sigma_b):
        """The function x -> (residuals, Jacobian) that fit_spectrum hands
        to its solver, for counts drawn at sigma_b."""
        got = {}

        def capture(fun, x, max_nfev):
            got.update(fun=fun)
            raise cls.Captured

        monkeypatch.setattr(inference, "_least_squares", capture)
        rng = np.random.default_rng(0)
        counts = simulate_counts(reference_system(),
                                 NoiseModel(sigma_b=sigma_b), cls.DELTAS, TAU,
                                 300, rng)
        with pytest.raises(cls.Captured):
            fit_spectrum(cls.DELTAS, counts, 300, cls.CONFIG)
        return got["fun"]

    @pytest.mark.parametrize("sigma_b", [18e-9, 50e-9, 150e-9])
    def test_jacobian_matches_central_differences(self, monkeypatch, sigma_b):
        fun = self.residual_function(monkeypatch, sigma_b)
        x = np.array([WQ, sigma_b * 1e9])        # (rad/s, nT)
        # residuals and Jacobian at one x come from one pass
        passes = []

        def counted(*args, **kwargs):
            passes.append(kwargs.get("derivatives", False))
            return transfer_probabilities(*args, **kwargs)

        monkeypatch.setattr(inference, "transfer_probabilities", counted)
        exact = fun(x)[1]
        assert passes == [True]
        for col in (0, 1):
            step = np.zeros(2)
            step[col] = 1e-5 * x[col]
            central = (fun(x + step)[0] - fun(x - step)[0]) / (2 * step[col])
            assert np.max(np.abs(central - exact[:, col])) <= (
                1e-6 * np.max(np.abs(exact[:, col])))
        # a second call at x is the pass the model remembers
        assert np.array_equal(fun(x)[1], exact)
        assert passes == [True] * 5

    def test_jacobian_at_zero_sigma_b(self, monkeypatch):
        fun = self.residual_function(monkeypatch, 0.0)
        x = np.array([WQ, 0.0])
        exact = fun(x)[1]
        step = np.array([1e-5 * WQ, 0.0])
        central = (fun(x + step)[0] - fun(x - step)[0]) / (2 * step[0])
        assert np.max(np.abs(central - exact[:, 0])) <= (
            1e-6 * np.max(np.abs(exact[:, 0])))
        # the average is even in sigma_B, so its central difference is zero
        assert np.max(np.abs(exact[:, 1])) <= 1e-12

    def test_fit_is_refined_once_at_the_needed_order(self, monkeypatch):
        # the seed's sigma_B scan stops at 60 nT, whose rule (97 nodes)
        # misses the 150 nT optimum; the fit is refined once on the rule the
        # check found
        runs = self.least_squares_runs(monkeypatch)
        rng = np.random.default_rng(0)
        counts = simulate_counts(reference_system(), NoiseModel(sigma_b=150e-9),
                                 self.DELTAS, TAU, 300, rng)
        res = fit_spectrum(self.DELTAS, counts, 300, self.CONFIG)
        assert len(runs) == 2
        assert res.quadrature_nodes == 193
        assert res.quadrature_change <= 1e-6
        assert res.chi2_reduced == pytest.approx(
            self.dense_chi2_reduced(res, counts), rel=1e-6)

    def test_unconverged_quadrature_at_the_cap_is_a_failure(self, monkeypatch):
        # a 0.59 s probe (Omega0 = 0.0005 omega_q): even the seed scan's
        # smallest sigma_B, 5 nT, needs more than 3073 nodes, so the fit
        # stops before least squares whichever sigma_B the scan picks.
        # simulate_counts refuses that average; the counts come from the
        # 4001-point sum
        runs = self.least_squares_runs(monkeypatch)
        tau = math.pi / (0.0005 * WQ)
        rng = np.random.default_rng(2)
        counts = rng.binomial(300, dense_noise_average(
            reference_system(tau=tau), NoiseModel(sigma_b=40e-9), self.DELTAS,
            tau))
        with pytest.raises(QuadratureConvergenceError, match="3073 nodes"):
            fit_spectrum(self.DELTAS, counts, 300, FitConfig(tau=tau))
        assert runs == []

    def test_evaluation_limit_is_a_failure(self, monkeypatch):
        rng = np.random.default_rng(0)
        counts = simulate_counts(reference_system(), NoiseModel(sigma_b=18e-9),
                                 self.DELTAS, TAU, 300, rng)
        monkeypatch.setattr(inference, "_MAX_NFEV", 1)
        with pytest.raises(FitError):
            fit_spectrum(self.DELTAS, counts, 300, FitConfig(tau=TAU))

    @staticmethod
    def scipy_trf(fun, x, max_nfev):
        """The solver fit_spectrum used before: scipy's trust-region
        reflective least_squares, sigma_B >= 0, scaled by the Jacobian."""
        from scipy.optimize import least_squares
        at = {}

        def memo(x):
            if at.get("x") is None or not np.array_equal(at["x"], x):
                at.update(x=np.array(x), value=fun(x))
            return at["value"]

        fit = least_squares(lambda x: memo(x)[0], x, jac=lambda x: memo(x)[1],
                            method="trf", bounds=([0.0, 0.0], [np.inf, np.inf]),
                            x_scale="jac", max_nfev=max_nfev)
        return inference._Solution(x=fit.x, cost=fit.cost, jac=fit.jac,
                                   at_bound=fit.active_mask[1] != 0,
                                   status=fit.status)

    @pytest.mark.parametrize("sigma_b, seeds", [
        (18e-9, range(20)), (50e-9, range(50, 60)), (150e-9, range(5)),
        (0.0, [2]), (0.0, range(3, 10)), (2e-9, range(4)), (5e-9, range(4)),
        (8e-9, range(4))])
    def test_same_fit_as_scipy_least_squares(self, monkeypatch, sigma_b, seeds):
        for seed in seeds:
            counts = simulate_counts(reference_system(),
                                     NoiseModel(sigma_b=sigma_b), self.DELTAS,
                                     TAU, 300, np.random.default_rng(seed))
            res = fit_spectrum(self.DELTAS, counts, 300, self.CONFIG)
            with monkeypatch.context() as m:
                m.setattr(inference, "_least_squares", self.scipy_trf)
                ref = fit_spectrum(self.DELTAS, counts, 300, self.CONFIG)
            assert abs(res.omega_q - ref.omega_q) <= 1e-3 * ref.omega_q_err
            assert abs(res.sigma_b - ref.sigma_b) <= 1e-3 * ref.sigma_b_err
            assert res.omega_q_err == pytest.approx(ref.omega_q_err, rel=1e-4)
            assert res.sigma_b_err == pytest.approx(ref.sigma_b_err, rel=1e-4)
            assert res.chi2_reduced == pytest.approx(ref.chi2_reduced, rel=1e-8)
            assert res.sigma_b_at_bound == ref.sigma_b_at_bound
            assert res.quadrature_nodes == ref.quadrature_nodes
            assert res.nfev <= ref.nfev

    def test_same_fit_as_evaluating_every_point(self, monkeypatch):
        # the fit evaluates its model once per distinct |delta|; evaluating
        # every point instead gives the same fit to rounding: the centre
        # node sits at Delta = 0, where p(0, delta) and p(0, -delta) differ
        # by up to 3.1e-15.  The shifted grid has no mirror partners
        shifted = (np.linspace(-1.5, 1.5, 40) + 0.01) * WQ
        for sigma_b, seed, deltas in [(18e-9, 0, self.DELTAS),
                                      (50e-9, 3, self.DELTAS),
                                      (150e-9, 0, self.DELTAS),
                                      (0.0, 2, self.DELTAS),
                                      (18e-9, 0, shifted)]:
            counts = simulate_counts(reference_system(),
                                     NoiseModel(sigma_b=sigma_b), deltas,
                                     TAU, 300, np.random.default_rng(seed))
            res = fit_spectrum(deltas, counts, 300, self.CONFIG)
            with monkeypatch.context() as m:
                m.setattr(inference, "_distinct_magnitudes",
                          lambda d: (d, np.arange(len(d))))
                ref = fit_spectrum(deltas, counts, 300, self.CONFIG)
            assert (res.nfev, res.quadrature_nodes) == (
                ref.nfev, ref.quadrature_nodes)
            assert abs(res.omega_q - ref.omega_q) <= 1e-9 * ref.omega_q_err
            assert abs(res.sigma_b - ref.sigma_b) <= 1e-9 * ref.sigma_b_err
            assert res.chi2_reduced == pytest.approx(ref.chi2_reduced,
                                                     rel=1e-12, abs=0)
            for key in ("omega_q_err", "sigma_b_err"):
                assert getattr(res, key) == pytest.approx(getattr(ref, key),
                                                          rel=1e-10, abs=0)

    @pytest.mark.parametrize("deltas_hz", [
        np.tile([-800.0, 800.0], 5),    # fitted at 972 +- 11 Hz
        np.full(10, 150.0),             # fitted at 0 +- 3.2e18 Hz
    ], ids=["two-mirrored", "one-detuning"])
    def test_fewer_than_three_magnitudes_are_rejected(self, deltas_hz):
        # the model is even in delta, so these scans have one distinct
        # |delta| to determine two parameters
        counts = np.full(len(deltas_hz), 150)
        with pytest.raises(InvalidInputError, match="3 distinct"):
            fit_spectrum(TWO_PI * deltas_hz, counts, 300, self.CONFIG)

    @pytest.mark.parametrize("tau", [0.0, -1.2e-3, math.nan, math.inf])
    def test_probe_time_must_be_positive(self, tau):
        with pytest.raises(InvalidInputError, match="probe time"):
            FitConfig(tau=tau)

    def test_mirrored_spectrum_gives_the_same_fit(self):
        # at Delta = 0 node x at delta mirrors node -x at -delta, so negating
        # and reversing the detunings, with the counts reversed, leaves chi^2
        # unchanged.  chi2_nu and the errors are sums over the points, and
        # the centre node keeps the mirror only to rounding (p(0, delta) and
        # p(0, -delta) differ by up to 3.1e-15), so they are held to 1e-14
        counts = simulate_counts(reference_system(), NoiseModel(sigma_b=50e-9),
                                 self.DELTAS, TAU, 300, np.random.default_rng(3))
        fit = fit_spectrum(self.DELTAS, counts, 300, self.CONFIG)
        mirrored = fit_spectrum(-self.DELTAS[::-1], counts[::-1], 300, self.CONFIG)
        assert (mirrored.nfev, mirrored.quadrature_nodes) == (
            fit.nfev, fit.quadrature_nodes)
        for key in ("omega_q", "sigma_b"):
            assert getattr(mirrored, key) == pytest.approx(getattr(fit, key),
                                                           rel=2e-15, abs=0)
        for key in ("chi2_reduced", "omega_q_err", "sigma_b_err"):
            assert getattr(mirrored, key) == pytest.approx(getattr(fit, key),
                                                           rel=1e-14, abs=0)

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

    @pytest.mark.parametrize("shots", [300.6, 0, -1, math.nan])
    def test_shots_follow_the_rule_of_simulate_counts(self, monkeypatch, shots):
        # the fit took 300.6, reporting shots: 301, where simulate_counts
        # rejects it; each point is checked, before any eigh
        per_point = np.full(40, 300.0)
        per_point[5] = shots
        points = count_pairs(monkeypatch)
        for value in (shots, per_point):
            with pytest.raises(InvalidInputError, match="shots"):
                fit_spectrum(self.DELTAS, np.full(40, 150), value, self.CONFIG)
            with pytest.raises(InvalidInputError, match="shots"):
                simulate_counts(reference_system(), NoiseModel(sigma_b=18e-9),
                                self.DELTAS, TAU, value, np.random.default_rng(0))
        assert points == []

    def test_shots_of_the_wrong_length_are_rejected(self, monkeypatch):
        # the fit raised numpy's ValueError from broadcasting 39 values to 40
        points = count_pairs(monkeypatch)
        with pytest.raises(InvalidInputError, match="one shots value per point"):
            fit_spectrum(self.DELTAS, np.full(40, 150), np.full(39, 300), self.CONFIG)
        with pytest.raises(InvalidInputError, match="one shots value per point"):
            simulate_counts(reference_system(), NoiseModel(sigma_b=18e-9),
                            self.DELTAS, TAU, np.full(39, 300), np.random.default_rng(0))
        assert points == []

    @pytest.mark.parametrize("detunings, counts", [
        (1.0, 3.0), (np.zeros((2, 40)), np.zeros((2, 40))),
        (np.zeros(40), np.zeros(39)),
    ], ids=["0-D", "2-D", "mismatched"])
    def test_inputs_must_be_one_dimensional_of_one_shape(self, monkeypatch,
                                                         detunings, counts):
        # 0-D raised a bare TypeError, and the 80 points of the 2-D scan
        # were rejected as "need at least 8 data points"
        points = count_pairs(monkeypatch)
        with pytest.raises(InvalidInputError, match=re.escape(
                f"not {np.shape(detunings)} and {np.shape(counts)}")):
            fit_spectrum(detunings, counts, 300, self.CONFIG)
        assert points == []

    def test_counts_outside_zero_to_shots_are_rejected(self):
        # 450/300 and -20/300 "fitted" at 1.30 omega_q with chi2_nu = 166
        rng = np.random.default_rng(0)
        good = simulate_counts(reference_system(), NoiseModel(sigma_b=18e-9),
                               self.DELTAS, TAU, 300, rng)
        for bad in ({5: 450, 7: -20}, {5: 301}, {7: -1}):
            counts = good.copy()
            for i, c in bad.items():
                counts[i] = c
            with pytest.raises(InvalidInputError, match="between 0 and shots"):
                fit_spectrum(self.DELTAS, counts, 300, self.CONFIG)
        shots = np.full(40, 300)
        shots[5] = 450
        counts = good.copy()
        counts[5], counts[7] = 450, 0
        fit_spectrum(self.DELTAS, counts, shots, self.CONFIG)   # the bounds


class TestObjective:
    """The weights of the fit's residuals, which chi^2 and the Jacobian share."""

    def test_variance_floor_holds_in_chi2_and_in_the_jacobian(self):
        # with 4 shots the floor 1/(4N) = 1/16 holds the variance of 14 of
        # the 40 points, those off the lines; chi^2 weights them by the
        # floor, and the Jacobian's variance term vanishes on it
        deltas, shots = TestFitSpectrum.DELTAS, np.full(40, 4.0)
        counts = simulate_counts(reference_system(), NoiseModel(sigma_b=18e-9),
                                 deltas, TAU, 4, np.random.default_rng(0))
        objective = inference._Objective(deltas, counts / shots, shots, TAU)
        x = np.array([WQ, 18.0])
        p = objective.p(x, 25)
        per_shot = p * (1.0 - p)
        assert np.sum(per_shot < 0.0625) == 14
        want = np.sum((counts / 4 - p) ** 2 / (np.maximum(per_shot, 0.0625) / 4))
        assert objective.chi2(p) == pytest.approx(want, rel=1e-12)
        assert np.array_equal(objective.chi2(np.stack([p, 1.0 - p])),
                              [objective.chi2(p), objective.chi2(1.0 - p)])
        r, jac = objective.residuals(x, 25)
        assert np.sum(r ** 2) == pytest.approx(want, rel=1e-12)
        for col in (0, 1):
            step = np.zeros(2)
            step[col] = 1e-5 * x[col]
            central = (objective.residuals(x + step, 25)[0]
                       - objective.residuals(x - step, 25)[0]) / (2 * step[col])
            assert np.max(np.abs(central - jac[:, col])) <= (
                1e-6 * np.max(np.abs(jac[:, col])))


class TestDistinctMagnitudes:
    """The |delta| the fit evaluates its model at, and each point's index."""

    @staticmethod
    def group(deltas):
        magnitudes, where = inference._distinct_magnitudes(np.asarray(deltas))
        assert np.all(np.diff(magnitudes) > 0)
        assert np.max(np.abs(magnitudes[where] - np.abs(deltas))) <= (
            8 * np.spacing(np.max(np.abs(deltas))))
        return magnitudes, where

    @pytest.mark.parametrize("points, distinct", [(40, 20), (41, 21),
                                                  (201, 101)])
    def test_linspace_grid_is_its_own_mirror(self, points, distinct):
        deltas = np.linspace(-1.5, 1.5, points) * WQ
        assert len(self.group(deltas)[0]) == distinct
        # the CLI's path: written in Hz, read back and multiplied by 2 pi
        hz = (deltas / TWO_PI).tolist()
        read = TWO_PI * np.array([float(repr(d)) for d in hz])
        assert len(self.group(read)[0]) == distinct

    def test_repeated_point_merges(self):
        magnitudes, where = self.group(np.array([1.0, -2.0, 1.0, 3.0]) * WQ)
        assert np.array_equal(magnitudes, np.array([1.0, 2.0, 3.0]) * WQ)
        assert where.tolist() == [0, 1, 0, 2]

    def test_magnitudes_16_ulps_apart_stay_distinct(self):
        big = 1.5 * WQ
        deltas = np.array([-big, big + 16 * np.spacing(big), 0.5 * WQ])
        assert len(self.group(deltas)[0]) == 3

    def test_grid_without_mirror_partners_keeps_every_point(self):
        deltas = (np.linspace(-1.5, 1.5, 40) + 0.01) * WQ
        magnitudes, where = self.group(deltas)
        assert len(magnitudes) == 40
        assert sorted(where.tolist()) == list(range(40))


class TestLeastSquares:
    """The fit's projected Levenberg-Marquardt on problems with known answers."""

    A = np.array([[1.0, 0.0], [1.0, 1.0], [1.0, 2.0], [1.0, 3.0]])

    def linear(self, b):
        return lambda x: (self.A @ x - b, self.A)

    def test_interior_optimum_is_the_normal_equations(self):
        b = np.array([1.0, 3.0, 5.2, 6.9])
        sol = inference._least_squares(self.linear(b), [10.0, 10.0], 50)
        exact = np.linalg.solve(self.A.T @ self.A, self.A.T @ b)
        assert sol.status == 4      # ftol and xtol on the same step
        assert np.allclose(sol.x, exact, rtol=1e-7)
        assert not sol.at_bound
        assert np.array_equal(sol.jac, self.A)

    def test_bound_holds_the_second_parameter_at_zero(self):
        # the unconstrained optimum has a negative slope; on x[1] = 0 the
        # best intercept is the mean of b.  Iterates stay inside the bound.
        b = np.array([4.0, 3.0, 2.1, 0.8])
        sol = inference._least_squares(self.linear(b), [1.0, 1.0], 50)
        assert sol.status in (1, 2, 3, 4)
        assert sol.at_bound and 0.0 < sol.x[1] <= 1e-8
        assert sol.x[0] == pytest.approx(np.mean(b), rel=1e-7)
        assert sol.cost == pytest.approx(0.5 * np.sum((b - np.mean(b)) ** 2))

    def test_interior_optimum_past_a_vanishing_column(self):
        # r depends on x[1] through x[1]**2, as the fit's residuals depend on
        # sigma_B, so the column of J vanishes at x[1] = 0; the first step
        # from x[1] = 5 would cross the bound, and an iterate on it would stay
        def fun(x):
            u = x[1] ** 2
            return (np.array([x[0] - 1.0, (u - 1.0) / (u + 1.0)]),
                    np.array([[1.0, 0.0], [0.0, 4.0 * x[1] / (u + 1.0) ** 2]]))

        sol = inference._least_squares(fun, [3.0, 5.0], 50)
        assert sol.status == 3      # xtol alone
        assert np.allclose(sol.x, [1.0, 1.0], rtol=1e-7)
        assert not sol.at_bound

    def test_evaluation_limit_returns_status_zero(self):
        calls = []

        def fun(x):
            calls.append(x)
            return np.array([np.exp(x[0]) - 2.0, x[1] - 1.0]), np.diag(
                [np.exp(x[0]), 1.0])

        sol = inference._least_squares(fun, [5.0, 5.0], 3)
        assert sol.status == 0
        assert len(calls) == 3

    def test_zero_residual_at_the_start_stops_on_gtol(self):
        b = self.A @ np.array([2.0, 0.5])
        sol = inference._least_squares(self.linear(b), [2.0, 0.5], 50)
        assert sol.status == 1
        assert sol.cost == 0.0 and np.array_equal(sol.x, [2.0, 0.5])

    @staticmethod
    def counted(rise, limit=60):
        """rise, recording its arguments, failing past `limit` calls (a
        root-finder that cannot shrink its bracket would loop forever)."""
        calls = []

        def wrapped(s):
            calls.append(s)
            assert len(calls) <= limit, "the bracket stopped shrinking"
            return rise(s)
        return wrapped, calls

    def test_upper_limit_halves_a_lower_end_kept_twice(self):
        # a concave rise keeps the lower end in plain regula falsi, so the
        # Illinois step must halve f_lo for the bracket to close
        rise, calls = self.counted(lambda s: 3.0 * math.sqrt(s))
        assert inference._upper_limit(rise, 0.0, 1.0) == pytest.approx(
            1.0 / 9.0, abs=1e-4)
        assert len(calls) <= 15

    def test_upper_limit_returns_an_exact_root(self):
        # linear rise: after the doubling bracket [1, 2] the secant lands on 1.5
        rise, calls = self.counted(lambda s: s)
        assert inference._upper_limit(rise, 0.0, 1.5) == 1.5
        assert calls == [1.0, 2.0, 1.5]

    def test_upper_limit_finds_the_crossing(self):
        calls = []

        def rise(s):
            calls.append(s)
            return ((s - 2.0) / 7.0) ** 2

        limit = inference._upper_limit(rise, 2.0, 1.0)
        assert limit == pytest.approx(9.0, abs=1e-4)
        assert len(calls) <= 12

    def test_upper_limit_needs_a_rising_chi2(self):
        with pytest.raises(FitError, match="does not rise"):
            inference._upper_limit(lambda s: 0.0, 0.0, 1.0)

    @pytest.mark.parametrize("bound_active", [False, True])
    def test_zero_omega_q_column_is_a_degenerate_covariance(self, bound_active):
        # chi^2 flat in omega_q: no omega_q error exists, bound or not
        jac = np.array([[0.0, 1.0], [0.0, 2.0], [0.0, 3.0]])
        with pytest.raises(FitError, match="degenerate covariance"):
            inference._fit_errors(jac, 10.0, bound_active, 1.0)


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

    def test_mean_matches_numpy(self):
        # the mean is taken without numpy: bit-equal to np.mean below 8
        # values, which every caller passes, and within 1e-15 above
        rng = np.random.default_rng(0)
        for _ in range(2000):
            n = int(rng.integers(1, 8))
            values = list(rng.normal(WQ, 300.0, n) * 10.0 ** rng.integers(-3, 4))
            assert combine_runs(values, [1.0] * n)[0] == float(np.mean(values))
        for n in range(8, 101):
            values = list(rng.uniform(1e3, 2e4, n))
            assert combine_runs(values, [1.0] * n)[0] == pytest.approx(
                np.mean(values), rel=1e-15, abs=0)

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

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_input(self, bad):
        # the CLI exited 0 with NaN or Infinity in its JSON
        trap = TestExtractTheta.BA_TRAP
        calls = [
            lambda: combine_runs([bad], [20.0]),
            lambda: combine_runs([1700.0], [bad]),
            lambda: combine_runs([1700.0], [20.0], drift_error=bad),
            lambda: extract_theta(bad, 0.0, trap),
            lambda: extract_theta(TWO_PI * 1700.0, bad, trap),
        ]
        for call in calls:
            with pytest.raises(InvalidInputError, match="finite"):
                call()
