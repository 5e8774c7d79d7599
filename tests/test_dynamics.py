import math
import tracemalloc

import direct_drive
import numpy as np
import pytest

import trapquad.dynamics as dynamics
from trapquad.dynamics import (
    IDX_D12,
    IDX_D52,
    IDX_DM32,
    IDX_S,
    PEAK_HEIGHT,
    PEAK_PROMINENCE,
    RwaSystem,
    SpectrumScan,
    build_rwa_hamiltonian,
    default_detuning_grid,
    dressed_splitting,
    find_spectrum_peaks,
    floquet_oracle_from_rwa,
    propagate,
    transfer_probabilities,
)
from trapquad.errors import IntegrationError, InvalidInputError
from trapquad.inference import NoiseModel, noise_averaged_signal

TWO_PI = 2 * math.pi
WQ = TWO_PI * 1.7e3
NOISELESS = NoiseModel(sigma_b=0.0)   # a spectrum without field noise


class TestBuildRwaHamiltonian:
    def test_zero_quadrupole_leaves_rabi_block(self):
        sys = RwaSystem(0.0, 2.0, 0.7, 0.3)
        h = build_rwa_hamiltonian(sys)
        rabi = h[np.ix_([IDX_D12, IDX_S], [IDX_D12, IDX_S])]
        assert np.allclose(rabi, [[0.0, 1.0], [1.0, 0.3]])
        # D,+5/2 and D,-3/2 decouple
        assert h[IDX_D52, IDX_D12] == 0.0
        assert h[IDX_DM32, IDX_D12] == 0.0

    def test_coupling_magnitudes(self):
        h = build_rwa_hamiltonian(RwaSystem(1.0, 0.0, 0.0, 0.0))
        assert h[IDX_D52, IDX_D12] == pytest.approx(1 / math.sqrt(10))
        assert h[IDX_D12, IDX_DM32] == pytest.approx(3 / (5 * math.sqrt(2)))

    def test_d_block_eigenvalues_on_resonance(self):
        h = build_rwa_hamiltonian(RwaSystem(WQ, 0.0, 0.0, 0.0))
        evals = np.linalg.eigvalsh(h[:3, :3])
        want = dressed_splitting(WQ)
        assert np.allclose(np.sort(evals), [-want, 0.0, want], atol=1e-9)
        assert want == pytest.approx(math.sqrt(7) / 5 * WQ)

    def test_hermitian_for_random_parameters(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            sys = RwaSystem(*rng.uniform(-1e4, 1e4, size=4))
            h = build_rwa_hamiltonian(sys)
            assert np.allclose(h, h.T)

    @pytest.mark.parametrize("field", range(4))
    def test_rejects_non_finite_parameters(self, field):
        values = [WQ, 0.1 * WQ, 0.0, 0.0]
        values[field] = math.nan
        with pytest.raises(InvalidInputError, match="finite"):
            RwaSystem(*values)

    def test_d_block_trace_identity(self):
        for delta_rf in (0.0, 0.3 * WQ, -0.8 * WQ):
            h = build_rwa_hamiltonian(RwaSystem(WQ, 0.1 * WQ, delta_rf, 0.0))
            assert np.trace(h[:3, :3]) == pytest.approx(0.0, abs=1e-12)


class TestPropagate:
    def test_zero_time_keeps_initial_state(self):
        h = build_rwa_hamiltonian(RwaSystem(WQ, 0.3 * WQ, 0.1 * WQ, 0.0))
        pops = propagate(h, 0.0)
        assert np.allclose(pops, [0, 0, 0, 1], atol=1e-15)

    def test_resonant_pi_pulse(self):
        omega_0 = 0.1 * WQ
        h = build_rwa_hamiltonian(RwaSystem(0.0, omega_0, 0.0, 0.0))
        pops = propagate(h, math.pi / omega_0)
        assert pops[IDX_S] == pytest.approx(0.0, abs=1e-12)
        assert pops[IDX_D12] == pytest.approx(1.0, abs=1e-12)

    def test_populations_sum_to_one(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            sys = RwaSystem(*rng.uniform(-1e4, 1e4, size=4))
            pops = propagate(build_rwa_hamiltonian(sys), rng.uniform(0, 1e-2))
            assert np.sum(pops) == pytest.approx(1.0, abs=1e-12)

    def test_rejects_negative_time(self):
        h = build_rwa_hamiltonian(RwaSystem(WQ, 0.1 * WQ, 0.0, 0.0))
        with pytest.raises(InvalidInputError):
            propagate(h, -1.0)

    @pytest.mark.parametrize("tau", [math.nan, math.inf])
    def test_rejects_non_finite_time(self, tau):
        h = build_rwa_hamiltonian(RwaSystem(WQ, 0.1 * WQ, 0.0, 0.0))
        with pytest.raises(InvalidInputError):
            propagate(h, tau)


class TestScanSpectrum:
    def test_two_peaks_on_resonance(self):
        sys = RwaSystem(WQ, 0.05 * WQ, 0.0, 0.0)
        scan = noise_averaged_signal(sys, NOISELESS, default_detuning_grid(WQ),
                                     math.pi / sys.omega_0)
        peaks = find_spectrum_peaks(scan)
        assert len(peaks) == 2
        want = dressed_splitting(WQ)
        assert abs(peaks[0] + want) < 0.01 * want
        assert abs(peaks[1] - want) < 0.01 * want

    def test_triplet_off_resonance(self):
        sys = RwaSystem(WQ, 0.05 * WQ, 0.5 * WQ, 0.0)
        scan = noise_averaged_signal(sys, NOISELESS, default_detuning_grid(WQ),
                                     math.pi / sys.omega_0)
        assert len(find_spectrum_peaks(scan)) == 3

    def test_peak_count_transition(self):
        counts = []
        for frac in (0.0, 0.25, 0.5):
            sys = RwaSystem(WQ, 0.05 * WQ, frac * WQ, 0.0)
            scan = noise_averaged_signal(sys, NOISELESS, default_detuning_grid(WQ),
                                         math.pi / sys.omega_0)
            counts.append(len(find_spectrum_peaks(scan)))
        assert counts == [2, 3, 3]

    def test_single_rabi_line_without_quadrupole(self):
        omega_0 = 0.05 * WQ
        sys = RwaSystem(0.0, omega_0, 0.0, 0.0)
        scan = noise_averaged_signal(sys, NOISELESS, default_detuning_grid(WQ),
                                     math.pi / omega_0)
        peaks = find_spectrum_peaks(scan)
        assert len(peaks) == 1
        assert abs(peaks[0]) < 0.01 * WQ

    def test_symmetric_at_zero_rf_detuning(self):
        sys = RwaSystem(WQ, 0.05 * WQ, 0.0, 0.0)
        scan = noise_averaged_signal(sys, NOISELESS, default_detuning_grid(WQ),
                                     math.pi / sys.omega_0)
        assert np.allclose(scan.transfer, scan.transfer[::-1], atol=1e-10)
        # the noise average too: nodes +-x pair the mirror images
        # p(-k_D b, delta - k_d b) and p(k_D b, -delta + k_d b), on a grid
        # that is its own mirror image
        half = np.linspace(0.0, 1.5 * WQ, 101)
        grid = np.concatenate([-half[:0:-1], half])
        tau = 1.2e-3
        scan = noise_averaged_signal(RwaSystem(WQ, math.pi / tau, 0.0, 0.0),
                                     NoiseModel(sigma_b=50e-9), grid, tau)
        assert np.max(np.abs(scan.transfer - scan.transfer[::-1])) <= 1e-15

    def test_rejects_bad_grid(self):
        sys = RwaSystem(WQ, 0.05 * WQ, 0.0, 0.0)
        with pytest.raises(InvalidInputError):
            noise_averaged_signal(sys, NOISELESS, np.array([]), 1e-3)
        with pytest.raises(InvalidInputError):
            noise_averaged_signal(sys, NOISELESS, np.array([0.0, 0.0, 1.0]), 1e-3)


class TestTransferProbabilities:
    def test_agrees_with_propagate_on_random_draws(self):
        # the kernel of every spectrum, count and fit against the
        # single-matrix path that the Floquet oracle checks
        rng = np.random.default_rng(2022)
        worst = 0.0
        for _ in range(500):
            omega_q, omega_0, d_rf, d_l = rng.uniform(-1.0, 1.0, 4) * 2.0 * WQ
            tau = rng.uniform(1e-4, 6e-3)
            sys = RwaSystem(omega_q, omega_0, d_rf, d_l)
            want = 1.0 - propagate(build_rwa_hamiltonian(sys), tau)[IDX_S]
            got = transfer_probabilities(omega_q, omega_0, d_rf, d_l, tau)
            worst = max(worst, abs(float(got) - want))
        assert worst <= 1e-13

    def test_large_input_is_diagonalised_in_batches(self):
        # 3 x 23000 pairs: 135 batches of at most 512, stitched in order
        rng = np.random.default_rng(1)
        d_rf, d_l = rng.uniform(-2.0, 2.0, (2, 3, 23000)) * WQ
        whole = transfer_probabilities(WQ, 0.2 * WQ, d_rf, d_l, 1.2e-3)
        rows = [transfer_probabilities(WQ, 0.2 * WQ, r, l, 1.2e-3)
                for r, l in zip(d_rf, d_l)]
        assert whole.shape == (3, 23000)
        assert np.array_equal(whole, np.array(rows))
        # the same p with derivatives
        p, dp = transfer_probabilities(WQ, 0.2 * WQ, d_rf, d_l, 1.2e-3,
                                       derivatives=True)
        assert np.array_equal(p, whole)
        assert dp.shape == (3, 3, 23000)
        _, row_dp = transfer_probabilities(WQ, 0.2 * WQ, d_rf[2], d_l[2],
                                           1.2e-3, derivatives=True)
        assert np.array_equal(dp[:, 2], row_dp)

    @staticmethod
    def random_pairs():
        """10,000 (Delta, delta) pairs over +-2 omega_q, none at 0."""
        return np.random.default_rng(0).uniform(-2.0, 2.0, (2, 10000)) * WQ

    def test_mirror_of_both_detunings(self):
        # H is real and, with G = diag(-1, 1, -1, -1), H(-Delta, -delta) =
        # -G H(Delta, delta) G: the mirror conjugates <S|U|S>, so p is the
        # same bit for bit, dp/d omega_q is even and dp/dDelta, dp/ddelta odd
        d_rf, d_l = self.random_pairs()
        tau = 1.2e-3
        p, dp = transfer_probabilities(WQ, math.pi / tau, d_rf, d_l, tau,
                                       derivatives=True)
        q, dq = transfer_probabilities(WQ, math.pi / tau, -d_rf, -d_l, tau,
                                       derivatives=True)
        assert np.array_equal(p, q)
        assert np.array_equal(
            transfer_probabilities(WQ, math.pi / tau, -d_rf, -d_l, tau), p)
        scale = np.max(np.abs(dp), axis=1)
        assert np.all(scale > 0.0)
        assert np.max(np.abs(dq[0] - dp[0])) <= 2e-15 * scale[0]
        for k in (1, 2):
            assert np.max(np.abs(dq[k] + dp[k])) <= 2e-15 * scale[k]

    def test_even_in_omega_q(self):
        # D = diag(-1, 1, -1, 1) flips both quadrupole couplings and nothing
        # else: p is even in omega_q and dp/d omega_q odd, bit for bit
        d_rf, d_l = self.random_pairs()
        tau = 1.2e-3
        p, dp = transfer_probabilities(WQ, math.pi / tau, d_rf, d_l, tau,
                                       derivatives=True)
        q, dq = transfer_probabilities(-WQ, math.pi / tau, d_rf, d_l, tau,
                                       derivatives=True)
        assert np.array_equal(p, q)
        assert np.array_equal(
            transfer_probabilities(-WQ, math.pi / tau, d_rf, d_l, tau), p)
        assert np.array_equal(dq[0], -dp[0])
        assert np.array_equal(dq[1:], dp[1:])

    def test_omega_q_broadcasts_with_the_detunings(self):
        omegas = np.array([0.5, 1.0, 1.5])[:, None] * WQ
        grid = np.linspace(-2.0, 2.0, 7) * WQ
        batched = transfer_probabilities(omegas, 0.2 * WQ, 0.1 * WQ, grid, 1.2e-3)
        assert batched.shape == (3, 7)
        for row, wq in zip(batched, omegas[:, 0]):
            assert np.array_equal(row, transfer_probabilities(
                wq, 0.2 * WQ, 0.1 * WQ, grid, 1.2e-3))

    @staticmethod
    def central_differences(omega_q, d_rf, d_l, tau, step):
        """Central differences of the transfer in omega_q, Delta and delta."""
        def p(*shift):
            return transfer_probabilities(omega_q + shift[0], 0.3 * WQ,
                                          d_rf + shift[1], d_l + shift[2], tau)
        return np.array([(p(*e) - p(*-e)) / (2 * step)
                         for e in np.eye(3) * step])

    def test_derivatives_match_central_differences(self):
        rng = np.random.default_rng(4)
        d_rf, d_l = rng.uniform(-2.0, 2.0, (2, 200)) * WQ
        tau = 1.2e-3
        p, dp = transfer_probabilities(WQ, 0.3 * WQ, d_rf, d_l, tau,
                                       derivatives=True)
        assert np.array_equal(
            p, transfer_probabilities(WQ, 0.3 * WQ, d_rf, d_l, tau))
        fd = self.central_differences(WQ, d_rf, d_l, tau, 1e-5 * WQ)
        for exact, central in zip(dp, fd):
            assert np.max(np.abs(exact - central)) <= 1e-6 * np.max(np.abs(exact))

    def test_derivatives_at_a_degenerate_point(self):
        # omega_q = 0 and Delta = 0: |D,5/2> and |D,-3/2> share the
        # eigenvalue 0 exactly, where the divided difference takes its limit
        d_l = np.array([0.0, 0.2, -0.7, 1.3]) * WQ
        d_rf = np.zeros_like(d_l)
        tau = math.pi / (0.3 * WQ)
        _, dp = transfer_probabilities(0.0, 0.3 * WQ, d_rf, d_l, tau,
                                       derivatives=True)
        assert np.all(np.isfinite(dp))
        fd = self.central_differences(0.0, d_rf, d_l, tau, 1e-5 * WQ)
        scale = np.max(np.abs(dp[2]))
        assert scale > 0.0
        assert np.max(np.abs(dp - fd)) <= 1e-6 * scale

    @pytest.mark.parametrize("omega_q, omega_0, d_rf, d_l, tau, expected", [
        (WQ, 0.3 * WQ, 0.37 * WQ, -0.81 * WQ, 1.2e-3,
         (0.00012007018407368527, 0.00011048514232337052, 0.00026976727706862485)),
        (0.6 * WQ, 0.2 * WQ, -1.3 * WQ, 0.45 * WQ, 1.2e-3,
         (1.8337801672645435e-06, 1.5575804542096554e-06, -2.3110238652349653e-05)),
        (-1.1 * WQ, 0.5 * WQ, 0.2 * WQ, 1.7 * WQ, 2.5e-3,
         (-4.7091243013093766e-05, 4.4807122791818766e-05, -0.00011663548591315007)),
        (WQ, 0.3 * WQ, 0.0, 0.52 * WQ, 1.2e-3,
         (2.7842008708173257e-06, -8.062573642032825e-06, 5.496741147560991e-06)),
        (WQ, 0.3 * WQ, 0.0, 0.0, 1.2e-3, (5.466607496670898e-05, 0.0, 0.0)),
        (WQ, 0.3 * WQ, 0.4 * WQ, 0.4 * WQ, 1.2e-3,
         (-9.143337175158771e-05, -0.0001386796795126722, 0.0002114393538087877)),
        (WQ, 0.3 * WQ, 0.4 * WQ, -0.4 * WQ, 1.2e-3,
         (-6.245953296112339e-05, -0.00014435430001796153, -8.253738356219172e-05)),
        (0.0, 0.3 * WQ, 0.0, 0.7 * WQ, math.pi / (0.3 * WQ),
         (0.0, 0.0, 4.9748062380253434e-05)),
        (0.0, 4.0 * WQ, 4.0 * WQ, 3.0 * WQ, 1.2e-3, (0.0, 0.0, 0.00021415521304851017)),
    ], ids=["random-1", "random-2", "random-3", "Delta=0", "carrier", "delta=Delta",
            "delta=-Delta", "omega_q=0,Delta=0", "level-crossing"])
    def test_derivatives_agree_with_exact_arithmetic(self, omega_q, omega_0, d_rf,
                                                     d_l, tau, expected):
        # expected: the upper-right block of exp(-i tau [[H, dH], [0, H]]),
        # which is d exp(-i tau H), in 40-digit arithmetic (mpmath.expm) on
        # these very floats.  At the level crossing |D,-3/2> and the upper
        # Rabi state share the eigenvalue 4 omega_q exactly; there dp/d delta
        # is the Rabi formula's, 2.1415521304851034e-04 in closed form
        _, dp = transfer_probabilities(omega_q, omega_0, d_rf, d_l, tau,
                                       derivatives=True)
        assert np.max(np.abs(dp - np.array(expected))) <= 1e-13 * tau

    def test_derivatives_in_any_basis_of_a_degenerate_pair(self, monkeypatch):
        # eigh returns the crossing's pair unmixed, so one of the two has no
        # S weight; in a rotated basis both have, and their kernel entry is
        # the divided difference's limit at lambda_k = lambda_l
        tau = 1.2e-3
        point = (0.0, 4.0 * WQ, 4.0 * WQ, 3.0 * WQ, tau)
        p, dp = transfer_probabilities(*point, derivatives=True)
        eigh = np.linalg.eigh
        cos, sin = math.cos(0.6), math.sin(0.6)

        def mixed(h):
            evals, evecs = eigh(h)
            assert np.all(evals[:, 2] == evals[:, 3])
            out = evecs.copy()
            out[:, :, 2] = cos * evecs[:, :, 2] + sin * evecs[:, :, 3]
            out[:, :, 3] = cos * evecs[:, :, 3] - sin * evecs[:, :, 2]
            assert np.all(out[:, IDX_S, 2:] != 0.0)
            return evals, out

        monkeypatch.setattr(np.linalg, "eigh", mixed)
        q, dq = transfer_probabilities(*point, derivatives=True)
        assert abs(q - p) <= 1e-15
        assert dp[2] > 1e-4
        assert np.max(np.abs(dq - dp)) <= 1e-13 * tau

    @pytest.mark.parametrize("n", [512, 5120])
    @pytest.mark.parametrize("derivatives, bound_mb", [(False, 0.28), (True, 0.35)])
    def test_working_memory_is_bounded(self, n, derivatives, bound_mb):
        # the traced peak beyond the outputs (the 1-D detunings and the
        # scalar omega_q are used as views, not copied): the batches of 512
        # bound it whatever the number of pairs
        d_rf, d_l = np.random.default_rng(3).uniform(-2.0, 2.0, (2, n)) * WQ

        def call():
            return transfer_probabilities(WQ, 0.3 * WQ, d_rf, d_l, 1.2e-3,
                                          derivatives=derivatives)

        call()
        tracemalloc.start()
        try:
            call()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - 8 * n * (1 + 3 * derivatives) <= bound_mb * 2 ** 20


class TestFindSpectrumPeaks:
    """The numpy search reproduces scipy.signal.find_peaks."""

    @staticmethod
    def scans():
        grid = default_detuning_grid(WQ)
        for omega_q, frac in ((WQ, 0.0), (WQ, 0.25), (WQ, 0.5), (0.0, 0.0)):
            sys = RwaSystem(omega_q, 0.05 * WQ, frac * WQ, 0.0)
            yield noise_averaged_signal(sys, NOISELESS, grid, math.pi / sys.omega_0)

    def test_agrees_with_scipy_on_the_test_spectra(self):
        from scipy.signal import find_peaks

        for scan in self.scans():
            idx, _ = find_peaks(scan.transfer, height=PEAK_HEIGHT,
                                prominence=PEAK_PROMINENCE)
            assert np.array_equal(find_spectrum_peaks(scan), scan.detunings[idx])

    def test_agrees_with_scipy_on_plateaus_and_noise(self):
        from scipy.signal import find_peaks

        # plateaus drawn from levels where a line can sit exactly on each
        # threshold: 0.15 is PEAK_HEIGHT, and 0.16 - 0.11 == PEAK_PROMINENCE
        levels = np.array([0.0, 0.11, 0.15, 0.16, 0.2, 0.5, 1.0])
        assert levels[2] == PEAK_HEIGHT and levels[3] - levels[1] == PEAK_PROMINENCE
        rng = np.random.default_rng(3)
        on_height = on_prominence = 0
        for trial in range(200):
            n = int(rng.integers(3, 40))
            y = (levels[rng.integers(0, len(levels), n)] if trial % 2
                 else rng.uniform(0.0, 1.0, n))
            scan = SpectrumScan(np.arange(n, dtype=float), y)
            idx, found = find_peaks(y, height=PEAK_HEIGHT, prominence=PEAK_PROMINENCE)
            assert np.array_equal(find_spectrum_peaks(scan), idx)
            on_height += np.count_nonzero(found["peak_heights"] == PEAK_HEIGHT)
            on_prominence += np.count_nonzero(found["prominences"] == PEAK_PROMINENCE)
        assert on_height and on_prominence   # both edges are lines here


class TestFloquetOracle:
    OMEGA_RF = TWO_PI * 3e6
    WQ_TEST = TWO_PI * 20e3  # drive/coupling ratio 150
    PERIOD = math.pi / OMEGA_RF

    def test_agrees_with_rwa_across_detuning_grid(self):
        # 3x3 grid over (Omega_0, Delta): the gap closes as wq/Omega_rf
        for ratio in (150, 1500, 12000):
            omega_rf = ratio * self.WQ_TEST
            for omega_frac in (0.2, 0.35, 0.5):
                for delta_frac in (0.0, 0.25, 0.5):
                    sys = RwaSystem(self.WQ_TEST, omega_frac * self.WQ_TEST,
                                    delta_frac * self.WQ_TEST,
                                    0.3 * self.WQ_TEST)
                    tau = math.pi / sys.omega_0
                    p_rwa = propagate(build_rwa_hamiltonian(sys), tau)
                    p_orc = floquet_oracle_from_rwa(sys, omega_rf, tau)
                    assert np.max(np.abs(p_rwa - p_orc)) * ratio < 0.5

    @pytest.mark.parametrize("periods, fracs", [
        (300.37, (0.4, 0.2, 0.3)),
        (300.37, (0.3, 0.25, 0.1)),
        (300.37, (0.5, 0.0, -0.2)),
        (0.6, (0.4, 0.2, 0.0)),     # shorter than one period
        (200, (0.4, 0.2, 0.0)),     # whole periods
    ])
    def test_agrees_with_direct_integration(self, periods, fracs):
        sys = RwaSystem(self.WQ_TEST, *(f * self.WQ_TEST for f in fracs))
        tau = periods * self.PERIOD
        p_orc = floquet_oracle_from_rwa(sys, self.OMEGA_RF, tau)
        p_ref = direct_drive.populations(sys, self.OMEGA_RF, tau)
        assert np.max(np.abs(p_orc - p_ref)) <= 1e-9

    def test_reduces_to_rabi_without_quadrupole(self):
        omega_0 = 0.3 * self.WQ_TEST
        delta = 0.2 * self.WQ_TEST
        tau = math.pi / omega_0
        pops = floquet_oracle_from_rwa(RwaSystem(0.0, omega_0, 0.0, delta),
                                       self.OMEGA_RF, tau)
        eff = math.hypot(omega_0, delta)
        p_transfer = (omega_0 / eff) ** 2 * math.sin(eff * tau / 2) ** 2
        assert pops[IDX_D12] == pytest.approx(p_transfer, abs=1e-8)
        assert pops[IDX_S] == pytest.approx(1 - p_transfer, abs=1e-8)

    def test_time_reversal(self):
        sys = RwaSystem(self.WQ_TEST, 0.4 * self.WQ_TEST, 0.2 * self.WQ_TEST, 0.0)
        y0 = np.zeros(4, dtype=complex)
        y0[IDX_S] = 1.0
        tau = math.pi / sys.omega_0
        mid = direct_drive.integrate_state(sys, self.OMEGA_RF, y0, 0.0, tau)
        back = direct_drive.integrate_state(sys, self.OMEGA_RF, mid, tau, 0.0)
        assert np.max(np.abs(back - y0)) < 1e-8
        p_orc = floquet_oracle_from_rwa(sys, self.OMEGA_RF, tau)
        assert np.max(np.abs(p_orc - np.abs(mid) ** 2)) <= 1e-9

    def test_stays_unitary_over_ten_million_periods(self):
        # a 0.59 s probe at the experiment's drive: 2.4e7 periods, past
        # which a matrix power of the one-period propagator drifted by 2e-9
        wq, omega_rf, tau = TWO_PI * 1.7e3, TWO_PI * 20.585e6, 0.59
        sys = RwaSystem(wq, math.pi / tau, 0.0, -0.5 * wq)
        p_orc = floquet_oracle_from_rwa(sys, omega_rf, tau)
        assert abs(float(np.sum(p_orc)) - 1.0) <= 1e-12
        p_rwa = propagate(build_rwa_hamiltonian(sys), tau)
        assert np.max(np.abs(p_rwa - p_orc)) * omega_rf / wq < 0.5

    def test_enforces_drive_ratio(self):
        # the |D,1/2>:|D,-3/2> cos amplitude 6 wq/(5 sqrt 2) sets the ratio
        wq = 1e5 / 100.0 / (6.0 / (5.0 * math.sqrt(2.0)))
        for factor, omega_0 in ((1.001, 0.0), (1.0, 2e3)):
            with pytest.raises(InvalidInputError):
                floquet_oracle_from_rwa(RwaSystem(factor * wq, omega_0), 1e5, 1e-4)
        with pytest.raises(InvalidInputError):
            floquet_oracle_from_rwa(RwaSystem(0.0, 0.0), 1e5, 1e-4)
        assert floquet_oracle_from_rwa(RwaSystem(wq, 0.0), 1e5, 1e-4)[IDX_S] == 1.0

    @pytest.mark.parametrize("omega_rf", [0.0, -1e7, math.nan, math.inf])
    def test_rejects_bad_drive_frequency(self, omega_rf):
        with pytest.raises(InvalidInputError):
            floquet_oracle_from_rwa(RwaSystem(1e3, 1e3), omega_rf, 1e-4)

    @pytest.mark.parametrize("tau", [0.0, -1e-4, math.nan, math.inf])
    def test_rejects_bad_probe_time(self, tau):
        with pytest.raises(InvalidInputError):
            floquet_oracle_from_rwa(RwaSystem(1e3, 1e3), self.OMEGA_RF, tau)

    @pytest.mark.parametrize("ratio, tau, expected", [
        (150, 1.0, (0.084924193357, 0.027244467138, 0.208525196420, 0.679306143085)),
        (12000, 0.1, (0.034158889476, 0.004099365205, 0.015089004307, 0.946652741011)),
        (12000, 1.0, (0.064907002904, 0.015328283044, 0.181778944465, 0.737985769587)),
        (1e6, 1e-3, (0.000468844172, 0.056464661734, 0.135913724055, 0.807152770038)),
    ])
    def test_agrees_with_exact_arithmetic_on_long_probes(self, ratio, tau, expected):
        # expected: the same Floquet propagator, with 4 to 6 harmonics, in
        # 40-digit arithmetic (mpmath.eigsy).  A 1 s probe at drive ratio 12000
        # spans 5e8 rf periods, over which the eigenvalues of H_F itself, good
        # to 1e-16 of |H_F|, put phase errors of 1e-8 into the populations; at
        # ratio 1e6 the same error rotates the Floquet states by 1e-10.
        sys = RwaSystem(self.WQ_TEST, 0.3 * self.WQ_TEST, 0.1 * self.WQ_TEST,
                        0.2 * self.WQ_TEST)
        p_orc = floquet_oracle_from_rwa(sys, ratio * self.WQ_TEST, tau)
        assert np.max(np.abs(p_orc - expected)) <= 1e-10
        assert abs(float(np.sum(p_orc)) - 1.0) <= 1e-12

    def test_non_unitary_propagation_is_a_failure(self, monkeypatch):
        eigh = np.linalg.eigh

        def leaky(h):
            evals, evecs = eigh(h)
            return evals, evecs * (1.0 + 1e-8)

        monkeypatch.setattr(np.linalg, "eigh", leaky)
        sys = RwaSystem(self.WQ_TEST, 0.4 * self.WQ_TEST, 0.2 * self.WQ_TEST, 0.0)
        with pytest.raises(IntegrationError, match="unitarity"):
            floquet_oracle_from_rwa(sys, self.OMEGA_RF, 10.5 * self.PERIOD)

    def test_doubles_the_harmonics_until_two_agree_to_1e_10(self, monkeypatch):
        # at drive ratio 150 the populations move by 1.3e-7 from 1 to 2
        # harmonics and by 1e-12 from 2 to 4
        harmonics = []
        populations = dynamics._floquet_populations

        def counted(static, upper, omega, tau, k):
            harmonics.append(k)
            return populations(static, upper, omega, tau, k)

        monkeypatch.setattr(dynamics, "_floquet_populations", counted)
        sys = RwaSystem(self.WQ_TEST, 0.35 * self.WQ_TEST, 0.0, 0.3 * self.WQ_TEST)
        floquet_oracle_from_rwa(sys, 150 * self.WQ_TEST, math.pi / sys.omega_0)
        assert harmonics == [1, 2, 4]

    def test_failed_integration_is_a_failure(self, monkeypatch):
        # at drive ratio 150 the populations move by 1.3e-7 from 1 to 2
        # harmonics and by 1e-12 from 2 to 4, so 4 harmonics converge
        sys = RwaSystem(self.WQ_TEST, 0.35 * self.WQ_TEST, 0.0, 0.3 * self.WQ_TEST)
        omega_rf, tau = 150 * self.WQ_TEST, math.pi / sys.omega_0
        expected = floquet_oracle_from_rwa(sys, omega_rf, tau)
        monkeypatch.setattr(dynamics, "_MAX_HARMONICS", 4)
        assert np.array_equal(floquet_oracle_from_rwa(sys, omega_rf, tau), expected)
        for cap in (1, 2):
            monkeypatch.setattr(dynamics, "_MAX_HARMONICS", cap)
            with pytest.raises(IntegrationError, match="unconverged"):
                floquet_oracle_from_rwa(sys, omega_rf, tau)
