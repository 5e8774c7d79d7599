import math

import numpy as np
import pytest

from trapquad.dynamics import (
    IDX_D12,
    IDX_D52,
    IDX_DM32,
    IDX_S,
    RwaSystem,
    build_rwa_hamiltonian,
    default_detuning_grid,
    dressed_splitting,
    find_spectrum_peaks,
    floquet_oracle,
    floquet_oracle_from_rwa,
    integrate_floquet_state,
    propagate,
    scan_spectrum,
    transfer_probabilities,
)
from trapquad.errors import InvalidInputError

TWO_PI = 2 * math.pi
WQ = TWO_PI * 1.7e3


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


class TestScanSpectrum:
    def test_two_peaks_on_resonance(self):
        sys = RwaSystem(WQ, 0.05 * WQ, 0.0, 0.0)
        scan = scan_spectrum(sys, default_detuning_grid(WQ), math.pi / sys.omega_0)
        peaks = find_spectrum_peaks(scan)
        assert len(peaks) == 2
        want = dressed_splitting(WQ)
        assert abs(peaks[0] + want) < 0.01 * want
        assert abs(peaks[1] - want) < 0.01 * want

    def test_triplet_off_resonance(self):
        sys = RwaSystem(WQ, 0.05 * WQ, 0.5 * WQ, 0.0)
        scan = scan_spectrum(sys, default_detuning_grid(WQ), math.pi / sys.omega_0)
        assert len(find_spectrum_peaks(scan)) == 3

    def test_peak_count_transition(self):
        counts = []
        for frac in (0.0, 0.25, 0.5):
            sys = RwaSystem(WQ, 0.05 * WQ, frac * WQ, 0.0)
            scan = scan_spectrum(sys, default_detuning_grid(WQ),
                                 math.pi / sys.omega_0)
            counts.append(len(find_spectrum_peaks(scan)))
        assert counts == [2, 3, 3]

    def test_single_rabi_line_without_quadrupole(self):
        omega_0 = 0.05 * WQ
        sys = RwaSystem(0.0, omega_0, 0.0, 0.0)
        scan = scan_spectrum(sys, default_detuning_grid(WQ), math.pi / omega_0)
        peaks = find_spectrum_peaks(scan)
        assert len(peaks) == 1
        assert abs(peaks[0]) < 0.01 * WQ

    def test_symmetric_at_zero_rf_detuning(self):
        sys = RwaSystem(WQ, 0.05 * WQ, 0.0, 0.0)
        scan = scan_spectrum(sys, default_detuning_grid(WQ), math.pi / sys.omega_0)
        assert np.allclose(scan.transfer, scan.transfer[::-1], atol=1e-10)

    def test_rejects_bad_grid(self):
        sys = RwaSystem(WQ, 0.05 * WQ, 0.0, 0.0)
        with pytest.raises(InvalidInputError):
            scan_spectrum(sys, np.array([]), 1e-3)
        with pytest.raises(InvalidInputError):
            scan_spectrum(sys, np.array([0.0, 0.0, 1.0]), 1e-3)


class TestTransferProbabilities:
    def test_large_input_is_diagonalised_in_batches(self):
        # 3 x 23000 pairs: two batches of at most 65536, stitched in order
        rng = np.random.default_rng(1)
        d_rf, d_l = rng.uniform(-2.0, 2.0, (2, 3, 23000)) * WQ
        whole = transfer_probabilities(WQ, 0.2 * WQ, d_rf, d_l, 1.2e-3)
        rows = [transfer_probabilities(WQ, 0.2 * WQ, r, l, 1.2e-3)
                for r, l in zip(d_rf, d_l)]
        assert whole.shape == (3, 23000)
        assert np.array_equal(whole, np.array(rows))


class TestFloquetOracle:
    OMEGA_RF = TWO_PI * 3e6
    WQ_TEST = TWO_PI * 20e3  # drive/coupling ratio 150

    def test_agrees_with_rwa_across_detuning_grid(self):
        # 3x3 grid over (Omega_0, Delta); tolerance 1e-2 absolute
        for omega_frac in (0.2, 0.35, 0.5):
            for delta_frac in (0.0, 0.25, 0.5):
                sys = RwaSystem(self.WQ_TEST, omega_frac * self.WQ_TEST,
                                delta_frac * self.WQ_TEST, 0.3 * self.WQ_TEST)
                tau = math.pi / sys.omega_0
                p_rwa = propagate(build_rwa_hamiltonian(sys), tau)
                p_orc = floquet_oracle_from_rwa(sys, self.OMEGA_RF, tau)
                assert np.max(np.abs(p_rwa - p_orc)) < 1e-2

    def test_reduces_to_rabi_without_quadrupole(self):
        omega_0 = 0.3 * self.WQ_TEST
        delta = 0.2 * self.WQ_TEST
        tau = math.pi / omega_0
        pops = floquet_oracle(
            self.OMEGA_RF, 0.5 * self.OMEGA_RF, 0.0, 0.0, omega_0, delta, tau
        )
        eff = math.hypot(omega_0, delta)
        p_transfer = (omega_0 / eff) ** 2 * math.sin(eff * tau / 2) ** 2
        assert pops[IDX_D12] == pytest.approx(p_transfer, abs=1e-8)
        assert pops[IDX_S] == pytest.approx(1 - p_transfer, abs=1e-8)

    def test_time_reversal(self):
        sys = RwaSystem(self.WQ_TEST, 0.4 * self.WQ_TEST, 0.2 * self.WQ_TEST, 0.0)
        omega_z = 0.5 * (self.OMEGA_RF - sys.detuning_rf)
        args = (self.OMEGA_RF, omega_z, 2 * sys.omega_q / math.sqrt(10),
                6 * sys.omega_q / (5 * math.sqrt(2)), sys.omega_0, 0.0)
        y0 = np.zeros(4, dtype=complex)
        y0[IDX_S] = 1.0
        tau = math.pi / sys.omega_0
        mid = integrate_floquet_state(*args, y0, 0.0, tau)
        back = integrate_floquet_state(*args, mid, tau, 0.0)
        assert np.max(np.abs(back - y0)) < 1e-8

    def test_enforces_drive_ratio(self):
        with pytest.raises(InvalidInputError):
            floquet_oracle(1e5, 5e4, 5e3, 5e3, 1e3, 0.0, 1e-4)
