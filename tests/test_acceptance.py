"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
report lines.
"""

import math
import random
import time

import numpy as np
import pytest

from trapquad.angular import EulerAngles, HalfInt, wigner_3j, wigner_6j, wigner_D2
from trapquad.coupling import LevelSpec, hq_matrix
from trapquad.dynamics import (
    RwaSystem,
    build_rwa_hamiltonian,
    default_detuning_grid,
    dressed_splitting,
    find_spectrum_peaks,
    floquet_oracle_from_rwa,
    propagate,
)
from trapquad.effects import (
    ZeemanConfig,
    clock_shift,
    hyperfine_average,
    offresonant_zeeman_shift,
    orientation_f1,
    orientation_f2,
    resonant_coupling,
    shift_decomposition,
    sideband_index,
)
from trapquad.coupling import HyperfineState
from trapquad.inference import (
    FitConfig,
    NoiseModel,
    combine_runs,
    extract_theta,
    fit_spectrum,
    noise_averaged_signal,
    simulate_counts,
)
from trapquad.species import load_species
from trapquad.trap import CODATA2018, TrapConfig

from exact_wigner import exact_3j, exact_6j

TWO_PI = 2 * math.pi


def report(num: int, message: str) -> None:
    print(f"\nACCEPTANCE {num}: PASS - {message}")


@pytest.fixture(scope="module")
def lu():
    return load_species("lu176")


@pytest.fixture(scope="module")
def lu_trap(lu):
    return TrapConfig.ideal_linear(lu.mass_kg, TWO_PI * 33e6, TWO_PI * 1e6)


def test_criterion_1_theta_extraction():
    start = time.perf_counter()
    trap = TrapConfig.ideal_linear(
        137.905 * CODATA2018.atomic_mass, TWO_PI * 20.585e6, TWO_PI * 943e3,
        omega_s_unc=TWO_PI * 17e3,
    )
    est = extract_theta(TWO_PI * 1694.0, TWO_PI * 35.0, trap)
    elapsed = time.perf_counter() - start
    assert abs(est.theta - 3.229) / 3.229 < 0.005
    assert abs(est.error - 0.089) / 0.089 < 0.10
    assert elapsed < 1.0
    report(1, f"theta = {est.theta:.4f}({est.error:.4f}) e*a0^2 "
              f"vs 3.229(89), {elapsed * 1e3:.0f} ms")


def test_criterion_2_coupling_scale(lu, lu_trap):
    omega_q = abs(lu_trap.epsilon * 1.77 * CODATA2018.e_a0_squared
                  / CODATA2018.hbar)
    assert TWO_PI * 1.9e3 <= omega_q <= TWO_PI * 2.1e3
    report(2, f"eps*Theta/hbar = 2*pi x {omega_q / TWO_PI:.0f} Hz in "
              "[1.9, 2.1] kHz")


def test_criterion_3_resonant_coupling(lu, lu_trap):
    level = lu.level("3D2")
    trap = lu_trap.with_orientation(EulerAngles(math.pi / 4, math.pi / 2))
    values = []
    for m_to in (1, -1):
        amp = resonant_coupling(
            level, HyperfineState(5, m_to), HyperfineState(5, 0), trap
        )
        values.append(abs(amp) / TWO_PI)
        assert abs(abs(amp) / TWO_PI - 140.0) <= 3.0
    report(3, f"|Omega_Q| = 2*pi x {values[0]:.1f} Hz within 140 +- 3 Hz "
              "(unit orientation factor)")


def test_criterion_4_autler_townes_structure():
    start = time.perf_counter()
    wq = TWO_PI * 1.7e3
    sys_on = RwaSystem(wq, 0.05 * wq, 0.0, 0.0)
    grid = default_detuning_grid(wq, 801)
    scan = noise_averaged_signal(sys_on, NoiseModel(0.0), grid,
                                 math.pi / sys_on.omega_0)
    peaks = find_spectrum_peaks(scan)
    want = dressed_splitting(wq)
    assert len(peaks) == 2
    assert abs(peaks[0] + want) < 0.01 * want
    assert abs(peaks[1] - want) < 0.01 * want

    sys_off = RwaSystem(wq, 0.05 * wq, 0.5 * wq, 0.0)
    scan_off = noise_averaged_signal(sys_off, NoiseModel(0.0), grid,
                                     math.pi / sys_off.omega_0)
    n_off = len(find_spectrum_peaks(scan_off))
    assert n_off == 3
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    report(4, f"two lines at +-{peaks[1] / wq:.4f} wq (sqrt(7)/5 = "
              f"{want / wq:.4f}), triplet at Delta = 0.5 wq, "
              f"{elapsed:.2f} s for two 801-point scans")


def test_criterion_5_table_parameters(lu, lu_trap):
    targets = {
        "1S0-3D1": (1.28e-19, -0.199),
        "1S0-3D2": (-0.90e-19, -0.197),
        "1S0-1D2": (2.34e-23, -0.212),
    }
    summary = []
    for label, (a_want, eta_want) in targets.items():
        dec = shift_decomposition(lu.transition(label), lu_trap)
        assert abs(dec.a - a_want) / abs(a_want) < 0.05, label
        assert abs(dec.eta - eta_want) < 0.01, label
        summary.append(f"{label}: a={dec.a:.3e}, eta={dec.eta:.3f}")

    beta = math.acos(1 / math.sqrt(3))
    for alpha in np.linspace(0.0, TWO_PI, 181):
        ang = EulerAngles(alpha, beta)
        got = orientation_f2(ang) - 0.2 * orientation_f1(ang)
        assert abs(got - (3 + math.cos(4 * alpha)) / 10) < 1e-12
    report(5, "; ".join(summary) + "; magic-angle identity exact to 1e-12")


def test_criterion_6_modulation_index(lu, lu_trap):
    level = lu.level("3D2")
    trap = lu_trap.with_orientation(EulerAngles(0.0, math.pi / 2))
    worst = max(
        abs(sideband_index(level, f, s.m, trap))
        for f in level.f_values()
        for s in level.manifold(f)
    )
    assert worst < 1e-4
    report(6, f"worst-case modulation index {worst:.2e} < 1e-4")


def test_criterion_7_property_suites(lu, lu_trap):
    start = time.perf_counter()

    # H_Q hermiticity and per-manifold trace for random configurations
    rng = random.Random(17)
    levels = [
        LevelSpec(0, 2.5, 3.229, label="I=0 J=5/2"),
        LevelSpec(7, 1, 1.32, label="I=7 J=1"),
        LevelSpec(7, 2, -1.77, label="I=7 J=2"),
    ]
    for level in levels:
        for _ in range(3):
            trap = TrapConfig(
                omega_rf=TWO_PI * 20e6, mass=2.9e-25,
                A=rng.uniform(-1e9, 1e9), epsilon=rng.uniform(-1e9, 1e9),
                orientation=EulerAngles(rng.uniform(0, TWO_PI),
                                        rng.uniform(0, math.pi)),
            )
            mat = hq_matrix(level, trap, level.f_values())
            scale = max(np.abs(mat.amplitude).max(), 1.0)
            assert np.allclose(mat.amplitude, mat.amplitude.conj().T,
                               atol=1e-12 * scale, rtol=0)
            for f in level.f_values():
                tr = sum(mat.element(s, s).real for s in level.manifold(f))
                assert abs(tr) <= 1e-12 * scale

    # 3j/6j against the exact rational oracle, j up to 10
    rng = random.Random(23)
    done = 0
    while done < 150:
        tj1, tj2 = rng.randint(0, 20), rng.randint(0, 20)
        tj3 = rng.randint(abs(tj1 - tj2), min(tj1 + tj2, 20))
        if (tj1 + tj2 + tj3) % 2:
            continue
        tm1 = rng.randrange(-tj1, tj1 + 1, 2) if tj1 else 0
        tm2 = rng.randrange(-tj2, tj2 + 1, 2) if tj2 else 0
        tm3 = -tm1 - tm2
        if abs(tm3) > tj3 or (tj3 - tm3) % 2:
            continue
        got = wigner_3j(tj1 / 2, tj2 / 2, tj3 / 2, tm1 / 2, tm2 / 2, tm3 / 2)
        want = exact_3j(tj1, tj2, tj3, tm1, tm2, tm3)
        assert abs(got - want) <= 1e-12 * max(1.0, abs(want))
        done += 1
    for _ in range(100):
        tj = [rng.randint(0, 20) for _ in range(6)]
        got = wigner_6j(*(t / 2 for t in tj))
        want = exact_6j(*tj)
        assert abs(got - want) <= 1e-12 * max(1.0, abs(want))

    # rank-2 rotation unitarity and the closed-form combinations
    rng = random.Random(29)
    for _ in range(40):
        ang = EulerAngles(rng.uniform(0, TWO_PI), rng.uniform(0, math.pi))
        mat = np.array([[wigner_D2(mp, m, ang) for m in range(-2, 3)]
                        for mp in range(-2, 3)])
        assert np.max(np.abs(mat @ mat.conj().T - np.eye(5))) < 1e-12
        c, s = math.cos(ang.beta), math.sin(ang.beta)
        c2a, s2a = math.cos(2 * ang.alpha), math.sin(2 * ang.alpha)
        q2 = {mp: mat[2 + mp, 4] + mat[2 + mp, 0] for mp in range(-2, 3)}
        assert abs(q2[0] - math.sqrt(1.5) * s * s * c2a) < 1e-12
        for pm in (1, -1):
            assert abs(q2[pm] - (-pm) * (c * s * c2a + 1j * pm * s * s2a)) < 1e-12
            assert abs(q2[2 * pm] - (0.5 * (1 + c * c) * c2a
                                     + 1j * pm * c * s2a)) < 1e-12
        assert abs(mat[2, 2] - (3 * c * c - 1) / 2) < 1e-12

    # off-resonant shift antisymmetry in m
    level = lu.level("3D2")
    zee = ZeemanConfig.from_splitting(1.2, TWO_PI * 100e3)
    trap = lu_trap.with_orientation(EulerAngles(0.9, 0.6))
    for f in level.f_values():
        for tm in range(2, f.twice + 1, 2):
            m = HalfInt.from_twice(tm)
            up = offresonant_zeeman_shift(level, f, m, trap, zee)
            dn = offresonant_zeeman_shift(level, f, HalfInt.from_twice(-tm), trap, zee)
            assert abs(up + dn) <= 1e-12 * max(abs(up), 1e-30)

    # dm = 0 clock-shift cancellation under hyperfine averaging
    quad_trap = TrapConfig.ideal_quadrupole(lu.mass_kg, TWO_PI * 33e6,
                                            TWO_PI * 1e6)
    for term in ("3D1", "3D2"):
        lv = lu.level(term)
        shifts = {f: clock_shift(lv, f, quad_trap) for f in lv.f_values()}
        scale = max(abs(v) for v in shifts.values())
        assert abs(hyperfine_average(shifts, lv)) <= 1e-12 * scale

    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    report(7, f"hermiticity/trace, 3j/6j oracle, rotation identities, "
              f"antisymmetry and dm=0 cancellation in {elapsed:.1f} s")


def test_criterion_8_rwa_validation():
    start = time.perf_counter()
    wq = TWO_PI * 1.7e3
    omega_rf = TWO_PI * 20.585e6
    tau = 1.2e-3
    sys = RwaSystem(wq, math.pi / tau, 0.0, -0.5 * wq)
    p_rwa = propagate(build_rwa_hamiltonian(sys), tau)
    p_orc = floquet_oracle_from_rwa(sys, omega_rf, tau)
    diff = float(np.max(np.abs(p_rwa - p_orc)))
    elapsed = time.perf_counter() - start
    assert diff < 1e-2
    assert elapsed < 300.0
    report(8, f"RWA vs explicit cos-drive populations agree to {diff:.1e} "
              f"at wq/Omega_rf = {wq / omega_rf:.1e} in {elapsed:.0f} s")


def test_criterion_9_fit_round_trip():
    wq_true = TWO_PI * 1.70e3
    sigma_true = 18e-9
    tau = 1.2e-3
    deltas = np.linspace(-1.5, 1.5, 40) * wq_true
    config = FitConfig(tau=tau)
    sys = RwaSystem(wq_true, math.pi / tau, 0.0, 0.0)
    noise = NoiseModel(sigma_b=sigma_true)

    hits = 0
    for seed in range(20):
        rng = np.random.default_rng(seed)
        counts = simulate_counts(sys, noise, deltas, tau, 300, rng)
        res = fit_spectrum(deltas, counts, 300, config)
        if (abs(res.omega_q - wq_true) <= 2 * res.omega_q_err
                and abs(res.sigma_b - sigma_true) <= 2 * res.sigma_b_err):
            hits += 1
    assert hits >= 19  # at least 95% of 20 seeded runs

    mean, err = combine_runs([1708.0, 1662.0, 1713.0], [24.0, 19.0, 16.0],
                             drift_error=24.0)
    assert round(mean) == 1694
    # the reference 35 Hz rounds from unrounded components; the quadrature of
    # the rounded inputs must land within that rounding window
    assert 33.2 <= err <= 35.5
    report(9, f"{hits}/20 seeded fits recover both parameters within 2 "
              f"standard errors; combined runs give {mean:.0f}({err:.0f}) Hz "
              "vs 1694(35)")
