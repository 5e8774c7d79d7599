import itertools
import math
import random
from dataclasses import replace

import numpy as np
import pytest

from trapquad.angular import EulerAngles, HalfInt
from trapquad.coupling import (HyperfineState, LevelSpec, c2_coefficient, hq_matrix,
                               table_index)
from trapquad.effects import (
    ClockTransition,
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
from trapquad.errors import InvalidInputError, ResonanceError
from trapquad.species import load_species
from trapquad.trap import CODATA2018, TrapConfig

TWO_PI = 2 * math.pi
WORST_CASE = EulerAngles(0.0, math.pi / 2)  # sin^2(beta)*cos(2 alpha) = 1


@pytest.fixture(scope="module")
def lu():
    return load_species("lu176")


@pytest.fixture(scope="module")
def lu_trap(lu):
    return TrapConfig.ideal_linear(lu.mass_kg, TWO_PI * 33e6, TWO_PI * 1e6)


def omega_q_of(level, trap) -> float:
    return (trap.epsilon * level.theta_e_a02 * CODATA2018.e_a0_squared
            / CODATA2018.hbar)


class TestSidebandIndex:
    def test_vanishes_at_beta_zero(self, lu, lu_trap):
        level = lu.level("3D2")
        assert sideband_index(level, 5, 3, lu_trap) == 0.0

    def test_matches_closed_form(self, lu, lu_trap):
        # beta_Q = (m omega_s / (hbar e sqrt(2))) C2 Theta sin^2(beta) cos(2 alpha)
        level = lu.level("3D2")
        ang = EulerAngles(0.4, 1.1)
        trap = lu_trap.with_orientation(ang)
        factor = math.sin(ang.beta) ** 2 * math.cos(2 * ang.alpha)
        for f, m in ((5, 5), (7, 2), (9, -9)):
            want = (trap.epsilon * c2_coefficient(level, f, m) *
                    level.theta_e_a02 * CODATA2018.e_a0_squared * factor /
                    (CODATA2018.hbar * trap.omega_rf))
            assert sideband_index(level, f, m, trap) == pytest.approx(
                want, rel=1e-12, abs=1e-18
            )

    def test_worst_case_below_1e4(self, lu, lu_trap):
        level = lu.level("3D2")
        trap = lu_trap.with_orientation(WORST_CASE)
        worst = max(
            abs(sideband_index(level, f, s.m, trap))
            for f in level.f_values()
            for s in level.manifold(f)
        )
        # frozen from direct evaluation; the stretched F=9 state saturates
        # C2 = 1, so the worst index is ~eps*Theta/(hbar*Omega_rf)
        assert worst == pytest.approx(6.100675527778512e-05, rel=1e-9)
        assert worst < 1e-4


class TestResonantCoupling:
    def test_dm1_vanishes_at_beta_zero(self, lu, lu_trap):
        level = lu.level("3D2")
        amp = resonant_coupling(
            level, HyperfineState(5, 1), HyperfineState(5, 0), lu_trap
        )
        assert abs(amp) < 1e-20

    def test_dm2_orientation_modulus_one_at_beta_zero(self, lu, lu_trap):
        level = lu.level("3D2")
        base = abs(resonant_coupling(
            level, HyperfineState(5, 2), HyperfineState(5, 0),
            lu_trap.with_orientation(EulerAngles(0.0, 0.0)),
        ))
        for alpha in np.linspace(0, TWO_PI, 9):
            amp = resonant_coupling(
                level, HyperfineState(5, 2), HyperfineState(5, 0),
                lu_trap.with_orientation(EulerAngles(alpha, 0.0)),
            )
            assert abs(amp) == pytest.approx(base, rel=1e-12)

    def test_lu_f5_coupling_is_141_hz(self, lu, lu_trap):
        # |5,0> -> |5,+-1> with unit orientation factor (beta=pi/2, alpha=pi/4)
        level = lu.level("3D2")
        trap = lu_trap.with_orientation(EulerAngles(math.pi / 4, math.pi / 2))
        for m_to in (1, -1):
            amp = resonant_coupling(
                level, HyperfineState(5, m_to), HyperfineState(5, 0), trap
            )
            want = (math.sqrt(2 / 3) * abs(omega_q_of(level, trap))
                    * math.sqrt(5) / 26)
            assert abs(amp) == pytest.approx(want, rel=1e-12)
            assert abs(amp) / TWO_PI == pytest.approx(141.3, abs=1.0)

    def test_alpha_plus_pi_invariance(self, lu, lu_trap):
        level = lu.level("3D2")
        rng = random.Random(2)
        for _ in range(5):
            alpha, beta = rng.uniform(0, TWO_PI), rng.uniform(0, math.pi)
            pairs = [(HyperfineState(5, 2), HyperfineState(5, 0)),
                     (HyperfineState(6, 1), HyperfineState(5, 0))]
            for bra, ket in pairs:
                a0 = resonant_coupling(
                    level, bra, ket, lu_trap.with_orientation(EulerAngles(alpha, beta))
                )
                a1 = resonant_coupling(
                    level, bra, ket,
                    lu_trap.with_orientation(EulerAngles(alpha + math.pi, beta)),
                )
                assert abs(a1) == pytest.approx(abs(a0), rel=1e-12, abs=1e-18)

    def test_dm0_rejected(self, lu, lu_trap):
        level = lu.level("3D2")
        with pytest.raises(InvalidInputError):
            resonant_coupling(
                level, HyperfineState(5, 1), HyperfineState(6, 1), lu_trap
            )


class TestOffResonantShift:
    def test_antisymmetric_in_m(self, lu, lu_trap, ba_d52):
        zee = ZeemanConfig.from_splitting(1.2, TWO_PI * 100e3)
        trap = lu_trap.with_orientation(EulerAngles(0.3, 0.9))
        for level in (lu.level("3D2"), ba_d52):
            f = level.f_values()[-1]
            for tm in range(2 - f.twice % 2, f.twice + 1, 2):
                m = HalfInt.from_twice(tm)
                up = offresonant_zeeman_shift(level, f, m, trap, zee)
                dn = offresonant_zeeman_shift(level, f, HalfInt.from_twice(-tm), trap, zee)
                assert up == pytest.approx(-dn, rel=1e-12, abs=1e-30)

    def test_m0_shift_vanishes(self, lu, lu_trap):
        zee = ZeemanConfig.from_splitting(1.2, TWO_PI * 100e3)
        trap = lu_trap.with_orientation(EulerAngles(0.3, 0.9))
        level = lu.level("3D2")
        assert offresonant_zeeman_shift(level, 6, 0, trap, zee) == pytest.approx(
            0.0, abs=1e-20
        )

    def test_quadratic_in_epsilon(self, lu, lu_trap):
        zee = ZeemanConfig.from_splitting(1.2, TWO_PI * 100e3)
        level = lu.level("3D2")
        t1 = TrapConfig(omega_rf=lu_trap.omega_rf, mass=lu_trap.mass,
                        epsilon=lu_trap.epsilon,
                        orientation=EulerAngles(0.3, 0.9))
        t2 = TrapConfig(omega_rf=lu_trap.omega_rf, mass=lu_trap.mass,
                        epsilon=2 * lu_trap.epsilon,
                        orientation=EulerAngles(0.3, 0.9))
        s1 = offresonant_zeeman_shift(level, 5, 3, t1, zee)
        s2 = offresonant_zeeman_shift(level, 5, 3, t2, zee)
        assert s2 == pytest.approx(4 * s1, rel=1e-12)

    def test_odd_polynomial_in_m(self, lu, lu_trap):
        # shifts across a manifold fit m and m^3 terms, with no residual
        zee = ZeemanConfig.from_splitting(1.2, TWO_PI * 100e3)
        trap = lu_trap.with_orientation(EulerAngles(1.0, 0.7))
        level = lu.level("3D2")
        f = 7
        ms = np.arange(-7, 8)
        shifts = np.array([
            offresonant_zeeman_shift(level, f, int(m), trap, zee) for m in ms
        ])
        design = np.vstack([ms, ms**3]).T
        coef, *_ = np.linalg.lstsq(design, shifts, rcond=None)
        resid = shifts - design @ coef
        assert np.max(np.abs(resid)) < 1e-10 * np.max(np.abs(shifts))

    def test_fractional_scale_below_1e8(self, lu, lu_trap):
        # worst fractional modification of the Zeeman splitting, |dE|/omega_z,
        # frozen from direct evaluation at omega_z = 2*pi*100 kHz
        zee = ZeemanConfig.from_splitting(1.2, TWO_PI * 100e3)
        trap = lu_trap.with_orientation(WORST_CASE)
        level = lu.level("3D2")
        worst = max(
            abs(offresonant_zeeman_shift(level, f, s.m, trap, zee)) / zee.omega_z
            for f in level.f_values()
            for s in level.manifold(f)
        )
        assert worst == pytest.approx(1.025530685176944e-10, rel=1e-9)
        assert worst < 1e-8

    def test_resonance_guard(self, lu, lu_trap):
        # a Zeeman interval dm*omega_z on the drive raises only where that
        # channel couples: a linear trap at beta = 0 has no |dm| = 1 coupling
        level = lu.level("3D2")
        for dm, angles, coupled in ((2, (0.3, 0.9), True), (1, (0.3, 0.9), True),
                                    (1, (0.0, 0.0), False)):
            zee = ZeemanConfig.from_splitting(1.2, lu_trap.omega_rf / dm)
            trap = lu_trap.with_orientation(EulerAngles(*angles))
            if coupled:
                with pytest.raises(ResonanceError, match=f"\\|dm\\|={dm} "):
                    offresonant_zeeman_shift(level, 5, 3, trap, zee)
            else:
                assert math.isfinite(offresonant_zeeman_shift(level, 5, 3, trap, zee))

    @pytest.mark.parametrize("angles", [(0.3, 0.9), (2.2, 1.4)])
    @pytest.mark.parametrize("term", ["Lu+ 3D2", "Ba+ D5/2"])
    def test_matches_explicit_second_order_sum(self, lu, lu_trap, ba_d52,
                                               term, angles):
        # every state against the sum over its hq_matrix column, element by element
        level = lu.level("3D2") if term == "Lu+ 3D2" else ba_d52
        trap = lu_trap.with_orientation(EulerAngles(*angles))
        zee = ZeemanConfig.from_splitting(1.2, TWO_PI * 100e3)
        w_z, w_rf = zee.omega_z, trap.omega_rf
        for f in level.f_values():
            h_q = hq_matrix(level, trap, [f])
            for ket in h_q.basis:
                terms = [0.5 * abs(h_q.element(bra, ket)) ** 2 * w_z * dm
                         / ((w_z * dm) ** 2 - w_rf**2)
                         for bra in h_q.basis
                         if (dm := (bra.m.twice - ket.m.twice) // 2) != 0]
                want = -sum(terms)
                got = offresonant_zeeman_shift(level, f, ket.m, trap, zee)
                assert got == pytest.approx(
                    want, rel=1e-12, abs=1e-12 * max(map(abs, terms)))


def seeded_traps(lu_trap) -> list[TrapConfig]:
    """The linear trap at three seeded orientations, and at the first of them
    with A != 0."""
    rng = np.random.default_rng(41)
    traps = [lu_trap.with_orientation(EulerAngles(float(rng.uniform(0, TWO_PI)),
                                                  float(rng.uniform(0, math.pi))))
             for _ in range(3)]
    return [*traps, replace(traps[0], A=0.4 * lu_trap.epsilon)]


class TestPerStateReadsMatchHqMatrix:
    # every per-state result is its formula over the whole hq_matrix, to the
    # last bit, whatever a cache holds or a read leaves behind: in Python
    # floats, and each sum math.fsum's over the whole column, whose entries
    # outside the state's partners add exact zeros
    @pytest.fixture(params=["Ba+ D5/2", "3D1", "3D2", "1D2"])
    def level(self, request, lu, ba_d52):
        return ba_d52 if request.param == "Ba+ D5/2" else lu.level(request.param)

    @staticmethod
    def whole(level, trap):
        mat = hq_matrix(level, trap, level.f_values())
        return mat.basis, mat.amplitude

    def test_sideband_index_is_the_diagonal(self, level, lu_trap):
        for trap in seeded_traps(lu_trap):
            basis, h = self.whole(level, trap)
            got = [sideband_index(level, s.F, s.m, trap) for s in basis]
            assert got == [float(h[k, k].real) / trap.omega_rf
                           for k in range(len(basis))]

    def test_resonant_coupling_is_the_element(self, level, lu_trap):
        for trap in seeded_traps(lu_trap):
            basis, h = self.whole(level, trap)
            for i, bra in enumerate(basis):
                for k, ket in enumerate(basis):
                    if abs(bra.m.twice - ket.m.twice) in (2, 4):
                        assert resonant_coupling(level, bra, ket, trap) == complex(h[i, k])

    @pytest.mark.parametrize("term", ["3D1", "3D2", "1D2"])
    def test_clock_shift_is_the_column_sum(self, lu, lu_trap, term):
        level = lu.level(term)
        energy = level.hyperfine_energies_hz
        for trap in seeded_traps(lu_trap):
            basis, h = self.whole(level, trap)
            for f in level.f_values():
                k = basis.index(HyperfineState(f, 0))
                terms = []
                for s, amp in zip(basis, h[:, k].tolist()):
                    mod_hz = abs(amp / TWO_PI)
                    weight = 0.0 if s.F == f else 0.5 / (energy[s.F] - energy[f])
                    terms.append(mod_hz * mod_hz * weight)
                assert clock_shift(level, f, trap) == -math.fsum(terms)

    def test_offresonant_shift_is_the_column_sum(self, level, lu_trap):
        # the whole column, masked to the partners: the rows outside k-2..k+2
        # the shift reads must add nothing; for g_F > 0 and g_F < 0, and at
        # beta = 0, where the linear trap's |dm| = 1 couplings are zero
        up = ZeemanConfig.from_splitting(1.2, TWO_PI * 100e3)
        untilted = lu_trap.with_orientation(EulerAngles(0.4, 0.0))
        for trap, zee in itertools.product(
                [*seeded_traps(lu_trap), untilted],
                [up, ZeemanConfig(g_f=-1.2, b_field=up.b_field)]):
            basis, h = self.whole(level, trap)
            for k, ket in enumerate(basis):
                terms = []
                for s, amp in zip(basis, h[:, k].tolist()):
                    dm, mod2 = (s.m.twice - ket.m.twice) // 2, abs(amp) * abs(amp)
                    if s.F == ket.F and dm != 0 and mod2 != 0.0:
                        split = zee.omega_z * dm
                        terms.append(-0.5 * mod2 * split
                                     / (split * split - trap.omega_rf**2))
                got = offresonant_zeeman_shift(level, ket.F, ket.m, trap, zee)
                assert got == math.fsum(terms), (ket, trap.orientation)


@pytest.mark.parametrize("term", ["Lu+ 3D2", "Ba+ D5/2"])
@pytest.mark.parametrize("call", [
    lambda level, f, trap: sideband_index(level, f, f, trap),
    lambda level, f, trap: resonant_coupling(
        level, HyperfineState(f, f), HyperfineState(f, f - 1), trap),
    lambda level, f, trap: offresonant_zeeman_shift(
        level, f, f, trap, ZeemanConfig.from_splitting(1.2, TWO_PI * 100e3)),
    lambda level, f, trap: c2_coefficient(level, f, f),
    lambda level, f, trap: clock_shift(level, f, trap),
], ids=["sideband_index", "resonant_coupling", "offresonant_zeeman_shift",
        "c2_coefficient", "clock_shift"])
def test_f_outside_the_level_is_named(lu, lu_trap, ba_d52, term, call):
    level, f, message = ((lu.level("3D2"), 4, "F=4 invalid for I=7, J=2")
                         if term == "Lu+ 3D2" else
                         (ba_d52, 1.5, "F=3/2 invalid for I=0, J=5/2"))
    with pytest.raises(InvalidInputError, match=message):
        call(level, f, lu_trap)


@pytest.mark.parametrize("form", ["HalfInt", "number"])
def test_per_state_reads_build_no_half_int(lu, lu_trap, monkeypatch, form):
    # F and m go in as HalfInts from f_values() and manifold, or as plain
    # numbers; a warm read of either builds no HalfInt (two a read before
    # the reads took twice-values)
    level, trap = lu.level("3D2"), lu_trap.with_orientation(EulerAngles(0.4, 1.1))
    zeeman = ZeemanConfig.from_splitting(1.2, TWO_PI * 100e3)
    fs, states = level.f_values(), level.manifold(7) + level.manifold(8)
    value = (lambda x: x) if form == "HalfInt" else (lambda x: x.twice / 2)

    def reads():
        for f in fs:
            clock_shift(level, value(f), trap)
        for bra, ket in zip(states, states[1:]):
            F, m = value(bra.F), value(bra.m)
            table_index(level, F, m)
            sideband_index(level, F, m, trap)
            offresonant_zeeman_shift(level, F, m, trap, zeeman)
            c2_coefficient(level, F, m)
            if bra.F == ket.F:   # dm = 1
                resonant_coupling(level, bra, ket, trap)

    reads()
    built, init, from_twice = [], HalfInt.__init__, HalfInt.from_twice
    monkeypatch.setattr(HalfInt, "__init__",
                        lambda self, v: built.append(v) or init(self, v))
    monkeypatch.setattr(HalfInt, "from_twice",
                        classmethod(lambda cls, t: built.append(t) or from_twice(t)))
    reads()
    assert built == []


class TestClockShift:
    def test_single_dominant_coupling(self):
        # quadrupole trap at beta=0 keeps only dm=0 couplings; check the sum
        # for a clock state against a manual one-term-per-level evaluation
        level = LevelSpec(1, 1, 1.0, hyperfine_energies_hz={0: -2e9, 1: 0.0, 2: 3e9},
                          label="synthetic")
        trap = TrapConfig.ideal_quadrupole(2.9e-25, TWO_PI * 33e6, TWO_PI * 1e6)
        got = clock_shift(level, 1, trap)
        want = 0.0
        ket = HyperfineState(1, 0)
        h_q = hq_matrix(level, trap, [0, 1, 2])
        for fp, e in ((0, -2e9), (2, 3e9)):
            bra = HyperfineState(fp, 0)
            amp_hz = h_q.element(bra, ket) / TWO_PI
            want -= abs(amp_hz) ** 2 / (2 * e)
        assert got == pytest.approx(want, rel=1e-12)

    def test_level_repulsion_sign(self):
        # only coupling partner above: the clock state is pushed down
        level = LevelSpec(1, 1, 1.0,
                          hyperfine_energies_hz={0: 1e9, 1: 0.0, 2: 40e9},
                          label="synthetic")
        trap = TrapConfig.ideal_linear(
            2.9e-25, TWO_PI * 33e6, TWO_PI * 1e6,
            orientation=EulerAngles(0.2, 0.8),
        )
        shift_f0 = clock_shift(level, 0, trap)
        assert shift_f0 < 0  # F=0 sits below both partners

    def test_requires_hyperfine_energies(self, lu_trap, lu):
        bare = LevelSpec(7, 2, -1.77, label="bare")
        with pytest.raises(InvalidInputError):
            clock_shift(bare, 5, lu_trap)

    def test_static_limit_warning(self):
        level = LevelSpec(1, 1, 1.0,
                          hyperfine_energies_hz={0: -0.4e8, 1: 0.0, 2: 0.5e8})
        trap = TrapConfig.ideal_linear(2.9e-25, TWO_PI * 33e6, TWO_PI * 1e6,
                                       orientation=EulerAngles(0.2, 0.8))
        with pytest.warns(UserWarning, match="static-limit"):
            clock_shift(level, 1, trap)


class TestHyperfineAverage:
    def test_dm0_only_couplings_average_to_zero(self, lu):
        # beta = 0 quadrupole trap: every coupling is dm = 0
        trap = TrapConfig.ideal_quadrupole(2.92e-25, TWO_PI * 33e6, TWO_PI * 1e6)
        for term in ("3D1", "3D2"):
            level = lu.level(term)
            shifts = {f: clock_shift(level, f, trap) for f in level.f_values()}
            scale = max(abs(v) for v in shifts.values())
            avg = hyperfine_average(shifts, level)
            assert abs(avg) < 1e-12 * scale

    def test_missing_level_rejected(self, lu):
        level = lu.level("3D1")
        with pytest.raises(InvalidInputError, match="missing"):
            hyperfine_average({6: 1.0, 7: 2.0}, level)

    def test_level_with_i_below_j_rejected(self):
        # I = 1/2, J = 2 has two hyperfine levels, not 2J + 1 = 5
        level = LevelSpec(0.5, 2, 1.0, label="I<J")
        with pytest.raises(InvalidInputError, match="I >= J"):
            hyperfine_average({1.5: 1.0, 2.5: 2.0}, level)

    def test_repeated_f_rejected(self):
        # returned 11.0: the "8" entry replaced the 8 entry without a word
        level = LevelSpec(7, 1, 1.0, {6: 1.0, 7: 2.0, 8: 3.0})
        with pytest.raises(InvalidInputError, match="a shift for F=8 more than once"):
            hyperfine_average({6: 1.0, 7: 2.0, 8: 3.0, "8": 30.0}, level)

    @pytest.mark.parametrize("extra, named", [(42, "42"), (6.5, "13/2")])
    def test_f_outside_the_level_rejected(self, lu, extra, named):
        # was dropped without a word, leaving the average unchanged
        level = lu.level("3D2")
        shifts = {f: 1.0 for f in level.f_values()}
        with pytest.raises(InvalidInputError, match=rf"F=\[{named}\]"):
            hyperfine_average({**shifts, extra: 1e9}, level)


class TestClockTransition:
    @pytest.mark.parametrize("frequency", [math.nan, math.inf],
                             ids=["nan", "inf"])
    def test_rejects_non_finite_frequency(self, lu, frequency):
        # was accepted, and shift_decomposition then returned a = nan or 0
        with pytest.raises(InvalidInputError, match="positive and finite"):
            ClockTransition(lu.level("3D2"), frequency)


class TestZeemanConfig:
    @pytest.mark.parametrize("build, g_f, value", [
        # offresonant_zeeman_shift returned nan for these
        ("direct", 1.2, math.nan), ("direct", 1.2, math.inf),
        ("direct", math.nan, 1e-4), ("direct", -math.inf, 1e-4),
        ("from_splitting", 0.0, TWO_PI * 100e3),   # was a ZeroDivisionError
        ("from_splitting", math.nan, TWO_PI * 100e3),
        ("from_splitting", 1.2, math.nan), ("from_splitting", 1.2, math.inf),
    ])
    def test_rejects_non_finite_values(self, build, g_f, value):
        make = ZeemanConfig if build == "direct" else ZeemanConfig.from_splitting
        with pytest.raises(InvalidInputError, match="finite"):
            make(g_f, value)

    def test_zero_g_f_means_no_splitting(self):
        assert ZeemanConfig(0.0, 1e-4).omega_z == 0.0


class TestShiftDecomposition:
    def test_orientation_functions_bounds(self):
        rng = random.Random(8)
        for _ in range(200):
            ang = EulerAngles(rng.uniform(0, TWO_PI), rng.uniform(0, math.pi))
            assert 0.0 <= orientation_f1(ang) <= 1.0
            assert 0.0 <= orientation_f2(ang) <= 1.0

    def test_magic_angle_identity_exact_at_eta_02(self):
        # f2 - 0.2 f1 == (3 + cos(4 alpha))/10 at beta = arccos(1/sqrt(3))
        beta = math.acos(1 / math.sqrt(3))
        for alpha in np.linspace(0, TWO_PI, 41):
            ang = EulerAngles(alpha, beta)
            got = orientation_f2(ang) - 0.2 * orientation_f1(ang)
            want = (3 + math.cos(4 * alpha)) / 10
            assert got == pytest.approx(want, abs=1e-12)

    def test_grid_extremes_are_one_and_eta(self, lu, lu_trap):
        # grids chosen so the extremal orientations (beta=0) and
        # (alpha=pi/4, beta=pi/2) fall exactly on grid points
        dec = shift_decomposition(lu.transition("1S0-3D2"), lu_trap)
        alphas = np.linspace(0, TWO_PI, 65)
        betas = np.linspace(0, math.pi, 65)
        values = [
            orientation_f2(EulerAngles(a, b)) + dec.eta * orientation_f1(EulerAngles(a, b))
            for a in alphas for b in betas
        ]
        assert max(values) == pytest.approx(1.0, abs=1e-9)
        assert min(values) == pytest.approx(dec.eta, abs=1e-9)

    def test_reconstructs_averaged_clock_shift(self, lu, lu_trap):
        rng = random.Random(4)
        for label in ("1S0-3D1", "1S0-3D2", "1S0-1D2"):
            tr = lu.transition(label)
            dec = shift_decomposition(tr, lu_trap)
            for _ in range(3):
                ang = EulerAngles(rng.uniform(0, TWO_PI), rng.uniform(0, math.pi))
                trap = lu_trap.with_orientation(ang)
                avg = hyperfine_average(
                    {f: clock_shift(tr.level, f, trap) for f in tr.level.f_values()},
                    tr.level,
                )
                rec = dec.shift_hz(ang)
                assert rec == pytest.approx(avg, rel=1e-12, abs=1e-30)

    def test_table_values_for_all_three_transitions(self, lu, lu_trap):
        targets = {
            "1S0-3D1": (1.28e-19, -0.199),
            "1S0-3D2": (-0.90e-19, -0.197),
            "1S0-1D2": (2.34e-23, -0.212),
        }
        for label, (a_want, eta_want) in targets.items():
            dec = shift_decomposition(lu.transition(label), lu_trap)
            assert dec.a == pytest.approx(a_want, rel=5e-2)
            assert abs(dec.eta - eta_want) < 0.01

    def test_eta_near_minus_point_two(self, lu, lu_trap):
        for label in ("1S0-3D1", "1S0-3D2", "1S0-1D2"):
            dec = shift_decomposition(lu.transition(label), lu_trap)
            assert -0.22 <= dec.eta <= -0.19

    def test_requires_linear_trap(self, lu):
        trap = TrapConfig.ideal_quadrupole(2.92e-25, TWO_PI * 33e6, TWO_PI * 1e6)
        with pytest.raises(InvalidInputError):
            shift_decomposition(lu.transition("1S0-3D2"), trap)
