import math
import random
from dataclasses import replace

import numpy as np
import pytest

from exact_wigner import exact_3j, exact_6j
from trapquad import coupling
from trapquad.angular import EulerAngles, HalfInt, wigner_3j, wigner_D2, wigner_D2_twice
from trapquad.coupling import (
    HyperfineState,
    LevelSpec,
    amplitude,
    amplitudes,
    c2_coefficient,
    gradient_components,
    hq_matrix,
    reduced_table,
    theta_matrix_element,
)
from trapquad.errors import InvalidInputError
from trapquad.species import BUNDLED, load_species
from trapquad.trap import CODATA2018, TrapConfig

IDENTITY = EulerAngles(0.0, 0.0)


def ladder_squared_element(j: float, m_from: float, steps: int) -> float:
    """|<m_from + steps | J_+^steps or J_-^|steps| | m_from>| via ladder formulas."""
    value = 1.0
    m = m_from
    for _ in range(abs(steps)):
        if steps > 0:
            value *= math.sqrt(j * (j + 1) - m * (m + 1))
            m += 1
        else:
            value *= math.sqrt(j * (j + 1) - m * (m - 1))
            m -= 1
    return value


class TestGradientComponents:
    def test_all_zero(self):
        assert all(v == 0.0 for v in gradient_components(0.0, 0.0).values())

    def test_pure_a(self):
        g = gradient_components(1.0, 0.0)
        assert g[0] == -2.0
        assert g[1] == g[-1] == g[2] == g[-2] == 0.0

    def test_pure_epsilon(self):
        g = gradient_components(0.0, 1.0)
        assert g[2] == pytest.approx(math.sqrt(2 / 3), abs=1e-15)
        assert g[-2] == g[2]
        assert g[0] == g[1] == g[-1] == 0.0


class TestThetaMatrixElement:
    def test_stretched_state_normalisation(self, ba_d52):
        # <JJ|T0|JJ> = Theta by definition of the quadrupole moment
        s = HyperfineState(2.5, 2.5)
        el = theta_matrix_element(ba_d52, s, s, 0, IDENTITY)
        assert el == pytest.approx(3.229, rel=1e-12)

    def test_diagonal_matches_c2_times_d00(self, ba_d52, lu_3d2_bare):
        for level in (ba_d52, lu_3d2_bare):
            for f in level.f_values():
                if f.twice < 1:
                    continue
                angles = EulerAngles(0.9, 0.4)
                d00 = (3 * math.cos(angles.beta) ** 2 - 1) / 2
                for state in level.manifold(f):
                    el = theta_matrix_element(level, state, state, 0, angles)
                    want = (c2_coefficient(level, state.F, state.m)
                            * level.theta_e_a02 * d00)
                    assert el == pytest.approx(want, abs=1e-12)

    def test_ladder_ratio_i0(self, ba_d52):
        # rank-2 tensor components are proportional to J_+-^2 for I = 0;
        # the downward element from m=1/2 is the stronger one
        up = theta_matrix_element(
            ba_d52, HyperfineState(2.5, 2.5), HyperfineState(2.5, 0.5), 2, IDENTITY
        )
        down = theta_matrix_element(
            ba_d52, HyperfineState(2.5, -1.5), HyperfineState(2.5, 0.5), -2, IDENTITY
        )
        got = abs(up) / abs(down)
        want = (ladder_squared_element(2.5, 0.5, 2)
                / ladder_squared_element(2.5, 0.5, -2))
        assert want == pytest.approx(math.sqrt(5) / 3, abs=1e-14)
        assert got == pytest.approx(want, rel=1e-12)

    def test_lu_f5_reduced_factor(self, lu_3d2_bare):
        # |F=5, m=0> -> |5, +-1> carries the factor sqrt(5)/26 of Theta
        bra = HyperfineState(5, 1)
        ket = HyperfineState(5, 0)
        # combined q = +-2 rotation factor has modulus 1 at beta=pi/2, alpha=pi/4
        ang = EulerAngles(math.pi / 4, math.pi / 2)
        el = theta_matrix_element(lu_3d2_bare, bra, ket, 2, ang) + \
            theta_matrix_element(lu_3d2_bare, bra, ket, -2, ang)
        assert abs(el) == pytest.approx(
            math.sqrt(5) / 26 * 1.77, rel=1e-12
        )

    def test_invalid_f_rejected(self, ba_d52):
        with pytest.raises(InvalidInputError):
            theta_matrix_element(
                ba_d52, HyperfineState(1.5, 0.5), HyperfineState(2.5, 0.5), 0,
                IDENTITY,
            )

    def test_beyond_rank_two_is_zero(self, lu_3d2_bare):
        # |dm| = 5 > 2: no rank-2 component connects the states
        el = theta_matrix_element(lu_3d2_bare, HyperfineState(9, 5),
                                  HyperfineState(9, 0), 2, EulerAngles(0.3, 0.7))
        assert el == 0.0j

    def test_invalid_q_rejected(self, ba_d52):
        s = HyperfineState(2.5, 0.5)
        with pytest.raises(InvalidInputError):
            theta_matrix_element(ba_d52, s, s, 3, IDENTITY)


class TestC2Coefficient:
    def test_stretched_is_one(self, ba_d52):
        assert c2_coefficient(ba_d52, 2.5, 2.5) == pytest.approx(1.0, rel=1e-12)

    def test_i0_polynomial_form(self, ba_d52):
        # C2 for I=0 reduces to (3m^2 - J(J+1)) / (J(2J-1))
        j = 2.5
        for tm in range(-5, 6, 2):
            m = tm / 2
            want = (3 * m * m - j * (j + 1)) / (j * (2 * j - 1))
            assert c2_coefficient(ba_d52, j, m) == pytest.approx(want, abs=1e-13)

    def test_trace_free(self, ba_d52, lu_3d2_bare):
        for level in (ba_d52, lu_3d2_bare):
            for f in level.f_values():
                total = sum(
                    c2_coefficient(level, f, s.m) for s in level.manifold(f)
                )
                assert total == pytest.approx(0.0, abs=1e-12)


def random_trap(rng: random.Random, mass: float = 2.3e-25) -> TrapConfig:
    return TrapConfig(
        omega_rf=2 * math.pi * 20e6, mass=mass,
        A=rng.uniform(-1e9, 1e9), epsilon=rng.uniform(-1e9, 1e9),
        orientation=EulerAngles(rng.uniform(0, 2 * math.pi),
                                rng.uniform(0, math.pi)),
    )


class TestHqMatrix:
    def test_zero_fields_zero_matrix(self, ba_d52):
        trap = TrapConfig(omega_rf=1e8, mass=2.3e-25, A=0.0, epsilon=0.0)
        mat = hq_matrix(ba_d52, trap, [2.5])
        assert np.all(mat.amplitude == 0)

    def test_state_outside_basis_is_named(self, ba_d52):
        trap = TrapConfig(omega_rf=1e8, mass=2.3e-25, epsilon=1e9)
        mat = hq_matrix(ba_d52, trap, [2.5])
        with pytest.raises(InvalidInputError, match=r"^\|3/2,1/2> not in basis$"):
            mat.element(HyperfineState(2.5, 0.5), HyperfineState(1.5, 0.5))

    def test_hermitian_and_traceless_random(self, ba_d52):
        rng = random.Random(3)
        levels = [
            ba_d52,
            LevelSpec(7, 1, 0.64, label="I=7 J=1"),
            LevelSpec(7, 2, -1.77, label="I=7 J=2"),
        ]
        for level in levels:
            for _ in range(4):
                trap = random_trap(rng)
                fs = level.f_values()
                mat = hq_matrix(level, trap, fs)
                scale = max(np.abs(mat.amplitude).max(), 1.0)
                assert np.allclose(
                    mat.amplitude, mat.amplitude.conj().T,
                    atol=1e-12 * scale, rtol=0,
                )
                # the rank-2 trace vanishes within every F manifold
                for f in fs:
                    diag = sum(
                        mat.element(s, s).real for s in level.manifold(f)
                    )
                    assert diag == pytest.approx(0.0, abs=1e-12 * scale)

    def test_selection_rules(self, lu_3d2_bare):
        rng = random.Random(11)
        trap = random_trap(rng)
        mat = hq_matrix(lu_3d2_bare, trap, lu_3d2_bare.f_values())
        scale = np.abs(mat.amplitude).max()
        for i, bra in enumerate(mat.basis):
            for k, ket in enumerate(mat.basis):
                dmu = abs(bra.m.twice - ket.m.twice)
                df = abs(bra.F.twice - ket.F.twice)
                if dmu > 4 or df > 4:
                    assert mat.amplitude[i, k] == 0.0

    def test_beta_zero_couples_dmu_q_only(self, ba_d52):
        # linear trap at beta = 0: only |dmu| = 2 entries survive
        trap = TrapConfig(
            omega_rf=1e8, mass=2.3e-25, A=0.0, epsilon=1e9,
            orientation=EulerAngles(0.7, 0.0),
        )
        mat = hq_matrix(ba_d52, trap, [2.5])
        for i, bra in enumerate(mat.basis):
            for k, ket in enumerate(mat.basis):
                if abs(bra.m.twice - ket.m.twice) != 4:
                    assert abs(mat.amplitude[i, k]) < 1e-25

    def test_alpha_rotation_phases_at_beta_zero(self, ba_d52):
        trap0 = TrapConfig(omega_rf=1e8, mass=2.3e-25, epsilon=1e9)
        alpha = 0.37
        trap1 = trap0.with_orientation(EulerAngles(alpha, 0.0))
        m0 = hq_matrix(ba_d52, trap0, [2.5]).amplitude
        m1 = hq_matrix(ba_d52, trap1, [2.5]).amplitude
        mat = hq_matrix(ba_d52, trap0, [2.5])
        for i, bra in enumerate(mat.basis):
            for k, ket in enumerate(mat.basis):
                dmu = (bra.m.twice - ket.m.twice) // 2
                if m0[i, k] == 0:
                    continue
                ratio = m1[i, k] / m0[i, k]
                want = np.exp(1j * dmu * alpha)
                assert ratio == pytest.approx(want, abs=1e-12)
                assert abs(m1[i, k]) == pytest.approx(abs(m0[i, k]), rel=1e-12)

    def test_ba_resonant_couplings_against_omega_q(self, ba_d52):
        # cos amplitudes: 2*wq/sqrt(10) up to m=5/2; 6*wq/(5*sqrt(2)) down to -3/2
        trap = TrapConfig(omega_rf=2 * math.pi * 20.585e6, mass=137.905 *
                          CODATA2018.atomic_mass, epsilon=7.745e8)
        omega_q = (trap.epsilon * 3.229 * CODATA2018.e_a0_squared
                   / CODATA2018.hbar)
        mat = hq_matrix(ba_d52, trap, [2.5])
        up = mat.element(HyperfineState(2.5, 2.5), HyperfineState(2.5, 0.5))
        down = mat.element(HyperfineState(2.5, -1.5), HyperfineState(2.5, 0.5))
        assert abs(up) == pytest.approx(2 * omega_q / math.sqrt(10), rel=1e-12)
        assert abs(down) == pytest.approx(
            6 * omega_q / (5 * math.sqrt(2)), rel=1e-12
        )

    def test_empty_manifold_rejected(self, ba_d52):
        trap = TrapConfig(omega_rf=1e8, mass=2.3e-25, epsilon=1e9)
        with pytest.raises(InvalidInputError):
            hq_matrix(ba_d52, trap, [])


def exact_element(level: LevelSpec, bra: HyperfineState,
                  ket: HyperfineState) -> float:
    """<bra|T|ket> in units of Theta without the rotation factor, element by
    element from the exact-rational 3j and 6j symbols:

      (-1)^(F'+F+I+J+mu') sqrt((2F'+1)(2F+1)) {F F' 2; J J I}
          * (F 2 F'; mu dmu -mu') / (J 2 J; -J 0 J)
    """
    ti, tj = level.nuclear_spin.twice, level.electronic_j.twice
    fp, mup, f, mu = bra.F.twice, bra.m.twice, ket.F.twice, ket.m.twice
    if tj < 2 or abs(mup - mu) > 4:
        return 0.0
    phase = -1.0 if ((fp + f + ti + tj + mup) // 2) % 2 else 1.0
    return (phase * math.sqrt((fp + 1.0) * (f + 1.0))
            * exact_6j(f, fp, 4, tj, tj, ti)
            * exact_3j(f, 4, fp, mu, mup - mu, -mup)
            / exact_3j(tj, 4, tj, -tj, 0, tj))


def exact_hq(level: LevelSpec, trap: TrapConfig, basis) -> np.ndarray:
    """H_Q/hbar (rad/s) summed over q element by element from exact_element."""
    grads = gradient_components(trap.A, trap.epsilon)
    out = np.zeros((len(basis), len(basis)), dtype=complex)
    for i, bra in enumerate(basis):
        for k, ket in enumerate(basis):
            pref = exact_element(level, bra, ket)
            if pref == 0.0:
                continue
            dmu = (bra.m.twice - ket.m.twice) // 2
            out[i, k] = sum(grads[q] * pref * level.theta_e_a02
                            * wigner_D2(dmu, q, trap.orientation) for q in (-2, 0, 2))
    return out * CODATA2018.e_a0_squared / CODATA2018.hbar


def rotation(level: LevelSpec, angles: EulerAngles) -> np.ndarray:
    """Block-diagonal U = exp(i beta F_y) exp(i alpha F_z) over the F blocks
    of the level, in the (F, m ascending) basis order of hq_matrix."""
    blocks = []
    for f in level.f_values():
        m = np.arange(-f.twice, f.twice + 1, 2) / 2.0
        F = f.twice / 2.0
        raise_ = np.diag(np.sqrt(F * (F + 1) - m[:-1] * (m[:-1] + 1)), -1)
        f_y = (raise_ - raise_.T) / 2j
        w, v = np.linalg.eigh(f_y)
        blocks.append((v * np.exp(1j * angles.beta * w)) @ v.conj().T
                      @ np.diag(np.exp(1j * angles.alpha * m)))
    n = sum(len(b) for b in blocks)
    u = np.zeros((n, n), dtype=complex)
    start = 0
    for b in blocks:
        u[start:start + len(b), start:start + len(b)] = b
        start += len(b)
    return u


def dense_reduced(table) -> np.ndarray:
    """The reduced table as a dense matrix, from its columns' nonzero entries."""
    out = np.zeros((len(table.states), len(table.states)))
    for k, (rows, reduced, _) in enumerate(table.columns):
        out[list(rows), k] = reduced
    return out


def paper_levels():
    lu = load_species("lu176")
    ba = load_species("ba138")
    return {"Lu+ 3D2": lu.level("3D2"), "Ba+ D5/2": ba.level("D5/2")}


class TestReducedTable:
    @pytest.mark.parametrize("name", ["Lu+ 3D2", "Ba+ D5/2"])
    def test_rotation_covariance(self, name):
        # H_Q(alpha, beta) = U H_Q(0, 0) U^dagger with U generated by F_z and
        # F_y in the sign convention the d2 closed-form tests lock
        level = paper_levels()[name]
        rng = random.Random(17)
        base = TrapConfig(omega_rf=2 * math.pi * 20e6, mass=2.9e-25,
                          A=rng.uniform(-1e9, 1e9), epsilon=rng.uniform(-1e9, 1e9))
        h0 = hq_matrix(level, base, level.f_values()).amplitude
        for _ in range(4):
            angles = EulerAngles(rng.uniform(0, 2 * math.pi), rng.uniform(0, math.pi))
            got = hq_matrix(level, base.with_orientation(angles), level.f_values())
            u = rotation(level, angles)
            want = u @ h0 @ u.conj().T
            scale = np.max(np.abs(want))
            assert np.max(np.abs(got.amplitude - want)) <= 1e-12 * scale

    def test_matches_exact_element_formula(self, ba_d52, lu_3d2_bare):
        rng = random.Random(23)
        for level in (ba_d52, lu_3d2_bare, LevelSpec(7, 1, 0.64),
                      LevelSpec(1.5, 2.5, 2.1), LevelSpec(2, 0.5, 1.0)):
            table = reduced_table(level)
            want = np.array([[exact_element(level, bra, ket) for ket in table.states]
                             for bra in table.states])
            assert np.max(np.abs(dense_reduced(table) - want)) <= 1e-13
            trap = random_trap(rng)
            mat = hq_matrix(level, trap, level.f_values())
            ref = exact_hq(level, trap, mat.basis)
            assert mat.basis == table.states
            assert np.max(np.abs(mat.amplitude - ref)) <= 1e-12 * max(np.max(np.abs(ref)), 1.0)

    @pytest.mark.parametrize("species", BUNDLED)
    def test_hq_matrix_is_the_element_reads_bit_for_bit(self, species):
        # numpy takes Theta * reduced * c[channel] for hq_matrix, Python for
        # `amplitude`: the same bits, and the same sign of every zero, at
        # beta = 0 (where the |dmu| = 1 channels vanish), at a tilt, and in a
        # trap with A = 0
        rng = random.Random(47)
        for level in load_species(species).levels.values():
            for trap in (random_trap(rng).with_orientation(EulerAngles(0.0, 0.0)),
                         random_trap(rng), replace(random_trap(rng), A=0.0)):
                h = hq_matrix(level, trap, level.f_values()).amplitude
                reads = np.array([[amplitude(level, trap, i, k) for k in range(len(h))]
                                  for i in range(len(h))])
                for got, want in ((h.real, reads.real), (h.imag, reads.imag)):
                    assert np.array_equal(got, want)
                    assert np.array_equal(np.signbit(got), np.signbit(want))

    def test_sub_manifold_is_a_block_of_the_level(self, lu_3d2_bare):
        trap = random_trap(random.Random(5))
        whole = hq_matrix(lu_3d2_bare, trap, lu_3d2_bare.f_values())
        part = hq_matrix(lu_3d2_bare, trap, [8, 6])
        assert [s.F.twice for s in part.basis] == [12] * 13 + [16] * 17
        rows = [whole.index(s) for s in part.basis]
        assert np.array_equal(part.amplitude, whole.amplitude[np.ix_(rows, rows)])

    def test_returned_amplitude_is_a_copy(self, lu_3d2_bare):
        trap = random_trap(random.Random(9))
        first = hq_matrix(lu_3d2_bare, trap, lu_3d2_bare.f_values())
        assert first.amplitude.flags.c_contiguous
        kept = first.amplitude.copy()
        first.amplitude[:] = 7.0
        again = hq_matrix(lu_3d2_bare, trap, lu_3d2_bare.f_values())
        assert np.array_equal(again.amplitude, kept)
        table = reduced_table(lu_3d2_bare)
        with pytest.raises(TypeError):
            table.columns[0][1][0] = 1.0
        assert all(isinstance(part, bytes) for part in table.flat)

    def test_levels_of_one_i_and_j_keep_their_own_theta(self):
        # Lu+ 3D2 and 1D2 share (I, J) = (7, 2); read in turn, each level's
        # couplings scale with its own Theta, and a read repeats bit for bit
        levels = [paper_levels()["Lu+ 3D2"], load_species("lu176").level("1D2"),
                  LevelSpec(7, 2, 0.5)]
        trap = random_trap(random.Random(31))
        first = [hq_matrix(level, trap, level.f_values()).amplitude for level in levels]
        for level, h in zip(levels, first):
            ratio = level.theta_e_a02 / levels[0].theta_e_a02
            assert np.max(np.abs(h - ratio * first[0])) <= 1e-12 * np.max(np.abs(h))
            k = len(h) - 1
            assert amplitude(level, trap, k, k - 2) == h[k, k - 2]
        for level, h in zip(levels, first):
            assert np.array_equal(hq_matrix(level, trap, level.f_values()).amplitude, h)

    def test_orientations_keep_their_own_matrix(self, lu_3d2_bare):
        # read at a tilt, then untilted, then tilted again: the untilted
        # matrix is the rotated one turned back, and a linear trap's
        # diagonal vanishes there
        tilted = EulerAngles(0.7, 1.2)
        upright = TrapConfig(omega_rf=2 * math.pi * 20e6, mass=2.9e-25, epsilon=4e8)
        trap = upright.with_orientation(tilted)
        fs = lu_3d2_bare.f_values()
        h_tilted = hq_matrix(lu_3d2_bare, trap, fs).amplitude
        h_upright = hq_matrix(lu_3d2_bare, upright, fs).amplitude
        assert all(amplitude(lu_3d2_bare, upright, k, k) == 0.0
                   for k in range(len(h_upright)))
        u = rotation(lu_3d2_bare, tilted)
        want = u @ h_upright @ u.conj().T
        assert np.max(np.abs(h_tilted - want)) <= 1e-12 * np.max(np.abs(want))
        assert np.array_equal(hq_matrix(lu_3d2_bare, trap, fs).amplitude, h_tilted)

    def test_channel_factors_once_per_trap(self, monkeypatch):
        # the three Lu+ D levels read cold in one trap (A and eps nonzero)
        # rotate its gradient once: 5 channels dmu times 3 components q
        calls = []

        def counted(*args):
            calls.append(args)
            return wigner_D2_twice(*args)

        monkeypatch.setattr(coupling, "wigner_D2_twice", counted)
        coupling._channel_factors.cache_clear()
        lu, trap = load_species("lu176"), random_trap(random.Random(43))
        for level in map(lu.level, ("3D1", "3D2", "1D2")):
            hq_matrix(level, trap, level.f_values())
        assert len(calls) == 15

    def test_writes_never_reach_a_later_read(self, lu_3d2_bare):
        trap = random_trap(random.Random(37))
        column = amplitudes(lu_3d2_bare, trap, 4)
        kept = list(column)
        column[:] = [(0, 7.0)]
        assert amplitudes(lu_3d2_bare, trap, 4) == kept
        window = amplitudes(lu_3d2_bare, trap, 4, 3, 5)
        assert window == [entry for entry in kept if 3 <= entry[0] <= 5]
        window.clear()
        assert amplitudes(lu_3d2_bare, trap, 4, 3, 5) == [
            entry for entry in kept if 3 <= entry[0] <= 5]

    @pytest.mark.parametrize("which", ["theta", "angles"])
    def test_signed_zero_inputs_read_one_matrix(self, which):
        # -0.0 == +0.0, so both share a cache key: each is stored as +0.0,
        # and a read is the same bit for bit whichever of them came first
        # (Theta = -0.0 gave 107 negative zeros built fresh, 14 after +0.0)
        trap = TrapConfig(omega_rf=2 * math.pi * 20e6, mass=2.9e-25, A=3e8, epsilon=4e8)

        def read(zero):
            if which == "theta":
                level, tilted = LevelSpec(7, 2, zero), trap
            else:
                level = LevelSpec(7, 2, 1.0)
                tilted = trap.with_orientation(EulerAngles(zero, zero))
            inputs = (level.theta_e_a02, tilted.orientation.alpha, tilted.orientation.beta)
            assert not any(np.signbit(inputs))
            h = hq_matrix(level, tilted, [5]).amplitude
            return np.signbit(h.real), np.signbit(h.imag)

        coupling._channel_factors.cache_clear()
        fresh = read(-0.0)
        coupling._channel_factors.cache_clear()
        read(0.0)
        after = read(-0.0)
        assert all(np.array_equal(a, b) for a, b in zip(fresh, after))

    def test_repeated_f_rejected(self, ba_d52, lu_3d2_bare):
        trap = random_trap(random.Random(1))
        with pytest.raises(InvalidInputError, match="more than once"):
            hq_matrix(ba_d52, trap, [2.5, 2.5])
        with pytest.raises(InvalidInputError, match="more than once"):
            hq_matrix(lu_3d2_bare, trap, [5, 6, 5.0])
        with pytest.raises(InvalidInputError, match="manifold lists F=5/2 more than once"):
            hq_matrix(ba_d52, trap, ["5/2", 2.5])


class TestLevelSpec:
    def test_f_values(self, lu_3d2_bare):
        assert [f.twice for f in lu_3d2_bare.f_values()] == [10, 12, 14, 16, 18]

    def test_validate_f_checks_range_and_parity(self, lu_3d2_bare, ba_d52):
        # twice F, as an int
        assert [lu_3d2_bare.validate_f(f) for f in (5, 7.0, "9")] == [10, 14, 18]
        assert ba_d52.validate_f(2.5) == 5
        for level, bad in ((lu_3d2_bare, 4), (lu_3d2_bare, 10), (lu_3d2_bare, 5.5),
                           (lu_3d2_bare, 8.5), (ba_d52, 1.5), (ba_d52, 2),
                           (ba_d52, 3.5)):
            with pytest.raises(InvalidInputError, match="invalid for I="):
                level.validate_f(bad)

    def test_rejects_out_of_range_f_energy(self):
        with pytest.raises(InvalidInputError):
            LevelSpec(0, 2.5, 1.0, hyperfine_energies_hz={1.5: 0.0})

    def test_rejects_duplicate_energies(self):
        with pytest.raises(InvalidInputError):
            LevelSpec(7, 1, 1.0, hyperfine_energies_hz={6: 0.0, 7: 0.0, 8: 0.0})

    @pytest.mark.parametrize("energy", [math.nan, math.inf, -math.inf],
                             ids=["nan", "inf", "-inf"])
    def test_rejects_non_finite_energy(self, energy):
        # was accepted, and clock_shift(level, 7, trap) then returned nan
        with pytest.raises(InvalidInputError, match="finite"):
            LevelSpec(7, 1, 1.0, hyperfine_energies_hz={6: energy, 7: 0.0, 8: 1e9})

    def test_extra_energy_named_in_error(self):
        with pytest.raises(InvalidInputError, match=r"missing F=\[\], extra F=\[9\]"):
            LevelSpec(7, 1, 1.0, hyperfine_energies_hz={6: 0.0, 7: 1e9, 8: 2e9, 9: 3e9})

    def test_repeated_f_energy_named_in_error(self):
        # the last of the two was kept without a word
        with pytest.raises(InvalidInputError, match="^level D5/2 has a hyperfine energy "
                           "for F=5/2 more than once$"):
            LevelSpec(0, 2.5, 1.0, {2.5: 1.0, "5/2": 2.0}, label="D5/2")

    @pytest.mark.parametrize("i, j", [(-1, 2), (7, -2)], ids=["negative-I", "negative-J"])
    def test_negative_momentum_rejected(self, i, j):
        with pytest.raises(InvalidInputError, match="must be non-negative"):
            LevelSpec(i, j, 1.0)

    @pytest.mark.parametrize("theta", [math.nan, math.inf], ids=["nan", "inf"])
    def test_non_finite_theta_rejected(self, theta):
        with pytest.raises(InvalidInputError, match="Theta"):
            LevelSpec(7, 2, theta)

    def test_missing_energy_named_in_error(self):
        # was accepted, and failed only when a clock-shift sum read F = 8
        with pytest.raises(InvalidInputError, match=r"partial .*missing F=\[8\]"):
            LevelSpec(7, 1, 1.0, hyperfine_energies_hz={6: 0.0, 7: 1e9},
                      label="partial")


def _accepts(call, *args) -> bool:
    try:
        call(*args)
    except InvalidInputError:
        return False
    return True


_LEVEL_J52 = LevelSpec(0, 2.5, 1.0)
_STATE_J52 = HyperfineState(2.5, 0.5)
# each caller of the projection rule, with the 2j it is checked at
_PROJECTION_CALLERS = {
    "HyperfineState": (range(9), lambda j, m: HyperfineState(j, m)),
    "wigner_3j": (range(9), lambda j, m: wigner_3j(j, j, 0, m, -m, 0)),
    "wigner_D2": ((4,), lambda j, m: wigner_D2(m, 0, EulerAngles(0.3, 0.7))),
    "theta_matrix_element": ((4,), lambda j, m: theta_matrix_element(
        _LEVEL_J52, _STATE_J52, _STATE_J52, m, EulerAngles(0.3, 0.7))),
}


class TestSharedRules:
    @pytest.mark.parametrize("caller", list(_PROJECTION_CALLERS))
    def test_projection_rule_is_the_same_for_every_caller(self, caller):
        # j >= 0, |m| <= j and j - m an integer, over 2m in -10..10; the
        # rank-2 callers take j = 2 (D2's first index, theta's q)
        twice_js, call = _PROJECTION_CALLERS[caller]
        for tj in twice_js:
            for tm in range(-10, 11):
                want = abs(tm) <= tj and (tj - tm) % 2 == 0
                assert _accepts(call, tj / 2, tm / 2) == want, (tj, tm)

    @pytest.mark.parametrize("two_i, two_j", [(0, 5), (7, 1), (14, 2), (14, 4)])
    def test_validate_f_accepts_exactly_the_f_values(self, two_i, two_j):
        level = LevelSpec(HalfInt.from_twice(two_i), HalfInt.from_twice(two_j), 1.0)
        accepted = [tf for tf in range(-2, two_i + two_j + 5)
                    if _accepts(level.validate_f, tf / 2)]
        assert accepted == [f.twice for f in level.f_values()]
