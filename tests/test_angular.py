import cmath
import math
import random

import numpy as np
import pytest

from trapquad.angular import (
    EulerAngles,
    HalfInt,
    doubled,
    wigner_3j,
    wigner_6j,
    wigner_D2,
)
from trapquad.coupling import HyperfineState, LevelSpec
from trapquad.errors import InvalidInputError

from exact_wigner import exact_3j, exact_6j


class TestHalfInt:
    def test_construction(self):
        assert HalfInt(2).twice == 4
        assert HalfInt(2.5).twice == 5
        assert HalfInt.from_twice(7) == HalfInt(3.5)

    def test_rejects_non_half_integers(self):
        with pytest.raises(InvalidInputError):
            HalfInt(0.3)

    def test_tolerance_is_1e_9_on_twice_the_value(self):
        assert doubled(2.5 + 1e-10) == doubled(HalfInt(2.5)) == 5
        assert doubled(-1 - 4e-10) == -2
        for off in (1e-8, -1e-8):
            with pytest.raises(InvalidInputError, match="integer or half-integer"):
                doubled(2.5 + off)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, 1e308, 10**400],
                             ids=["nan", "inf", "-inf", "1e308", "10**400"])
    def test_non_finite_values(self, value):
        # NaN raised a bare ValueError and the others an OverflowError, from
        # == too; 10**400 was accepted, and hash() and math.factorial raised
        # OverflowError later
        for call in (HalfInt, lambda j: wigner_3j(j, j, 0, 0, 0, 0),
                     lambda j: wigner_6j(j, j, 0, 0, 0, 0),
                     lambda j: hash(HyperfineState(j, 0)),
                     lambda j: LevelSpec(j, 2, 1.0, {j: 1.0})):
            with pytest.raises(InvalidInputError, match="NaN, infinite or too large"):
                call(value)
        assert not HalfInt(1) == value
        assert HalfInt(1) != value

    def test_hashes_like_value(self):
        assert len({HalfInt(1), HalfInt(1.0), HalfInt.from_twice(2)}) == 1
        assert {2.5: "F"}[HalfInt("5/2")] == "F"

    def test_equals_numbers_only(self):
        # text and other types are not the number: "5/2" hashes apart from 2.5
        for other in ("5/2", None, [5]):
            assert not HalfInt(2.5) == other
            assert HalfInt(2.5) != other

    def test_over_long_int_is_invalid_input(self):
        # the message's repr of the int raised a bare ValueError quoting the
        # 4300-digit limit
        with pytest.raises(InvalidInputError,
                           match="^a 16610-bit int is NaN, infinite or too large$"):
            doubled(10**5000)

    def test_over_long_text_is_invalid_input(self):
        # int() refused it with a bare ValueError quoting the limit
        with pytest.raises(InvalidInputError, match="^text of 5000 digits is too long"):
            doubled("9" * 5000)


class TestWigner3j:
    def test_trivial_zero_coupling(self):
        assert wigner_3j(0, 0, 0, 0, 0, 0) == 1.0

    def test_closed_form_110(self):
        # (j j 0; m -m 0) = (-1)^(j-m)/sqrt(2j+1)
        assert wigner_3j(1, 1, 0, 1, -1, 0) == pytest.approx(1 / math.sqrt(3), abs=1e-15)

    def test_frozen_rational_oracle_value(self):
        # stretched rank-2 normalization symbol, frozen from the exact oracle
        assert wigner_3j(2.5, 2, 2.5, -2.5, 0, 2.5) == pytest.approx(
            0.2439750182371333, rel=1e-13
        )

    def test_selection_rules_return_zero(self):
        assert wigner_3j(1, 1, 3, 0, 0, 0) == 0.0          # triangle violated
        assert wigner_3j(1, 1, 1, 1, 0, 0) == 0.0          # m-sum nonzero
        assert wigner_3j(0.5, 0.5, 0.5, 0.5, -0.5, 0.5) == 0.0  # half-integer perimeter

    def test_cancelling_sums_give_positive_zero(self):
        # Racah sums that cancel, the 3j ones under an overall phase of -1;
        # a -0.0 would read "-0.0" in JSON output
        zeros = [wigner_3j(1, 2, 2, 0, 0, 0), wigner_3j(1.5, 1.5, 2, -0.5, -0.5, 1),
                 wigner_6j(1, 1.5, 1.5, 3.5, 3, 3), wigner_6j(1, 2, 2, 3, 2, 2)]
        assert zeros == [0.0] * 4
        assert all(math.copysign(1.0, v) == 1.0 for v in zeros)

    def test_invalid_input_raises(self):
        with pytest.raises(InvalidInputError):
            wigner_3j(-1, 1, 1, 0, 0, 0)
        with pytest.raises(InvalidInputError):
            wigner_3j(1, 1, 1, 2, -1, -1)
        with pytest.raises(InvalidInputError):
            wigner_3j(1.5, 1, 1, 1, 0, -1)  # m parity mismatch

    def test_symmetries_random(self):
        rng = random.Random(7)
        checked = 0
        while checked < 60:
            tj = [rng.randint(0, 8) for _ in range(2)]
            tj3 = rng.randint(abs(tj[0] - tj[1]), tj[0] + tj[1])
            if (tj[0] + tj[1] + tj3) % 2:
                continue
            tms = []
            for t in (*tj, tj3):
                tms.append(rng.randrange(-t, t + 1, 2) if t else 0)
            if sum(tms) != 0:
                continue
            j1, j2, j3 = (t / 2 for t in (*tj, tj3))
            m1, m2, m3 = (t / 2 for t in tms)
            base = wigner_3j(j1, j2, j3, m1, m2, m3)
            sign = (-1.0) ** round(j1 + j2 + j3)
            # cyclic column permutation
            assert wigner_3j(j2, j3, j1, m2, m3, m1) == pytest.approx(base, abs=1e-14)
            # swap of two columns
            assert wigner_3j(j2, j1, j3, m2, m1, m3) == pytest.approx(
                sign * base, abs=1e-14
            )
            # m negation
            assert wigner_3j(j1, j2, j3, -m1, -m2, -m3) == pytest.approx(
                sign * base, abs=1e-14
            )
            checked += 1

    def test_agrees_with_exact_oracle_j_up_to_10(self):
        rng = random.Random(42)
        checked = 0
        while checked < 400:
            tj1 = rng.randint(0, 20)
            tj2 = rng.randint(0, 20)
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
            assert got == pytest.approx(want, rel=1e-12, abs=1e-13), (
                tj1, tj2, tj3, tm1, tm2, tm3
            )
            checked += 1


class TestWigner6j:
    def test_closed_form_with_zero(self):
        # {a b c; 0 c b} = (-1)^(a+b+c)/sqrt((2b+1)(2c+1))
        assert wigner_6j(1, 1, 1, 0, 1, 1) == pytest.approx(-1 / 3, abs=1e-15)

    def test_frozen_rational_oracle_value(self):
        assert wigner_6j(5, 5, 2, 2, 2, 7) == pytest.approx(
            0.054744890145135894, rel=1e-13
        )

    def test_triad_violation_returns_zero(self):
        assert wigner_6j(5, 5, 2, 1, 1, 7) == 0.0

    def test_invalid_input_raises(self):
        with pytest.raises(InvalidInputError):
            wigner_6j(1, 1, 1, 0, 1, -1)
        with pytest.raises(InvalidInputError):
            wigner_6j(1.2, 1, 1, 0, 1, 1)

    def test_orthogonality(self):
        # sum_x (2x+1) {a b x; c d p}{a b x; c d q} = delta_pq/(2p+1),
        # for p, q satisfying the (a,d,p) and (b,c,p) triangle rules
        a, b, c, d = 1, 2, 2, 2
        for p in (1, 2, 3):
            for q in (1, 2, 3):
                total = 0.0
                for tx in range(0, 13):
                    x = tx / 2
                    total += (2 * x + 1) * wigner_6j(a, b, x, c, d, p) * wigner_6j(
                        a, b, x, c, d, q
                    )
                want = (1.0 / (2 * p + 1)) if p == q else 0.0
                assert total == pytest.approx(want, abs=1e-13)

    def test_agrees_with_exact_oracle_j_up_to_10(self):
        rng = random.Random(99)
        checked = 0
        while checked < 250:
            tj = [rng.randint(0, 20) for _ in range(6)]
            got = wigner_6j(*(t / 2 for t in tj))
            want = exact_6j(*tj)
            assert got == pytest.approx(want, rel=1e-12, abs=1e-13), tj
            checked += 1


class TestRank2Rotation:
    def test_identity_at_beta_zero(self):
        angles = EulerAngles(0.0, 0.0)
        for mp in range(-2, 3):
            for m in range(-2, 3):
                want = 1.0 if mp == m else 0.0
                assert wigner_D2(mp, m, angles) == pytest.approx(want, abs=1e-15)

    def test_pure_z_rotation_phases(self):
        alpha = 0.734
        angles = EulerAngles(alpha, 0.0)
        for m in range(-2, 3):
            want = cmath.exp(1j * m * alpha)
            assert wigner_D2(m, m, angles) == pytest.approx(want, abs=1e-14)

    def test_d00_closed_form(self):
        for beta in np.linspace(0, math.pi, 17):
            want = (3 * math.cos(beta) ** 2 - 1) / 2
            d00 = wigner_D2(0, 0, EulerAngles(0.0, beta)).real   # d2: D2 at alpha = 0
            assert d00 == pytest.approx(want, abs=1e-15)

    def test_combination_closed_forms_on_grid(self):
        # the six closed-form combinations that fix the sign convention
        alphas = np.linspace(0.0, 2 * math.pi, 20)
        betas = np.linspace(0.0, math.pi, 20)
        for alpha in alphas:
            for beta in betas:
                ang = EulerAngles(alpha, beta)
                c, s = math.cos(beta), math.sin(beta)
                c2a, s2a = math.cos(2 * alpha), math.sin(2 * alpha)

                q2sum = {mp: wigner_D2(mp, 2, ang) + wigner_D2(mp, -2, ang)
                         for mp in range(-2, 3)}
                assert q2sum[0] == pytest.approx(
                    math.sqrt(1.5) * s * s * c2a, abs=1e-12
                )
                for pm in (1, -1):
                    want = -pm * (c * s * c2a + 1j * pm * s * s2a)
                    assert q2sum[pm] == pytest.approx(want, abs=1e-12)
                for pm in (1, -1):
                    want = 0.5 * (1 + c * c) * c2a + 1j * pm * c * s2a
                    assert q2sum[2 * pm] == pytest.approx(want, abs=1e-12)

                assert wigner_D2(0, 0, ang) == pytest.approx(
                    (3 * c * c - 1) / 2, abs=1e-12
                )
                for pm in (1, -1):
                    assert wigner_D2(pm, 0, ang) == pytest.approx(
                        pm * math.sqrt(1.5) * s * c, abs=1e-12
                    )
                    assert wigner_D2(2 * pm, 0, ang) == pytest.approx(
                        math.sqrt(3 / 8) * s * s, abs=1e-12
                    )

    def test_every_entry_is_exp_of_jy(self):
        # passive d2_{mp,m}(beta) = [exp(+i*beta*Jy)]_{mp,m}, basis m = 2..-2,
        # with Jy = (J+ - J-)/(2i) from <m+1|J+|m> = sqrt(j(j+1) - m(m+1))
        ms = range(2, -3, -1)
        j_plus = np.zeros((5, 5))
        for row in range(4):
            m = ms[row + 1]
            j_plus[row, row + 1] = math.sqrt(6 - m * (m + 1))
        evals, evecs = np.linalg.eigh((j_plus - j_plus.T) / 2j)
        for beta in np.linspace(0.0, math.pi, 181):
            want = (evecs * np.exp(1j * beta * evals)) @ evecs.conj().T
            got = [[wigner_D2(mp, m, EulerAngles(0.0, beta)).real for m in ms]
                   for mp in ms]
            assert np.abs(got - want).max() <= 1e-14

    @pytest.mark.parametrize("beta", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_beta(self, beta):
        # nan came back as nan, and inf raised a bare "math domain error"
        with pytest.raises(InvalidInputError, match="Euler angles must be finite"):
            wigner_D2(0, 0, EulerAngles(0.0, beta))

    @pytest.mark.parametrize("angles", [(math.nan, 0.0), (0.0, math.inf),
                                        (-math.inf, 0.0)],
                             ids=["nan-alpha", "inf-beta", "-inf-alpha"])
    def test_euler_angles_must_be_finite(self, angles):
        with pytest.raises(InvalidInputError, match="Euler angles must be finite"):
            EulerAngles(*angles)

    def test_unitarity_random_angles(self):
        rng = random.Random(5)
        for _ in range(25):
            ang = EulerAngles(rng.uniform(0, 2 * math.pi), rng.uniform(0, math.pi))
            mat = np.array(
                [[wigner_D2(mp, m, ang) for m in range(-2, 3)] for mp in range(-2, 3)]
            )
            assert np.allclose(mat @ mat.conj().T, np.eye(5), atol=1e-13)

    def test_z_rotation_composition(self):
        # appending a z-rotation multiplies column m by exp(i*m*alpha1)
        alpha1, alpha2, beta = 0.31, 1.17, 0.83
        combined = EulerAngles(alpha1 + alpha2, beta)
        partial = EulerAngles(alpha2, beta)
        for mp in range(-2, 3):
            for m in range(-2, 3):
                want = wigner_D2(mp, m, partial) * cmath.exp(1j * m * alpha1)
                assert wigner_D2(mp, m, combined) == pytest.approx(want, abs=1e-13)

    def test_rejects_out_of_range_projections(self):
        with pytest.raises(InvalidInputError):
            wigner_D2(3, 0, EulerAngles(0, 0))
        with pytest.raises(InvalidInputError):
            wigner_D2(0.5, 0.5, EulerAngles(0, 0))
