import math

import pytest

from trapquad.angular import EulerAngles
from trapquad.errors import InvalidInputError
from trapquad.trap import (
    CODATA2018,
    TrapConfig,
    epsilon_from_secular,
    secular_consistency,
)

TWO_PI = 2 * math.pi


class TestConstants:
    def test_codata2018_bit_for_bit(self):
        # the one set of constants, e*a0^2 included, each equal to its literal
        values = {name: value for name, value in vars(CODATA2018).items()
                  if not name.startswith("_")}
        assert values == {
            "hbar": 1.054571817e-34, "elementary_charge": 1.602176634e-19,
            "bohr_radius": 5.29177210903e-11, "atomic_mass": 1.66053906660e-27,
            "bohr_magneton": 9.2740100783e-24, "e_a0_squared": 4.486551524613e-40}


class TestEpsilonFromSecular:
    def test_ba_closes_the_measurement_loop(self):
        # eps for the Ba+ run times the measured Theta gives back the fitted
        # coupling strength of about 2*pi*1.694 kHz
        mass = 137.905 * CODATA2018.atomic_mass
        eps = epsilon_from_secular(mass, TWO_PI * 20.585e6, TWO_PI * 943e3)
        omega_q = eps * 3.229 * CODATA2018.e_a0_squared / CODATA2018.hbar
        assert omega_q / TWO_PI == pytest.approx(1694.0, rel=2e-3)

    def test_lu_coupling_scale(self):
        mass = 175.94 * CODATA2018.atomic_mass
        eps = epsilon_from_secular(mass, TWO_PI * 33e6, TWO_PI * 1e6)
        coupling = eps * 1.77 * CODATA2018.e_a0_squared / CODATA2018.hbar
        assert coupling / TWO_PI == pytest.approx(2013.0, rel=1e-3)

    def test_linear_in_each_argument(self):
        base = epsilon_from_secular(2e-25, 1e8, 6e6)
        assert epsilon_from_secular(4e-25, 1e8, 6e6) == pytest.approx(2 * base)
        assert epsilon_from_secular(2e-25, 2e8, 6e6) == pytest.approx(2 * base)
        assert epsilon_from_secular(2e-25, 1e8, 1.2e7) == pytest.approx(2 * base)

    def test_rejects_non_positive(self):
        with pytest.raises(InvalidInputError):
            epsilon_from_secular(0.0, 1e8, 1e6)
        with pytest.raises(InvalidInputError):
            epsilon_from_secular(2e-25, -1e8, 1e6)

    @pytest.mark.parametrize("args", [
        (math.nan, 1e8, 1e6), (2e-25, math.inf, 1e6), (2e-25, 1e8, math.nan),
    ], ids=["mass-nan", "omega_rf-inf", "omega_s-nan"])
    def test_rejects_non_finite(self, args):
        # returned nan or inf: the check was a <= 0 comparison
        with pytest.raises(InvalidInputError, match="positive and finite"):
            epsilon_from_secular(*args)


class TestSecularConsistency:
    def test_ba_trap_frequencies(self):
        est = secular_consistency(TWO_PI * 990e3, TWO_PI * 895e3, TWO_PI * 112e3)
        assert est.omega_s / TWO_PI == pytest.approx(942.5e3, rel=1e-12)
        assert est.uncertainty / TWO_PI == pytest.approx(17e3, rel=1e-12)

    def test_ideal_trap_has_zero_uncertainty(self):
        est = secular_consistency(1.0e6, 0.8e6, 0.2e6)
        assert est.uncertainty == 0.0

    def test_symmetric_radial_limit(self):
        est = secular_consistency(1.0e6, 1.0e6, 0.0)
        assert est.omega_s == pytest.approx(1.0e6)
        assert est.uncertainty == 0.0

    @pytest.mark.parametrize("args", [
        (math.nan, 1.0, 0.1), (1.0, math.inf, 0.1), (1.0, 1.0, math.nan),
        (math.inf, 1.0, 0.1),
    ], ids=["x-nan", "y-inf", "z-nan", "x-inf"])
    def test_rejects_non_finite(self, args):
        # returned omega_s = nan or inf: the checks were <= 0 comparisons
        with pytest.raises(InvalidInputError, match="positive and finite"):
            secular_consistency(*args)


class TestTrapConfig:
    def test_ideal_linear_preset(self):
        trap = TrapConfig.ideal_linear(2.3e-25, 1.3e8, 5.9e6)
        assert trap.A == 0.0
        assert trap.epsilon == pytest.approx(
            epsilon_from_secular(2.3e-25, 1.3e8, 5.9e6)
        )

    def test_ideal_quadrupole_preset(self):
        trap = TrapConfig.ideal_quadrupole(2.3e-25, 1.3e8, 5.9e6)
        assert trap.epsilon == 0.0
        assert trap.A == pytest.approx(epsilon_from_secular(2.3e-25, 1.3e8, 5.9e6))

    def test_mixed_fields_accepted_raw(self):
        trap = TrapConfig(omega_rf=1e8, mass=2e-25, A=3e8, epsilon=-4e8)
        assert trap.A == 3e8 and trap.epsilon == -4e8

    def test_validation(self):
        with pytest.raises(InvalidInputError):
            TrapConfig(omega_rf=0.0, mass=2e-25)
        with pytest.raises(InvalidInputError):
            TrapConfig(omega_rf=1e8, mass=-1.0)

    @pytest.mark.parametrize("field, value", [
        ("omega_rf", math.nan), ("omega_rf", math.inf), ("mass", math.nan),
        ("A", math.nan), ("epsilon", math.nan), ("epsilon", -math.inf),
        ("omega_s", math.nan), ("omega_s", math.inf),
        ("omega_s_unc", math.nan), ("omega_s_unc", math.inf), ("omega_s_unc", -5.0),
    ])
    def test_rejects_non_finite_values(self, field, value):
        # NaN omega_rf or epsilon made sideband_index return nan, NaN omega_s
        # or omega_s_unc made extract_theta return nan, and -5 was accepted
        good = dict(omega_rf=1e8, mass=2e-25, epsilon=1e9, omega_s=1e6, omega_s_unc=1e3)
        TrapConfig(**good)
        with pytest.raises(InvalidInputError, match=field):
            TrapConfig(**{**good, field: value})

    def test_with_orientation(self):
        trap = TrapConfig(omega_rf=1e8, mass=2e-25, epsilon=1e9)
        rotated = trap.with_orientation(EulerAngles(0.3, 0.2))
        assert rotated.orientation.alpha == 0.3
        assert rotated.epsilon == trap.epsilon
