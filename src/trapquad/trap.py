"""Trap and field configuration, and the quadrupole moment they imply.

The rf potential near the ion is written on principal axes as
A*(x'^2 + y'^2 - 2 z'^2) + eps*(x'^2 - y'^2), multiplied by cos(Omega_rf t).
An ideal linear rf trap has A = 0 with eps = m*Omega_rf*omega_s/(e*sqrt(2)),
where omega_s is the pseudo-potential confinement frequency; the ideal
quadrupole trap has eps = 0 with the same expression for A.  The field's
quasi-static noise model, whose one setting is sigma_B (the Ba+ g-factors
G_D and G_S and the field sensitivities they fix are constants), and the
Theta extraction are here too: plain arithmetic that needs no numpy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

from .angular import EulerAngles
from .errors import InvalidInputError


class CODATA2018:
    """SI constants (CODATA 2018): the one set every function reads."""

    hbar = 1.054571817e-34            # J s
    elementary_charge = 1.602176634e-19  # C
    bohr_radius = 5.29177210903e-11   # m
    atomic_mass = 1.66053906660e-27   # kg
    bohr_magneton = 9.2740100783e-24  # J/T
    e_a0_squared = elementary_charge * bohr_radius**2  # e*a0^2, C m^2


TWO_PI = 2.0 * math.pi   # rad/s per Hz


def epsilon_from_secular(mass: float, omega_rf: float, omega_s: float) -> float:
    """Quadrupole strength eps (V/m^2) of an ideal linear rf trap.

    eps = m * Omega_rf * omega_s / (e * sqrt(2)).  The ideal quadrupole trap
    has the same expression for A, with omega_s the smaller radial frequency.
    """
    if not all(0 < v < math.inf for v in (mass, omega_rf, omega_s)):
        raise InvalidInputError("mass, omega_rf, omega_s must be positive and finite")
    return mass * omega_rf * omega_s / (CODATA2018.elementary_charge * math.sqrt(2.0))


@dataclass(frozen=True)
class SecularEstimate:
    """Pseudo-potential frequency with its conservative uncertainty."""

    omega_s: float
    uncertainty: float


def secular_consistency(omega_x: float, omega_y: float,
                        omega_z: float) -> SecularEstimate:
    """Estimate omega_s = (omega_x + omega_y)/2 from measured trap frequencies.

    With rf confinement only, omega_z = omega_x - omega_y; the deviation from
    that identity is taken as a conservative uncertainty on omega_s.
    """
    if not (0 < omega_x < math.inf and 0 < omega_y < math.inf
            and 0 <= omega_z < math.inf):
        raise InvalidInputError("trap frequencies must be positive and finite")
    return SecularEstimate(omega_s=0.5 * (omega_x + omega_y),
                           uncertainty=abs(omega_z - (omega_x - omega_y)))


@dataclass(frozen=True)
class TrapConfig:
    """rf drive, quadrupole strengths and orientation of the trap.

    `A` and `epsilon` are the cos(Omega_rf t) amplitudes of the two principal
    quadrupole terms in V/m^2.  `orientation` rotates the principal axes into
    the laboratory frame (magnetic field along z).
    """

    omega_rf: float
    mass: float
    A: float = 0.0
    epsilon: float = 0.0
    omega_s: float | None = None
    omega_s_unc: float = 0.0
    orientation: EulerAngles = field(default_factory=EulerAngles)

    def __post_init__(self):
        if not 0 < self.omega_rf < math.inf:
            raise InvalidInputError("omega_rf must be positive and finite")
        if not 0 < self.mass < math.inf:
            raise InvalidInputError("ion mass must be positive and finite")
        if not (math.isfinite(self.A) and math.isfinite(self.epsilon)):
            raise InvalidInputError("A and epsilon must be finite")
        if self.omega_s is not None and not 0 < self.omega_s < math.inf:
            raise InvalidInputError("omega_s must be positive and finite when given")
        if not 0 <= self.omega_s_unc < math.inf:
            raise InvalidInputError("omega_s_unc must be finite and non-negative")

    @classmethod
    def ideal_linear(cls, mass: float, omega_rf: float, omega_s: float,
                     omega_s_unc: float = 0.0,
                     orientation: EulerAngles = EulerAngles()) -> "TrapConfig":
        """Linear rf trap preset: A = 0, eps derived from omega_s."""
        return cls(
            omega_rf=omega_rf, mass=mass, A=0.0,
            epsilon=epsilon_from_secular(mass, omega_rf, omega_s),
            omega_s=omega_s, omega_s_unc=omega_s_unc, orientation=orientation,
        )

    @classmethod
    def ideal_quadrupole(cls, mass: float, omega_rf: float, omega_s: float,
                         omega_s_unc: float = 0.0,
                         orientation: EulerAngles = EulerAngles()) -> "TrapConfig":
        """Ideal quadrupole (endcap) trap preset: the linear preset with A
        and eps swapped, so eps = 0 and A is derived from omega_s."""
        linear = cls.ideal_linear(mass, omega_rf, omega_s, omega_s_unc, orientation)
        return replace(linear, A=linear.epsilon, epsilon=0.0)

    def with_orientation(self, orientation: EulerAngles) -> "TrapConfig":
        return replace(self, orientation=orientation)


G_D = 6.0 / 5.0      # Lande g-factor of Ba+ D5/2
G_S = 2.0025         # and of S1/2
# d(Delta)/d(-b) and d(delta)/d(-b), rad/s per tesla: how a field excursion b
# moves the rf resonance and the probe line
SENSITIVITY_RF = 2.0 * G_D * CODATA2018.bohr_magneton / CODATA2018.hbar
SENSITIVITY_LASER = (G_D - G_S) * CODATA2018.bohr_magneton / (2.0 * CODATA2018.hbar)


@dataclass(frozen=True)
class NoiseModel:
    """Zero-mean Gaussian quasi-static field noise of rms sigma_b.  A field
    excursion moves the rf resonance and the probe line together, by the
    constants SENSITIVITY_RF and SENSITIVITY_LASER."""

    sigma_b: float                 # tesla, rms deviation

    def __post_init__(self):
        if not 0.0 <= self.sigma_b < math.inf:
            raise InvalidInputError("sigma_b must be finite and non-negative")


@dataclass(frozen=True)
class ThetaEstimate:
    """Quadrupole moment in e*a0^2 with propagated uncertainty."""

    theta: float
    error: float


def extract_theta(omega_q: float, omega_q_err: float,
                  trap: TrapConfig) -> ThetaEstimate:
    """Theta = hbar*omega_q*sqrt(2)*e/(m*Omega_rf*omega_s), in e*a0^2.

    The relative error combines the omega_q and omega_s relative errors in
    quadrature.
    """
    if not (0 < omega_q < math.inf and 0 <= omega_q_err < math.inf):
        raise InvalidInputError("omega_q must be positive, its error >= 0, both finite")
    if trap.omega_s is None:  # TrapConfig holds a given omega_s positive
        raise InvalidInputError("trap must carry a positive omega_s")
    c = CODATA2018
    theta_si = (c.hbar * omega_q * math.sqrt(2.0) * c.elementary_charge
                / (trap.mass * trap.omega_rf * trap.omega_s))
    theta = theta_si / c.e_a0_squared
    rel = math.hypot(omega_q_err / omega_q, trap.omega_s_unc / trap.omega_s)
    return ThetaEstimate(theta=theta, error=abs(theta) * rel)


def combine_runs(omega_qs: list[float], errors: list[float],
                 drift_error: float = 0.0) -> tuple[float, float]:
    """Mean coupling over runs; the largest fit error combines in quadrature
    with the slow-drift bound."""
    if not omega_qs or len(omega_qs) != len(errors):
        raise InvalidInputError("need one error per fitted value")
    if not (all(map(math.isfinite, omega_qs))
            and all(0 <= e < math.inf for e in (*errors, drift_error))):
        raise InvalidInputError("values must be finite, errors finite and non-negative")
    mean = sum(map(float, omega_qs)) / len(omega_qs)  # np.mean's bits below 8 values
    err = math.hypot(max(errors), drift_error)
    return mean, err
