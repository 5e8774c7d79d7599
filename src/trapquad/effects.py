"""Observable effects of the oscillating quadrupole coupling.

Covers the time-varying level shift (rf sideband modulation index), resonant
Zeeman couplings at Omega_rf (|dm|=1) and Omega_rf/2 (|dm|=2), off-resonant
Zeeman-ladder shifts, static-limit m=0 clock shifts, and the fractional-shift
decomposition  dnu/nu = a*(f2(alpha,beta) + eta*f1(alpha,beta))  after
hyperfine averaging, where f1 and f2 are the squared moduli of the |dm|=1 and
|dm|=2 orientation factors of a linear (A=0) trap.  Couplings are read at
table_index's rows with coupling.amplitude (one element) and
coupling.amplitudes (a state's column); the decomposition takes its
orientation-free weights from the table directly.  All of it is Python
arithmetic, and each sum is math.fsum's, correctly rounded in any order.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Mapping

from .angular import EulerAngles, Momentum, check_projection, shown
from .coupling import (HyperfineState, LevelSpec, amplitude, amplitudes,
                       gradient_components, reduced_table, table_index)
from .errors import InvalidInputError, ResonanceError
from .trap import CODATA2018, TWO_PI, TrapConfig

_GUARD = 1e-3   # closest a coupled Zeeman interval may come to Omega_rf, relative


@dataclass(frozen=True)
class ZeemanConfig:
    """Linear Zeeman splitting omega_z = g_F * mu_B * B0 / hbar between m states."""

    g_f: float      # 0 means no splitting
    b_field: float  # tesla

    def __post_init__(self):
        if not (math.isfinite(self.g_f) and math.isfinite(self.b_field)):
            raise InvalidInputError("g_F and the field must be finite")

    @property
    def omega_z(self) -> float:
        return self.g_f * CODATA2018.bohr_magneton * self.b_field / CODATA2018.hbar

    @classmethod
    def from_splitting(cls, g_f: float, omega_z: float) -> "ZeemanConfig":
        if not (math.isfinite(g_f) and g_f != 0):
            raise InvalidInputError(f"a splitting needs a finite nonzero g_F, not {g_f!r}")
        b = omega_z * CODATA2018.hbar / (g_f * CODATA2018.bohr_magneton)
        return cls(g_f=g_f, b_field=b)


def orientation_f1(angles: EulerAngles) -> float:
    """|dm|=1 orientation weight: squared modulus of the linear-trap factor."""
    c, s = math.cos(angles.beta), math.sin(angles.beta)
    c2a, s2a = math.cos(2 * angles.alpha), math.sin(2 * angles.alpha)
    return (c * s * c2a) ** 2 + (s * s2a) ** 2


def orientation_f2(angles: EulerAngles) -> float:
    """|dm|=2 orientation weight; equals 1 at beta = 0."""
    c = math.cos(angles.beta)
    c2a, s2a = math.cos(2 * angles.alpha), math.sin(2 * angles.alpha)
    return (0.5 * (1 + c * c) * c2a) ** 2 + (c * s2a) ** 2


def sideband_index(level: LevelSpec, F: Momentum, m: Momentum,
                   trap: TrapConfig) -> float:
    """Modulation index beta_Q = <F,m|H_Q|F,m> / (hbar * Omega_rf).

    The peak time-varying shift of |F,m> divided by the drive frequency; it
    sets the strength of rf sidebands on transitions involving the state.
    """
    k = table_index(level, F, m)
    return amplitude(level, trap, k, k).real / trap.omega_rf


def resonant_coupling(level: LevelSpec, bra: HyperfineState,
                      ket: HyperfineState, trap: TrapConfig) -> complex:
    """Coupling amplitude <bra|H_Q|ket>/hbar (rad/s) for a Zeeman resonance.

    |dm| = 1 transitions resonate when the Zeeman splitting matches Omega_rf;
    |dm| = 2 when it matches Omega_rf/2.  dm = 0 is not a resonance channel.
    """
    dm = bra.m.twice - ket.m.twice
    if abs(dm) not in (2, 4):
        raise InvalidInputError(f"resonant coupling needs |dm| of 1 or 2, got {shown(dm)}")
    return amplitude(level, trap, table_index(level, bra.F, bra.m),
                     table_index(level, ket.F, ket.m))


def offresonant_zeeman_shift(level: LevelSpec, F: Momentum, m: Momentum,
                             trap: TrapConfig, zeeman: ZeemanConfig) -> float:
    """Second-order shift (rad/s) of |F,m> from off-resonant H_Q couplings.

    delta E / hbar = -sum_dm |<F,m+dm|H_Q|F,m>/hbar|^2 / 2
                     * omega_z*dm / ((omega_z*dm)^2 - Omega_rf^2)

    The partners are the states of the same F with dm != 0 and a nonzero
    coupling.  H_Q has |dm| <= 2 and the table orders states by (F, m), so
    they lie in rows k-2..k+2 of the state's column k, the only rows read.
    Raises ResonanceError when a partner's Zeeman interval is within
    1e-3*Omega_rf of the drive; the perturbative formula diverges there.
    """
    states = reduced_table(level).states
    k = table_index(level, F, m)
    ket, w_z, w_rf, terms = states[k], zeeman.omega_z, trap.omega_rf, []
    for row, amp in amplitudes(level, trap, k, k - 2, k + 2):
        partner, mod = states[row], abs(amp)
        dm, a2 = (partner.m.twice - ket.m.twice) // 2, mod * mod
        if partner.F.twice != ket.F.twice or dm == 0 or a2 == 0.0:
            continue
        split = w_z * dm
        if abs(abs(split) - w_rf) < _GUARD * w_rf:
            raise ResonanceError(
                f"Zeeman interval |dm|={abs(dm)} within {_GUARD:g}*Omega_rf "
                "of the drive; off-resonant formula invalid")
        terms.append(-0.5 * a2 * split / (split * split - w_rf**2))
    return math.fsum(terms)


def clock_shift(level: LevelSpec, f_clock: Momentum, trap: TrapConfig) -> float:
    """Static-limit quadrupole shift (Hz) of the |F, m=0> clock state.

    h*dnu_F = -sum_{dm, F' != F} |<F',dm|H_Q|F,0>|^2 / (2*(E_F' - E_F)),
    valid for Omega_rf much smaller than the hyperfine splittings; the factor
    1/2 is the time average of the squared cos drive.  Couplings within F
    cancel for m=0 and are excluded.
    """
    k, weight = _clock_weights(level, level.validate_f(f_clock))
    # max |weight| = 1/(2 * smallest splitting in Hz)
    if trap.omega_rf * max(map(abs, weight.values())) > 0.1 * math.pi:
        warnings.warn("Omega_rf exceeds 10% of the smallest hyperfine splitting; "
                      "the static-limit clock-shift formula degrades", stacklevel=2)
    states = reduced_table(level).states
    return -math.fsum((mod_hz := abs(amp / TWO_PI)) * mod_hz * weight[states[row].F.twice]
                      for row, amp in amplitudes(level, trap, k))


def _clock_weights(level: LevelSpec, two_f: int) -> tuple[int, dict[int, float]]:
    """The table index k of |F,0>, and {2F': 1/(2*(E_F' - E_F)) in 1/Hz} for
    every F' of the level (0 for F' = F), for twice F."""
    energies = level.hyperfine_energies_hz
    if energies is None:
        raise InvalidInputError(f"level {level.label or '?'} has no hyperfine energies")
    check_projection(two_f, 0, "F")   # a half-integer F has no m = 0
    e_hz = dict(zip(level.f_twice(), energies.values()))   # in F order (per_f)
    return reduced_table(level).rows[two_f, 0], {
        fp: 0.0 if fp == two_f else 0.5 / (e - e_hz[two_f]) for fp, e in e_hz.items()}


def hyperfine_average(per_f_shifts: Mapping[Momentum, float],
                      level: LevelSpec) -> float:
    """Equal-weight mean of per-F clock shifts over every F of `level`.

    With equal weights over the 2J+1 hyperfine levels (I >= J), the dm = 0
    contributions cancel pairwise because each (F, F') pair enters twice with
    opposite-sign denominators.  The shifts must cover every F of the level
    and no other (LevelSpec.per_f), and they are summed in f_values() order.
    """
    shifts = level.per_f(per_f_shifts, "a shift")
    _equal_weight_levels(level)
    return sum(shifts.values()) / len(shifts)


def _equal_weight_levels(level: LevelSpec) -> range:
    """Twice the level's F values; raises unless there are 2J + 1 of them (I >= J)."""
    fs = level.f_twice()
    if len(fs) != level.electronic_j.twice + 1:
        raise InvalidInputError("equal-weight averaging assumes I >= J (2J+1 F levels)")
    return fs


@dataclass(frozen=True)
class ClockTransition:
    """A clock transition from a (quadrupole-free) ground state to `level`."""

    level: LevelSpec
    frequency_hz: float

    def __post_init__(self):
        if not 0 < self.frequency_hz < math.inf:
            raise InvalidInputError("transition frequency must be positive and finite")


@dataclass(frozen=True)
class ShiftDecomposition:
    """Fractional clock shift dnu/nu = a*(f2 + eta*f1) for a linear trap."""

    a: float
    eta: float
    frequency_hz: float

    def fractional_shift(self, angles: EulerAngles) -> float:
        return self.a * (orientation_f2(angles) + self.eta * orientation_f1(angles))

    def shift_hz(self, angles: EulerAngles) -> float:
        return self.fractional_shift(angles) * self.frequency_hz


def shift_decomposition(transition: ClockTransition,
                        trap: TrapConfig) -> ShiftDecomposition:
    """Split the hyperfine-averaged clock shift into (a, eta) weights.

    Only the |dm| = 1 and |dm| = 2 channels survive hyperfine averaging; their
    orientation dependence factors into f1 and f2, so the average shift is
    a*nu*(f2 + eta*f1) for every trap orientation.  Requires A = 0 and
    epsilon != 0 (a linear trap, where f1, f2 are defined) and, as
    hyperfine_average does, I >= J.
    """
    if trap.A != 0.0 or trap.epsilon == 0.0:
        raise InvalidInputError("shift decomposition into (f1, f2) applies to "
                                "traps with A = 0 and epsilon != 0 only")
    level = transition.level
    fs = _equal_weight_levels(level)

    # |coupling|^2 in Hz^2 with the orientation factor, whose squared modulus
    # is f1 or f2, divided out: (reduced * Theta*eps*sqrt(2/3)*e*a0^2/hbar)^2
    bare = (level.theta_e_a02 * gradient_components(0.0, trap.epsilon)[2]
            * CODATA2018.e_a0_squared / CODATA2018.hbar / TWO_PI)
    table = reduced_table(level)
    terms = {2: [], 4: []}   # by |dm| twice, from each |F,0> to its partners
    for f in fs:
        k, weight = _clock_weights(level, f)
        for row, red in zip(*table.columns[k][:2]):
            state, coupled = table.states[row], bare * red
            if abs(state.m.twice) in terms:
                terms[abs(state.m.twice)].append(
                    -(coupled * coupled) * weight[state.F.twice] / len(fs))
    w1, w2 = math.fsum(terms[2]), math.fsum(terms[4])
    return ShiftDecomposition(a=w2 / transition.frequency_hz, eta=w1 / w2,
                              frequency_hz=transition.frequency_hz)
