"""Quadrupole interaction matrix elements over hyperfine states.

The interaction with the trap's oscillating field gradient is
H_Q = -2A*T0 + eps*sqrt(2/3)*(T2 + T-2), where Tq are the principal-frame
spherical components of the rank-2 quadrupole operator.  Laboratory-frame
matrix elements follow from the IJ-coupling reduced element, normalised so
the stretched expectation value <JJ|T0|JJ> equals the quadrupole moment
Theta(J):

  <(IJ)F'mu'|Tq|(IJ)F mu> = (-1)^(F'+F+I+J+mu') sqrt((2F'+1)(2F+1))
      * {F F' 2; J J I} * (F 2 F'; mu dmu -mu') / (J 2 J; -J 0 J)
      * Theta(J) * D2_{dmu,q}(alpha, beta)

with dmu = mu' - mu.  All but Theta(J) and D2 depends on (I, J) alone and
is computed once per (I, J) into a cached ReducedTable.  A trap adds five
channel factors c[dmu] = sum_q grad_q D2_{dmu,q} e*a0^2/hbar, and
H_Q/hbar = Theta * reduced * c[dmu] elementwise; every coupling in the
package is read this way.  Amplitudes are in rad/s, the coefficient of
cos(Omega_rf t); no rotating-wave factor is applied here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Mapping, Sequence

import numpy as np

from .angular import EulerAngles, HalfInt, Momentum, wigner_3j, wigner_6j, wigner_D2
from .errors import InvalidInputError
from .trap import CODATA2018, TrapConfig

_SQRT23 = math.sqrt(2.0 / 3.0)


@dataclass(frozen=True)
class HyperfineState:
    """A |F, m> state."""

    F: HalfInt
    m: HalfInt

    def __init__(self, F: Momentum, m: Momentum):
        F, m = HalfInt(F), HalfInt(m)
        if F.twice < 0 or abs(m.twice) > F.twice or (F.twice - m.twice) % 2:
            raise InvalidInputError(f"invalid hyperfine state F={F!r}, m={m!r}")
        object.__setattr__(self, "F", F)
        object.__setattr__(self, "m", m)

    def __repr__(self) -> str:
        return f"|{self.F},{self.m}>"


@dataclass(frozen=True)
class LevelSpec:
    """An atomic fine-structure level with quadrupole moment Theta(J).

    theta_e_a02 is Theta(J) in units of e*a0^2.  hyperfine_energies maps F to
    the level energy in Hz (times h); it is required only for I > 0 levels
    used in clock-shift sums.
    """

    nuclear_spin: HalfInt
    electronic_j: HalfInt
    theta_e_a02: float
    hyperfine_energies_hz: Mapping[HalfInt, float] | None = None
    label: str = ""

    def __init__(self, nuclear_spin: Momentum, electronic_j: Momentum,
                 theta_e_a02: float, hyperfine_energies_hz=None,
                 label: str = ""):
        nuclear_spin = HalfInt(nuclear_spin)
        electronic_j = HalfInt(electronic_j)
        if nuclear_spin.twice < 0 or electronic_j.twice < 0:
            raise InvalidInputError("I and J must be non-negative")
        if not math.isfinite(theta_e_a02):
            raise InvalidInputError("Theta(J) must be finite")
        object.__setattr__(self, "nuclear_spin", nuclear_spin)
        object.__setattr__(self, "electronic_j", electronic_j)
        object.__setattr__(self, "theta_e_a02", float(theta_e_a02))
        if hyperfine_energies_hz is not None:
            energies = {HalfInt(f): float(e) for f, e in hyperfine_energies_hz.items()}
            fs = self._f_range(nuclear_spin, electronic_j)
            for f in energies:
                if f not in fs:
                    raise InvalidInputError(
                        f"F={f!r} outside |I-J|..I+J for I={nuclear_spin!r}, "
                        f"J={electronic_j!r}"
                    )
            if len(set(energies.values())) != len(energies):
                raise InvalidInputError("hyperfine energies must be distinct")
            object.__setattr__(self, "hyperfine_energies_hz", energies)
        else:
            object.__setattr__(self, "hyperfine_energies_hz", None)
        object.__setattr__(self, "label", label)

    @staticmethod
    def _f_range(i: HalfInt, j: HalfInt) -> list[HalfInt]:
        lo, hi = abs(i.twice - j.twice), i.twice + j.twice
        return [HalfInt.from_twice(t) for t in range(lo, hi + 1, 2)]

    def f_values(self) -> list[HalfInt]:
        return self._f_range(self.nuclear_spin, self.electronic_j)

    def validate_f(self, F: Momentum) -> HalfInt:
        F = HalfInt(F)
        if F not in self.f_values():
            raise InvalidInputError(
                f"F={F!r} invalid for I={self.nuclear_spin!r}, "
                f"J={self.electronic_j!r}"
            )
        return F

    def manifold(self, F: Momentum) -> list[HyperfineState]:
        """All |F, m> states of one hyperfine level, m ascending."""
        F = self.validate_f(F)
        return [HyperfineState(F, HalfInt.from_twice(tm))
                for tm in range(-F.twice, F.twice + 1, 2)]

    def hyperfine_energy(self, F: Momentum) -> float:
        if self.hyperfine_energies_hz is None:
            raise InvalidInputError(
                f"level {self.label or '?'} has no hyperfine energies"
            )
        F = self.validate_f(F)
        try:
            return self.hyperfine_energies_hz[F]
        except KeyError:
            raise InvalidInputError(
                f"hyperfine energy for F={F!r} missing from level "
                f"{self.label or '?'}"
            ) from None


def gradient_components(A: float, epsilon: float) -> dict[int, float]:
    """Spherical components of the field-gradient tensor on principal axes.

    Returns {q: grad_q} with grad_0 = -2A, grad_(+-1) = 0,
    grad_(+-2) = eps*sqrt(2/3), all in V/m^2.
    """
    g2 = epsilon * _SQRT23
    return {0: -2.0 * A, 1: 0.0, -1: 0.0, 2: g2, -2: g2}


@dataclass(frozen=True)
class ReducedTable:
    """The orientation-free part of H_Q over every |F,m> of a level, in units
    of Theta(J), states ordered by (F ascending, m ascending).  reduced[i, k]
    couples states[k] to states[i] through dmu = m_i - m_k, held in
    channel[i, k] as dmu + 2 (as 0 where |dmu| > 2 and reduced is 0).  All
    arrays are read-only."""

    states: tuple[HyperfineState, ...]
    f_twice: np.ndarray
    m_twice: np.ndarray
    reduced: np.ndarray
    channel: np.ndarray


def reduced_table(level: LevelSpec) -> ReducedTable:
    """The level's ReducedTable, built once per (I, J)."""
    return _build_table(level.nuclear_spin.twice, level.electronic_j.twice)


def table_index(level: LevelSpec, state: HyperfineState) -> int:
    """Position of a state of `level` in reduced_table(level)."""
    f_twice = level.validate_f(state.F).twice
    start = int(np.searchsorted(reduced_table(level).f_twice, f_twice))
    return start + (f_twice + state.m.twice) // 2


@lru_cache(maxsize=None)
def _build_table(two_i: int, two_j: int) -> ReducedTable:
    i, j = HalfInt.from_twice(two_i), HalfInt.from_twice(two_j)
    fs = LevelSpec._f_range(i, j)
    states = [HyperfineState(f, HalfInt.from_twice(tm))
              for f in fs for tm in range(-f.twice, f.twice + 1, 2)]
    f2 = np.array([s.F.twice for s in states])
    m2 = np.array([s.m.twice for s in states])
    dmu2 = m2[:, None] - m2[None, :]
    channel = np.where(np.abs(dmu2) <= 4, dmu2 // 2 + 2, 0)
    reduced = np.zeros(channel.shape)
    if two_j >= 2:  # no rank-2 support below J = 1
        norm = wigner_3j(j, 2, j, -j, 0, j)
        six = {(fp.twice, f.twice): wigner_6j(f, fp, 2, j, j, i) / norm
               for fp in fs for f in fs}
        for row, k in zip(*np.nonzero(np.tril(np.abs(dmu2) <= 4))):
            bra, ket = states[row], states[k]
            scale = six[bra.F.twice, ket.F.twice]
            if scale == 0.0:
                continue
            three = wigner_3j(ket.F, 2, bra.F, ket.m,
                              HalfInt.from_twice(dmu2[row, k]), -bra.m)
            # F'+F+I+J+mu' is an integer for every state of the level
            phase = (bra.F.twice + ket.F.twice + two_i + two_j + bra.m.twice) // 2
            reduced[row, k] = ((-1.0) ** phase * three * scale
                               * math.sqrt((bra.F.twice + 1.0) * (ket.F.twice + 1.0)))
        # the upper triangle follows from <k|T|i> = (-1)^dmu <i|T|k>
        reduced += np.tril(reduced, -1).T * (-1.0) ** (dmu2 // 2)
    for array in (f2, m2, reduced, channel):
        array.flags.writeable = False
    return ReducedTable(tuple(states), f2, m2, reduced, channel)


@lru_cache(maxsize=64)
def _channel_factors(A: float, epsilon: float,
                     orientation: EulerAngles) -> np.ndarray:
    """c[dmu + 2] = sum_q grad_q D2_{dmu,q}(alpha, beta) e*a0^2/hbar, read-only."""
    grads = gradient_components(A, epsilon)
    c = np.array([sum(grads[q] * wigner_D2(dmu, q, orientation)
                      for q in (-2, 0, 2) if grads[q] != 0.0)
                  for dmu in range(-2, 3)], dtype=complex)
    c *= CODATA2018.e_a0_squared / CODATA2018.hbar
    c.flags.writeable = False
    return c


def amplitudes(level: LevelSpec, trap: TrapConfig, key) -> np.ndarray:
    """New array of H_Q/hbar (rad/s) at the `key` entries of the level's table."""
    table = reduced_table(level)
    c = _channel_factors(trap.A, trap.epsilon, trap.orientation)
    return level.theta_e_a02 * table.reduced[key] * c[table.channel[key]]


def theta_matrix_element(level: LevelSpec, bra: HyperfineState,
                         ket: HyperfineState, q: int,
                         angles: EulerAngles) -> complex:
    """<bra|Tq|ket> of the principal-frame rank-2 component, in units of e*a0^2."""
    if q not in (-2, -1, 0, 1, 2):
        raise InvalidInputError(f"rank-2 component q={q} out of range")
    i, k = table_index(level, bra), table_index(level, ket)
    pref = reduced_table(level).reduced[i, k]
    if pref == 0.0:  # also every |dmu| > 2, where D2 is undefined
        return 0.0j
    dmu = (bra.m.twice - ket.m.twice) // 2
    return complex(level.theta_e_a02 * pref * wigner_D2(dmu, q, angles))


def coupling_amplitude(level: LevelSpec, bra: HyperfineState,
                       ket: HyperfineState, trap: TrapConfig) -> complex:
    """<bra|H_Q|ket>/hbar in rad/s, the coefficient of cos(Omega_rf t)."""
    key = (table_index(level, bra), table_index(level, ket))
    return complex(amplitudes(level, trap, key))


@dataclass(frozen=True)
class QuadCouplingMatrix:
    """Hermitian cos(Omega_rf t) amplitude matrix of H_Q/hbar over |F,m> states."""

    basis: tuple[HyperfineState, ...]
    amplitude: np.ndarray  # rad/s, complex

    def index(self, state: HyperfineState) -> int:
        try:
            return self.basis.index(state)
        except ValueError:
            raise InvalidInputError(f"{state!r} not in basis") from None

    def element(self, bra: HyperfineState, ket: HyperfineState) -> complex:
        return complex(self.amplitude[self.index(bra), self.index(ket)])


def hq_matrix(level: LevelSpec, trap: TrapConfig,
              manifold: Iterable[Momentum] | Sequence[Momentum]) -> QuadCouplingMatrix:
    """Assemble H_Q/hbar (rad/s) over the given hyperfine levels F.

    Basis states are ordered by (F ascending, m ascending); each F may be
    listed once.
    """
    fs = sorted((level.validate_f(F) for F in manifold), key=lambda f: f.twice)
    if not fs:
        raise InvalidInputError("manifold must contain at least one F level")
    if len({f.twice for f in fs}) != len(fs):
        raise InvalidInputError(f"manifold lists an F level more than once: {fs}")
    table = reduced_table(level)
    idx = np.flatnonzero(np.isin(table.f_twice, [f.twice for f in fs]))
    return QuadCouplingMatrix(basis=tuple(table.states[i] for i in idx),
                              amplitude=amplitudes(level, trap, np.ix_(idx, idx)))


def c2_coefficient(level: LevelSpec, F: Momentum, m: Momentum) -> float:
    """Diagonal rank-2 weight C2_{F,m}, normalised to 1 at the I=0 stretched state.

    C2_{F,m} = (-1)^(2F+I+J+m) (2F+1) {F F 2; J J I} (F 2 F; m 0 -m)
               / (J 2 J; -J 0 J).
    """
    k = table_index(level, HyperfineState(level.validate_f(F), HalfInt(m)))
    return float(reduced_table(level).reduced[k, k])
