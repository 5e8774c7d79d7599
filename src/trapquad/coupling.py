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
is computed once per (I, J) into a cached ReducedTable, which maps each
state to its row and holds each column's nonzero entries.  A trap adds five
channel factors c[dmu] = sum_q grad_q D2_{dmu,q} e*a0^2/hbar, computed once
per trap for every level, and H_Q/hbar = Theta * reduced * c[dmu] at each
nonzero entry: in Python numbers in `amplitudes` and `amplitude`, which every
per-state read goes through, and in numpy, to the same bits, in hq_matrix,
the one function here that imports numpy.  Amplitudes are in rad/s, the
coefficient of cos(Omega_rf t); no rotating-wave factor is applied here.
"""

from __future__ import annotations

import math
from array import array
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from functools import lru_cache
from typing import TYPE_CHECKING, Iterable, Mapping, Sequence

from .angular import (EulerAngles, HalfInt, Momentum, check_projection, doubled, shown,
                      triangle_ok, wigner_3j_twice, wigner_6j_twice, wigner_D2_twice)
from .errors import InvalidInputError
from .trap import CODATA2018, TrapConfig

if TYPE_CHECKING:
    import numpy as np

_SQRT23 = math.sqrt(2.0 / 3.0)


@dataclass(frozen=True)
class HyperfineState:
    """A |F, m> state."""

    F: HalfInt
    m: HalfInt

    def __init__(self, F: Momentum, m: Momentum):
        two_f, two_m = doubled(F), doubled(m)
        check_projection(two_f, two_m, "F")
        object.__setattr__(self, "F", HalfInt.from_twice(two_f))
        object.__setattr__(self, "m", HalfInt.from_twice(two_m))

    def __repr__(self) -> str:
        return f"|{self.F},{self.m}>"


def _each_f_once(two_fs: list[int], what: str) -> list[int]:
    """`two_fs` (twice each F), unless two name one F: then InvalidInputError
    naming it, as a second energy would replace the first without a word."""
    seen = set()
    for two_f in two_fs:
        if two_f in seen:
            raise InvalidInputError(f"{what} F={shown(two_f)} more than once")
        seen.add(two_f)
    return two_fs


@dataclass(frozen=True)
class LevelSpec:
    """An atomic fine-structure level with quadrupole moment Theta(J).

    theta_e_a02 is Theta(J) in units of e*a0^2, stored as +0.0 when it is
    -0.0, so equal values are equal bit for bit.  hyperfine_energies_hz, when
    given, maps every F of the level, and no other (per_f), to a distinct
    energy in Hz (times h); clock-shift sums need it for I > 0 levels.
    """

    nuclear_spin: HalfInt
    electronic_j: HalfInt
    theta_e_a02: float
    hyperfine_energies_hz: Mapping[HalfInt, float] | None = None
    label: str = ""

    def __init__(self, nuclear_spin: Momentum, electronic_j: Momentum,
                 theta_e_a02: float, hyperfine_energies_hz=None,
                 label: str = ""):
        two_i, two_j = doubled(nuclear_spin), doubled(electronic_j)
        if two_i < 0 or two_j < 0:
            raise InvalidInputError("I and J must be non-negative")
        if not math.isfinite(theta_e_a02):
            raise InvalidInputError("Theta(J) must be finite")
        object.__setattr__(self, "nuclear_spin", HalfInt.from_twice(two_i))
        object.__setattr__(self, "electronic_j", HalfInt.from_twice(two_j))
        object.__setattr__(self, "theta_e_a02", float(theta_e_a02) + 0.0)
        object.__setattr__(self, "label", label)
        energies = None
        if hyperfine_energies_hz is not None:
            energies = self.per_f(hyperfine_energies_hz, "a hyperfine energy")
            if not (all(map(math.isfinite, energies.values()))
                    and len(set(energies.values())) == len(energies)):
                raise InvalidInputError("hyperfine energies must be finite and unique")
        object.__setattr__(self, "hyperfine_energies_hz", energies)

    def f_twice(self) -> range:
        """Twice each F of the level, ascending."""
        two_i, two_j = self.nuclear_spin.twice, self.electronic_j.twice
        return range(abs(two_i - two_j), two_i + two_j + 1, 2)

    def f_values(self) -> list[HalfInt]:
        return [HalfInt.from_twice(t) for t in self.f_twice()]

    def per_f(self, values: Mapping[Momentum, float], what: str) -> dict[HalfInt, float]:
        """`values` as {F: float} in F order; raises InvalidInputError, naming the
        repeated, the missing and the extra F, unless it has one entry for
        every F of the level and no other."""
        keys = _each_f_once([doubled(f) for f in values],
                           f"level {self.label or '?'} has {what} for")
        by_f = dict(zip(keys, map(float, values.values())))
        fs = self.f_twice()
        missing = [HalfInt.from_twice(t) for t in fs if t not in by_f]
        extra = [HalfInt.from_twice(t) for t in by_f if t not in fs]
        if missing or extra:
            raise InvalidInputError(
                f"level {self.label or '?'} needs {what} for each F in {self.f_values()} "
                f"and no other; missing F={missing}, extra F={extra}")
        return {HalfInt.from_twice(t): by_f[t] for t in fs}

    def validate_f(self, F: Momentum) -> int:
        """Twice F, which must be one of the level's F values."""
        two_f = doubled(F)
        if not triangle_ok(self.nuclear_spin.twice, self.electronic_j.twice, two_f):
            raise InvalidInputError(
                f"F={shown(two_f)} invalid for I={self.nuclear_spin!r}, "
                f"J={self.electronic_j!r}"
            )
        return two_f

    def manifold(self, F: Momentum) -> list[HyperfineState]:
        """All |F, m> states of one hyperfine level, m ascending."""
        two_f = self.validate_f(F)
        f = HalfInt.from_twice(two_f)
        return [HyperfineState(f, HalfInt.from_twice(tm))
                for tm in range(-two_f, two_f + 1, 2)]


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
    of Theta(J), states ordered by (F ascending, m ascending); rows maps each
    state's (2F, 2m) to its position.  columns[k] = (rows, reduced, channel)
    holds column k's nonzero entries in row order: reduced[n] couples
    states[k] to states[rows[n]] through dmu = m_row - m_k, held in
    channel[n] as dmu + 2; every other entry is 0.  flat packs them column by
    column as bytes: row * len(states) + k ("q"), reduced ("d"), channel ("b")."""

    states: tuple[HyperfineState, ...]
    rows: Mapping[tuple[int, int], int]
    columns: tuple[tuple[tuple[int, ...], tuple[float, ...], tuple[int, ...]], ...]
    flat: tuple[bytes, bytes, bytes]


def reduced_table(level: LevelSpec) -> ReducedTable:
    """The level's ReducedTable, built once per (I, J)."""
    return _build_table(level.nuclear_spin.twice, level.electronic_j.twice)


def table_index(level: LevelSpec, F: Momentum, m: Momentum) -> int:
    """Position of the state |F, m> of `level` in reduced_table(level)."""
    two_f, two_m = doubled(F), doubled(m)
    row = reduced_table(level).rows.get((two_f, two_m))
    if row is None:  # every |F,m> of a valid F is in the table
        check_projection(two_f, two_m, "F")
        level.validate_f(F)
    return row


@lru_cache(maxsize=None)
def _build_table(two_i: int, two_j: int) -> ReducedTable:
    level = LevelSpec(HalfInt.from_twice(two_i), HalfInt.from_twice(two_j), 1.0)
    states = [s for f in level.f_values() for s in level.manifold(f)]
    fm = [(s.F.twice, s.m.twice) for s in states]
    rows = {key: row for row, key in enumerate(fm)}
    entries = [[] for _ in fm]   # (row, reduced, channel) of each nonzero entry
    if two_j >= 2:  # no rank-2 support below J = 1
        norm, fs = wigner_3j_twice(two_j, 4, two_j, -two_j, 0, two_j), level.f_twice()
        six = {(fp, f): wigner_6j_twice(f, fp, 4, two_j, two_j, two_i) / norm
               for fp in fs for f in fs}
        for k, (ket_f, ket_m) in enumerate(fm):
            # the lower triangle's partners, in row order: each F' >= F with
            # a nonzero 6j, and in it each m' within 2 of m (m' >= m at F' = F)
            for bra_f in range(ket_f, fs.stop, 2):
                if (scale := six[bra_f, ket_f]) == 0.0:
                    continue
                low = ket_m if bra_f == ket_f else max(ket_m - 4, -bra_f)
                for bra_m in range(low, min(ket_m + 4, bra_f) + 1, 2):
                    row, dmu = rows[bra_f, bra_m], (bra_m - ket_m) // 2
                    three = wigner_3j_twice(ket_f, 4, bra_f, ket_m, bra_m - ket_m, -bra_m)
                    # F'+F+I+J+mu' is an integer for every state of the level
                    phase = (bra_f + ket_f + two_i + two_j + bra_m) // 2
                    value = ((-1.0) ** phase * three * scale
                             * math.sqrt((bra_f + 1.0) * (ket_f + 1.0)))
                    if value != 0.0:
                        entries[k].append((row, value, dmu + 2))
                        if row > k:  # <k|T|row> = (-1)^dmu <row|T|k>
                            entries[row].append((k, value * (-1.0) ** dmu, 2 - dmu))
    flat = [(row * len(fm) + k, value, ch) for k, column in enumerate(entries)
            for row, value, ch in column]
    return ReducedTable(
        tuple(states), rows,
        tuple(tuple(map(tuple, zip(*column))) or ((), (), ()) for column in entries),
        tuple(array(code, part).tobytes()
              for code, part in zip("qdb", list(zip(*flat)) or [()] * 3)))


@lru_cache(maxsize=8)
def _channel_factors(trap: TrapConfig) -> tuple[complex, ...]:
    """c[dmu + 2] = sum_q grad_q D2_{dmu,q} e*a0^2/hbar, for every level."""
    grads = gradient_components(trap.A, trap.epsilon)
    scale = CODATA2018.e_a0_squared / CODATA2018.hbar
    return tuple(complex(sum(grads[q] * wigner_D2_twice(2 * dmu, 2 * q, trap.orientation)
                             for q in (-2, 0, 2) if grads[q] != 0.0)) * scale
                 for dmu in range(-2, 3))


def amplitudes(level: LevelSpec, trap: TrapConfig, k: int, first: float = 0,
               last: float = math.inf) -> list[tuple[int, complex]]:
    """(row, H_Q/hbar in rad/s) of each nonzero entry of column k of the
    level's table with first <= row <= last, in row order (every other entry
    is 0): Theta * reduced * c[channel], with the trap's channel factors c."""
    rows, reduced, channel = reduced_table(level).columns[k]
    theta, c = level.theta_e_a02, _channel_factors(trap)
    return [(rows[at], theta * reduced[at] * c[channel[at]])
            for at in range(bisect_left(rows, first), bisect_right(rows, last))]


def amplitude(level: LevelSpec, trap: TrapConfig, i: int, k: int) -> complex:
    """H_Q/hbar (rad/s) at row i, column k of the level's table, as amplitudes reads it."""
    rows, reduced, channel = reduced_table(level).columns[k]
    at = bisect_left(rows, i)
    if at == len(rows) or rows[at] != i:
        return 0j
    return level.theta_e_a02 * reduced[at] * _channel_factors(trap)[channel[at]]


def theta_matrix_element(level: LevelSpec, bra: HyperfineState,
                         ket: HyperfineState, q: int,
                         angles: EulerAngles) -> complex:
    """<bra|Tq|ket> of the principal-frame rank-2 component, in units of e*a0^2."""
    two_q = doubled(q)
    check_projection(4, two_q, "rank")
    i, k = table_index(level, bra.F, bra.m), table_index(level, ket.F, ket.m)
    pref = dict(zip(*reduced_table(level).columns[k][:2])).get(i, 0.0)
    if pref == 0.0:  # also every |dmu| > 2, where D2 is undefined
        return 0.0j
    dmu2 = bra.m.twice - ket.m.twice
    return complex(level.theta_e_a02 * pref * wigner_D2_twice(dmu2, two_q, angles))


@dataclass(frozen=True)
class QuadCouplingMatrix:
    """Hermitian cos(Omega_rf t) amplitude matrix of H_Q/hbar over |F,m> states."""

    basis: tuple[HyperfineState, ...]
    amplitude: np.ndarray  # rad/s, complex, built by hq_matrix

    def index(self, state: HyperfineState) -> int:
        try:
            return self.basis.index(state)
        except ValueError:
            raise InvalidInputError(f"{state!r} not in basis") from None

    def element(self, bra: HyperfineState, ket: HyperfineState) -> complex:
        return complex(self.amplitude[self.index(bra), self.index(ket)])


def manifold_rows(level: LevelSpec,
                  manifold: Iterable[Momentum] | Sequence[Momentum]) -> list[int]:
    """Table rows of the |F, m> of each F listed (once, and not none), in (F, m) order."""
    fs = _each_f_once([level.validate_f(F) for F in manifold], "manifold lists")
    if not fs:
        raise InvalidInputError("manifold must contain at least one F level")
    return [row for row, s in enumerate(reduced_table(level).states) if s.F.twice in fs]


def hq_matrix(level: LevelSpec, trap: TrapConfig,
              manifold: Iterable[Momentum] | Sequence[Momentum]) -> QuadCouplingMatrix:
    """H_Q/hbar (rad/s) over the states of manifold_rows(level, manifold), a new
    ndarray: numpy takes amplitudes' product over the level's table, bit for bit."""
    import numpy as np
    idx, table = manifold_rows(level, manifold), reduced_table(level)
    n = len(table.states)
    position, reduced, channel = map(np.frombuffer, table.flat, "qdb")
    dense, c = np.zeros((n, n), complex), np.array(_channel_factors(trap))
    dense.ravel()[position] = level.theta_e_a02 * reduced * c[channel]
    return QuadCouplingMatrix(tuple(table.states[i] for i in idx),
                              dense if len(idx) == n else dense[np.ix_(idx, idx)])


def c2_coefficient(level: LevelSpec, F: Momentum, m: Momentum) -> float:
    """Diagonal rank-2 weight C2_{F,m}, normalised to 1 at the I=0 stretched state.

    C2_{F,m} = (-1)^(2F+I+J+m) (2F+1) {F F 2; J J I} (F 2 F; m 0 -m)
               / (J 2 J; -J 0 J).
    """
    k = table_index(level, F, m)
    return dict(zip(*reduced_table(level).columns[k][:2])).get(k, 0.0)
