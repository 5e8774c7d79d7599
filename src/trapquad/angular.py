"""Angular momentum algebra: Wigner 3j/6j symbols and rank-2 rotations.

Quantum numbers are held as :class:`HalfInt` (twice the value, as an int) so
half-integers compare exactly.  The 3j/6j symbols are evaluated with the Racah
single-sum formulas on exact integer factorials: each term and the squared
prefactor is one int/int division, which Python rounds correctly, and only
the final combination is done in floating point.  Rotations follow the passive
z-y-z Euler convention with the first rotation (alpha) about z and gamma = 0,
so D2(mp, m; alpha, beta) = d2(mp, m; beta) * exp(i*m*alpha).  Every d2
entry comes from Wigner's single sum (Varshalovich et al. 1988, sec. 4.3.1);
its sign convention is pinned in tests/test_angular.py against exp(+i*beta*Jy).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import total_ordering
from typing import Union

from .errors import InvalidInputError

Momentum = Union["HalfInt", int, float]

@total_ordering
class HalfInt:
    """An exact integer or half-integer, stored as twice its value.  Any other
    value, NaN and infinities included, raises InvalidInputError, compares
    unequal and cannot be ordered against one."""

    __slots__ = ("twice",)

    def __init__(self, value: Momentum):
        if isinstance(value, HalfInt):
            self.twice = value.twice
            return
        doubled = 2 * value
        try:
            rounded = round(doubled)
        except (ValueError, OverflowError):  # NaN; an infinite doubled value
            raise InvalidInputError(f"{value!r} is NaN, infinite or too large") from None
        if abs(doubled - rounded) > 1e-9:
            raise InvalidInputError(
                f"{value!r} is not an integer or half-integer"
            )
        self.twice = int(rounded)

    @classmethod
    def from_twice(cls, twice: int) -> "HalfInt":
        obj = cls.__new__(cls)
        obj.twice = int(twice)
        return obj

    def __float__(self) -> float:
        return self.twice / 2.0

    def __int__(self) -> int:
        if self.twice % 2:
            raise InvalidInputError(f"{self!r} is not an integer")
        return self.twice // 2

    def __neg__(self) -> "HalfInt":
        return HalfInt.from_twice(-self.twice)

    def __eq__(self, other) -> bool:
        if isinstance(other, HalfInt):
            return self.twice == other.twice
        try:
            return self.twice == HalfInt(other).twice
        except (InvalidInputError, TypeError):
            return NotImplemented

    def __lt__(self, other) -> bool:
        return self.twice < HalfInt(other).twice

    def __hash__(self) -> int:
        return hash(self.twice / 2.0)

    def __repr__(self) -> str:
        if self.twice % 2 == 0:
            return str(self.twice // 2)
        return f"{self.twice}/2"


@dataclass(frozen=True)
class EulerAngles:
    """Passive z-y-z Euler rotation (alpha about z first, then beta; gamma = 0).
    A -0.0 angle is stored as +0.0, so equal angles are equal bit for bit."""

    alpha: float = 0.0
    beta: float = 0.0

    def __post_init__(self):
        if not (math.isfinite(self.alpha) and math.isfinite(self.beta)):
            raise InvalidInputError("Euler angles must be finite")
        object.__setattr__(self, "alpha", self.alpha + 0.0)
        object.__setattr__(self, "beta", self.beta + 0.0)


def check_projection(j: HalfInt, m: HalfInt, name: str) -> None:
    """Raise InvalidInputError unless j >= 0, |m| <= j and j - m is an integer."""
    if j.twice < 0:
        raise InvalidInputError(f"negative angular momentum {name}={j!r}")
    if abs(m.twice) > j.twice:
        raise InvalidInputError(f"projection |m|>{name}: m={m!r}, {name}={j!r}")
    if (j.twice - m.twice) % 2:
        raise InvalidInputError(
            f"projection parity mismatch: m={m!r} for {name}={j!r}"
        )


def triangle_ok(a: int, b: int, c: int) -> bool:
    """|a - b| <= c <= a + b with an integer perimeter a + b + c, on twice-values."""
    return abs(a - b) <= c <= a + b and (a + b + c) % 2 == 0


def _triangle_coefficient(a: int, b: int, c: int) -> tuple[int, int]:
    """Delta(abc)^2 = (a+b-c)!(a-b+c)!(-a+b+c)!/(a+b+c+1)! of twice-values,
    as the exact pair (numerator, denominator)."""
    fac = math.factorial
    return (fac((a + b - c) // 2) * fac((a - b + c) // 2) * fac((-a + b + c) // 2),
            fac((a + b + c) // 2 + 1))


def _racah_close(num: int, den: int, terms: list[float]) -> float:
    """sqrt(num / den) * fsum(terms), and exactly +0.0 when the sum is zero."""
    total = math.fsum(terms)
    if total == 0.0:
        return 0.0
    return math.sqrt(num / den) * total


def wigner_3j(j1: Momentum, j2: Momentum, j3: Momentum,
              m1: Momentum, m2: Momentum, m3: Momentum) -> float:
    """Wigner 3j symbol (j1 j2 j3 / m1 m2 m3).

    Returns exactly 0.0 when the triangle rule or m1+m2+m3=0 fails; raises
    InvalidInputError for malformed quantum numbers.  The squared prefactor
    is the triangle coefficient Delta(j1 j2 j3) times the six (j +- m)!.
    """
    j1, j2, j3 = HalfInt(j1), HalfInt(j2), HalfInt(j3)
    m1, m2, m3 = HalfInt(m1), HalfInt(m2), HalfInt(m3)
    for j, m, name in ((j1, m1, "j1"), (j2, m2, "j2"), (j3, m3, "j3")):
        check_projection(j, m, name)
    if m1.twice + m2.twice + m3.twice != 0:
        return 0.0
    if not triangle_ok(j1.twice, j2.twice, j3.twice):
        return 0.0

    fac = math.factorial
    # factorial arguments, all guaranteed non-negative integers here
    a1 = (j1.twice + j2.twice - j3.twice) // 2
    jm = [
        (j1.twice + m1.twice) // 2, (j1.twice - m1.twice) // 2,
        (j2.twice + m2.twice) // 2, (j2.twice - m2.twice) // 2,
        (j3.twice + m3.twice) // 2, (j3.twice - m3.twice) // 2,
    ]

    # squared prefactor as an exact integer ratio, divided once
    num, den = _triangle_coefficient(j1.twice, j2.twice, j3.twice)
    for f in jm:
        num *= fac(f)

    t1 = (j2.twice - j3.twice - m1.twice) // 2
    t2 = (j1.twice - j3.twice + m2.twice) // 2
    tmin = max(0, t1, t2)
    tmax = min(a1, jm[1], jm[2])

    # the phase (-1)^(j1-j2-m3) rides on each term: fsum(-x) is -fsum(x) exactly
    phase = (j1.twice - j2.twice - m3.twice) // 2
    terms = []
    for t in range(tmin, tmax + 1):
        denom = (fac(t) * fac(t - t1) * fac(t - t2)
                 * fac(a1 - t) * fac(jm[1] - t) * fac(jm[2] - t))
        terms.append((-1.0) ** (t + phase) * (1 / denom))
    return _racah_close(num, den, terms)


def wigner_6j(j1: Momentum, j2: Momentum, j3: Momentum,
              j4: Momentum, j5: Momentum, j6: Momentum) -> float:
    """Wigner 6j symbol {j1 j2 j3 / j4 j5 j6}.

    Returns 0.0 when any of the four triads violates the triangle rules;
    the squared prefactor is the product of their triangle coefficients.
    """
    js = [HalfInt(j) for j in (j1, j2, j3, j4, j5, j6)]
    for j in js:
        if j.twice < 0:
            raise InvalidInputError(f"negative angular momentum {j!r}")
    t1, t2, t3, t4, t5, t6 = (j.twice for j in js)

    triads = ((t1, t2, t3), (t1, t5, t6), (t4, t2, t6), (t4, t5, t3))
    if not all(triangle_ok(*tri) for tri in triads):
        return 0.0

    fac = math.factorial
    num = den = 1
    for tri in triads:
        n, d = _triangle_coefficient(*tri)
        num, den = num * n, den * d

    sums = [(t1 + t2 + t3) // 2, (t1 + t5 + t6) // 2,
            (t4 + t2 + t6) // 2, (t4 + t5 + t3) // 2]
    quads = [(t1 + t2 + t4 + t5) // 2, (t2 + t3 + t5 + t6) // 2,
             (t3 + t1 + t6 + t4) // 2]

    kmin = max(sums)
    kmax = min(quads)
    terms = []
    for k in range(kmin, kmax + 1):
        denom = 1
        for s in sums:
            denom *= fac(k - s)
        for q in quads:
            denom *= fac(q - k)
        terms.append((-1.0) ** k * (fac(k + 1) / denom))
    return _racah_close(num, den, terms)


_RANK = HalfInt(2)


def wigner_d2(mp: Momentum, m: Momentum, beta: float) -> float:
    """Passive rank-2 little-d element d2_{mp,m}(beta), by Wigner's sum.

    The passive matrix is the transpose of the active one.  With c, s the
    cosine and sine of beta/2, and k over the non-negative factorials,
    d2_{mp,m} = sum_k (-1)^(k-mp+m) sqrt((2+m)!(2-m)!(2+mp)!(2-mp)!)
                / ((2+mp-k)! k! (2-k-m)! (k-mp+m)!) c^(4-2k+mp-m) s^(2k-mp+m).
    """
    mp, m = HalfInt(mp), HalfInt(m)
    check_projection(_RANK, mp, "rank")
    check_projection(_RANK, m, "rank")
    if not math.isfinite(beta):
        raise InvalidInputError(f"beta must be finite, not {beta!r}")
    mp, m = int(mp), int(m)
    fac = math.factorial
    c, s = math.cos(0.5 * beta), math.sin(0.5 * beta)
    total = 0.0
    for k in range(max(0, mp - m), min(2 + mp, 2 - m) + 1):
        denom = fac(2 + mp - k) * fac(k) * fac(2 - k - m) * fac(k - mp + m)
        total += ((-1) ** (k - mp + m) / denom
                  * c ** (4 - 2 * k + mp - m) * s ** (2 * k - mp + m))
    return math.sqrt(fac(2 + m) * fac(2 - m) * fac(2 + mp) * fac(2 - mp)) * total


def wigner_D2(mp: Momentum, m: Momentum, angles: EulerAngles) -> complex:
    """Rank-2 rotation matrix element D2_{mp,m}(alpha, beta, gamma=0).

    Passive convention with alpha applied first, so the alpha phase rides on
    the second index: D2_{mp,m} = d2_{mp,m}(beta) * exp(i*m*alpha).
    """
    mp, m = HalfInt(mp), HalfInt(m)
    d = wigner_d2(mp, m, angles.beta)
    return d * complex(math.cos(int(m) * angles.alpha),
                       math.sin(int(m) * angles.alpha))
