"""Angular momentum algebra: Wigner 3j/6j symbols and rank-2 rotations.

Each angular momentum enters the package once, through `doubled`, as twice
its value in an int; inside, every function takes these twice-values, and
`HalfInt` is only the type of the numbers handed back (F, m, I, J).  Each
public symbol parses its arguments and calls its `*_twice` core.  The 3j/6j
symbols are Racah single sums on exact integer factorials: each term and the
squared prefactor is one int/int division, which Python rounds correctly.
Rotations are passive z-y-z with alpha about z first and gamma = 0, so
D2(mp, m; alpha, beta) = d2(mp, m; beta) * exp(i*m*alpha); d2 is Wigner's
single sum (Varshalovich et al. 1988, sec. 4.3.1), its sign convention
pinned in tests/test_angular.py against exp(+i*beta*Jy).
"""

from __future__ import annotations

import math
import numbers
import re
import sys
from dataclasses import dataclass
from typing import Union

from .errors import InvalidInputError

# a user's angular momentum: a HalfInt, a number, or text such as "5/2" or "3"
Momentum = Union["HalfInt", int, float, str]


def doubled(value: Momentum) -> int:
    """Twice `value` as an int: the one rule for every angular momentum and
    projection that enters the package.  A HalfInt gives its twice-value; a
    number must lie within 1e-9 of an integer or half-integer, and text must
    read "n" or "n/2".  Raises InvalidInputError for anything else, NaN, an
    infinity, a value whose double is past the float range, or text of more
    digits than int() reads."""
    if isinstance(value, HalfInt):
        return value.twice
    if isinstance(value, str):
        match = re.fullmatch(r"(-?[0-9]+)(/2)?", value.strip())
        if match is None:
            raise InvalidInputError(f"{value!r} is not an integer or n/2")
        try:
            twice = int(match[1]) * (1 if match[2] else 2)
        except ValueError:  # int() reads at most sys.get_int_max_str_digits() digits
            raise InvalidInputError(f"text of {len(match[1])} digits is too long "
                                    "to read as a number") from None
    else:
        twice = 2 * value
    if not abs(twice) <= sys.float_info.max:  # also NaN
        # repr refuses an int of more than sys.get_int_max_str_digits() digits
        what = f"a {value.bit_length()}-bit int" if isinstance(value, int) else repr(value)
        raise InvalidInputError(f"{what} is NaN, infinite or too large")
    rounded = round(twice)
    if abs(twice - rounded) > 1e-9:
        raise InvalidInputError(f"{value!r} is not an integer or half-integer")
    return int(rounded)


class HalfInt:
    """An integer or half-integer, stored as twice its value: `doubled`'s
    result.  It equals, and hashes like, the number it stands for, and prints
    as "5/2" or "3"."""

    __slots__ = ("twice",)

    def __init__(self, value: Momentum):
        self.twice = doubled(value)

    @classmethod
    def from_twice(cls, twice: int) -> "HalfInt":
        obj = cls.__new__(cls)
        obj.twice = twice
        return obj

    def __eq__(self, other) -> bool:
        if isinstance(other, HalfInt):
            return self.twice == other.twice
        if isinstance(other, numbers.Real):
            return self.twice == 2 * other
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.twice / 2)

    def __repr__(self) -> str:
        return shown(self.twice)


def shown(twice: int) -> str:
    """A twice-value as the number it stands for: "5/2" or "3"."""
    return str(twice // 2) if twice % 2 == 0 else f"{twice}/2"


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


def check_projection(j: int, m: int, name: str) -> None:
    """Raise InvalidInputError unless j >= 0, |m| <= j and j - m is an
    integer, on twice-values."""
    if j < 0:
        raise InvalidInputError(f"negative angular momentum {name}={shown(j)}")
    if abs(m) > j or (j - m) % 2:
        raise InvalidInputError(f"m={shown(m)} is not a projection of {name}={shown(j)}")


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
    InvalidInputError for malformed quantum numbers.
    """
    js = [doubled(j) for j in (j1, j2, j3)]
    ms = [doubled(m) for m in (m1, m2, m3)]
    for j, m, name in zip(js, ms, ("j1", "j2", "j3")):
        check_projection(j, m, name)
    return wigner_3j_twice(*js, *ms)


def wigner_3j_twice(j1: int, j2: int, j3: int, m1: int, m2: int, m3: int) -> float:
    """wigner_3j on twice-values that pass check_projection.  The squared
    prefactor is the triangle coefficient Delta(j1 j2 j3) times the six
    (j +- m)!."""
    if m1 + m2 + m3 != 0 or not triangle_ok(j1, j2, j3):
        return 0.0

    fac = math.factorial
    # factorial arguments, all guaranteed non-negative integers here
    a1 = (j1 + j2 - j3) // 2
    jm = [(j1 + m1) // 2, (j1 - m1) // 2, (j2 + m2) // 2, (j2 - m2) // 2,
          (j3 + m3) // 2, (j3 - m3) // 2]

    # squared prefactor as an exact integer ratio, divided once
    num, den = _triangle_coefficient(j1, j2, j3)
    for f in jm:
        num *= fac(f)

    t1 = (j2 - j3 - m1) // 2
    t2 = (j1 - j3 + m2) // 2
    tmin = max(0, t1, t2)
    tmax = min(a1, jm[1], jm[2])

    # the phase (-1)^(j1-j2-m3) rides on each term: fsum(-x) is -fsum(x) exactly
    phase = (j1 - j2 - m3) // 2
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
    raises InvalidInputError for malformed or negative angular momenta.
    """
    js = [doubled(j) for j in (j1, j2, j3, j4, j5, j6)]
    for j in js:
        if j < 0:
            raise InvalidInputError(f"negative angular momentum {shown(j)}")
    return wigner_6j_twice(*js)


def wigner_6j_twice(t1: int, t2: int, t3: int, t4: int, t5: int, t6: int) -> float:
    """wigner_6j on non-negative twice-values.  The squared prefactor is the
    product of the four triads' triangle coefficients."""
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


def wigner_D2(mp: Momentum, m: Momentum, angles: EulerAngles) -> complex:
    """Rank-2 rotation matrix element D2_{mp,m}(alpha, beta, gamma=0).

    Passive convention with alpha applied first, so the alpha phase rides on
    the second index: D2_{mp,m} = d2_{mp,m}(beta) * exp(i*m*alpha).
    """
    mp, m = doubled(mp), doubled(m)
    check_projection(4, mp, "rank")
    check_projection(4, m, "rank")
    return wigner_D2_twice(mp, m, angles)


def wigner_D2_twice(two_mp: int, two_m: int, angles: EulerAngles) -> complex:
    """wigner_D2 on the twice-values of rank-2 projections.  d2 is Wigner's
    sum, the passive matrix being the transpose of the active one: with c, s
    the cosine and sine of beta/2, and k over the non-negative factorials,
    d2_{mp,m} = sum_k (-1)^(k-mp+m) sqrt((2+m)!(2-m)!(2+mp)!(2-mp)!)
                / ((2+mp-k)! k! (2-k-m)! (k-mp+m)!) c^(4-2k+mp-m) s^(2k-mp+m).
    """
    mp, m = two_mp // 2, two_m // 2
    fac = math.factorial
    c, s = math.cos(0.5 * angles.beta), math.sin(0.5 * angles.beta)
    total = 0.0
    for k in range(max(0, mp - m), min(2 + mp, 2 - m) + 1):
        denom = fac(2 + mp - k) * fac(k) * fac(2 - k - m) * fac(k - mp + m)
        total += ((-1) ** (k - mp + m) / denom
                  * c ** (4 - 2 * k + mp - m) * s ** (2 * k - mp + m))
    d = math.sqrt(fac(2 + m) * fac(2 - m) * fac(2 + mp) * fac(2 - mp)) * total
    return d * complex(math.cos(m * angles.alpha), math.sin(m * angles.alpha))
