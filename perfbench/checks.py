"""Reference computations the workloads check trapquad's outputs against.

Nothing here imports trapquad or the test suite.  Every reference is written
out again from the physics: exact Wigner symbols from sympy, the four-level
rotating-frame Hamiltonian propagated with scipy's `expm`, a dense Gaussian
average over field noise, the orientation weights f1/f2, the Theta formula,
and the JSON schema of the CLI output.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

TWO_PI = 2.0 * math.pi
HBAR = 1.054571817e-34          # J s, CODATA 2018
E_CHARGE = 1.602176634e-19      # C
BOHR_RADIUS = 5.29177210903e-11  # m
ATOMIC_MASS = 1.66053906660e-27  # kg
BOHR_MAGNETON = 9.2740100783e-24  # J/T
E_A0_SQ = E_CHARGE * BOHR_RADIUS ** 2

# Paper values of the Lu+ fractional-shift parameters (a, eta), with the
# tolerances the paper's table supports: 5% on a, 0.01 on eta.
LU_PAPER = {
    "1S0-3D1": (1.28e-19, -0.199),
    "1S0-3D2": (-0.90e-19, -0.197),
    "1S0-1D2": (2.34e-23, -0.212),
}
THETA_BA = 3.229  # e*a0^2, the synthetic truth of the Ba+ workloads


def close(got: float, want: float, rel: float) -> bool:
    return abs(got - want) <= rel * abs(want)


# -- angular momentum -------------------------------------------------------
def wigner_sample(rng: np.random.Generator, n: int, jmax2: int = 18):
    """Seeded valid (3j, 6j) argument tuples, twice-values, j <= jmax2/2."""
    three, six = [], []
    while len(three) < n:
        t1, t2 = (int(x) for x in rng.integers(0, jmax2 + 1, 2))
        t3 = int(rng.integers(abs(t1 - t2), min(t1 + t2, jmax2) + 1))
        if (t1 + t2 + t3) % 2:
            continue
        m1 = -t1 + 2 * int(rng.integers(0, t1 + 1))
        m2 = -t2 + 2 * int(rng.integers(0, t2 + 1))
        m3 = -m1 - m2
        if abs(m3) > t3:
            continue
        three.append((t1, t2, t3, m1, m2, m3))
    while len(six) < n:
        t = [int(x) for x in rng.integers(0, jmax2 + 1, 6)]
        triads = ((t[0], t[1], t[2]), (t[0], t[4], t[5]),
                  (t[3], t[1], t[5]), (t[3], t[4], t[2]))
        if all(abs(a - b) <= c <= a + b and (a + b + c) % 2 == 0
               for a, b, c in triads):
            six.append(tuple(t))
    return three, six


def exact_3j(t1, t2, t3, m1, m2, m3) -> float:
    from sympy import Rational
    from sympy.physics.wigner import wigner_3j
    h = [Rational(x, 2) for x in (t1, t2, t3, m1, m2, m3)]
    return float(wigner_3j(*h))


def exact_6j(*t) -> float:
    from sympy import Rational
    from sympy.physics.wigner import wigner_6j
    return float(wigner_6j(*(Rational(x, 2) for x in t)))


def principal_frame_eigenvalues(j2: int, theta_e_a02: float, epsilon: float,
                                big_a: float = 0.0) -> np.ndarray:
    """Eigenvalues (rad/s) of H_Q/hbar for an I = 0 level, from exact 3j.

    <J m'|T_q|J m> = (-1)^(J-m') (J 2 J; -m' q m) Theta / (J 2 J; -J 0 J),
    H_Q = -2A T0 + eps sqrt(2/3) (T2 + T-2); a rotation of the trap leaves
    the spectrum unchanged, so these hold at every orientation.
    """
    grads = {0: -2.0 * big_a, 2: epsilon * math.sqrt(2.0 / 3.0),
             -2: epsilon * math.sqrt(2.0 / 3.0)}
    ms = list(range(-j2, j2 + 1, 2))
    norm = exact_3j(j2, 4, j2, -j2, 0, j2)
    h = np.zeros((len(ms), len(ms)))
    for a, mp in enumerate(ms):
        for b, m in enumerate(ms):
            for q, g in grads.items():
                if g == 0.0 or mp - m != 2 * q:
                    continue
                sign = -1.0 if ((j2 - mp) // 2) % 2 else 1.0
                h[a, b] += g * sign * exact_3j(j2, 4, j2, -mp, 2 * q, m) / norm
    return np.linalg.eigvalsh(h * theta_e_a02 * E_A0_SQ / HBAR)


# -- orientation weights and Theta ------------------------------------------
def f1(alpha: float, beta: float) -> float:
    c, s = math.cos(beta), math.sin(beta)
    return (c * s * math.cos(2 * alpha)) ** 2 + (s * math.sin(2 * alpha)) ** 2


def f2(alpha: float, beta: float) -> float:
    c = math.cos(beta)
    return ((0.5 * (1 + c * c) * math.cos(2 * alpha)) ** 2
            + (c * math.sin(2 * alpha)) ** 2)


def linear_trap_epsilon(mass_kg: float, omega_rf: float, omega_s: float) -> float:
    return mass_kg * omega_rf * omega_s / (E_CHARGE * math.sqrt(2.0))


def theta_from_coupling(omega_q: float, mass_kg: float, omega_rf: float,
                        omega_s: float) -> float:
    """Theta (e*a0^2) = hbar omega_q sqrt(2) e / (m Omega_rf omega_s)."""
    return (HBAR * omega_q * math.sqrt(2.0) * E_CHARGE
            / (mass_kg * omega_rf * omega_s) / E_A0_SQ)


# -- four-level rotating-frame model ----------------------------------------
def rwa_hamiltonian(omega_q, omega_0, detuning_rf, detuning_laser) -> np.ndarray:
    """Batched 4x4 H/hbar in the basis |D,5/2>, |D,1/2>, |D,-3/2>, |S,1/2>."""
    d_rf = np.atleast_1d(np.asarray(detuning_rf, dtype=float))
    d_l = np.atleast_1d(np.asarray(detuning_laser, dtype=float))
    d_rf, d_l = np.broadcast_arrays(d_rf, d_l)
    a = omega_q / math.sqrt(10.0)
    b = 3.0 * omega_q / (5.0 * math.sqrt(2.0))
    h = np.zeros(d_rf.shape + (4, 4))
    h[..., 0, 0] = -d_rf
    h[..., 2, 2] = d_rf
    h[..., 3, 3] = d_l
    h[..., 0, 1] = h[..., 1, 0] = a
    h[..., 1, 2] = h[..., 2, 1] = b
    h[..., 1, 3] = h[..., 3, 1] = 0.5 * omega_0
    return h


def populations_expm(omega_q, omega_0, detuning_rf, detuning_laser, tau,
                     initial: int = 3) -> np.ndarray:
    from scipy.linalg import expm
    h = rwa_hamiltonian(omega_q, omega_0, detuning_rf, detuning_laser)[0]
    return np.abs(expm(-1j * h * tau)[:, initial]) ** 2


def transfer_dense(omega_q, omega_0, detuning_rf, detuning_laser, tau):
    """1 - P_S by eigendecomposition of the written-out Hamiltonian."""
    h = rwa_hamiltonian(omega_q, omega_0, detuning_rf, detuning_laser)
    evals, evecs = np.linalg.eigh(h)
    amp = np.sum(evecs[..., 3, :] ** 2 * np.exp(-1j * evals * tau), axis=-1)
    return 1.0 - np.abs(amp) ** 2


def noise_average(omega_q, omega_0, detunings, tau, sigma_b, g_d=1.2,
                  g_s=2.0025, nodes: int = 1601) -> np.ndarray:
    """Transfer probability averaged over Gaussian field noise b ~ N(0, sigma).

    A field excursion b moves Delta by -2 g_D mu_B b / hbar and delta by
    -(g_D - g_S) mu_B b / (2 hbar).  The average is a trapezoid sum on a
    uniform grid over +-8 sigma, which converges far faster than 1e-10 for
    this smooth integrand (checked against twice the nodes).
    """
    detunings = np.asarray(detunings, dtype=float)
    if sigma_b == 0.0:
        return transfer_dense(omega_q, omega_0, 0.0, detunings, tau)
    b = np.linspace(-8.0 * sigma_b, 8.0 * sigma_b, nodes)
    w = np.exp(-0.5 * (b / sigma_b) ** 2)
    w /= w.sum()
    k_rf = 2.0 * g_d * BOHR_MAGNETON / HBAR
    k_l = (g_d - g_s) * BOHR_MAGNETON / (2.0 * HBAR)
    out = np.empty(len(detunings))
    for lo in range(0, len(detunings), 8):   # blocks keep the arrays small
        d_l = detunings[lo:lo + 8, None] - k_l * b[None, :]
        d_rf = np.broadcast_to(-k_rf * b[None, :], d_l.shape)
        out[lo:lo + 8] = transfer_dense(omega_q, omega_0, d_rf, d_l, tau) @ w
    return out


def reduced_chi2(fractions, p_model, shots) -> float:
    """chi^2/(n-2) with binomial variance max(p(1-p), 1/(4N))/N per point."""
    shots = np.broadcast_to(np.asarray(shots, dtype=float), np.shape(fractions))
    var = np.maximum(p_model * (1.0 - p_model), 1.0 / (4.0 * shots)) / shots
    return float(np.sum((fractions - p_model) ** 2 / var) / (len(fractions) - 2))


# -- CLI output --------------------------------------------------------------
class SchemaCheck:
    """Validates CLI JSON against the package's bundled output schema."""

    def __init__(self, schema_path: Path):
        import jsonschema
        self._validator = jsonschema.Draft7Validator(
            json.loads(Path(schema_path).read_text()))

    def errors(self, payload: dict) -> list[str]:
        return [e.message for e in self._validator.iter_errors(payload)]
