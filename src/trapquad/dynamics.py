"""Resonant quadrupole spectroscopy dynamics.

A clock laser drives |S,1/2> -> |D,1/2> while the trap rf resonantly couples
|D,1/2> to |D,5/2> and |D,-3/2> (Zeeman splitting near Omega_rf/2).  In the
rotating frame the four coupled states evolve under the time-independent
Hamiltonian (rad/s, basis |D,5/2>, |D,1/2>, |D,-3/2>, |S,1/2>):

    H/hbar = [[-Delta,      wq/sqrt(10),  0,            0        ],
              [wq/sqrt(10), 0,            3wq/(5√2),    Omega0/2 ],
              [0,           3wq/(5√2),    Delta,        0        ],
              [0,           Omega0/2,     0,            delta    ]]

with wq = eps*Theta/hbar, Delta = Omega_rf - 2*omega_z the rf detuning from
twice the Zeeman splitting, and delta the laser detuning from the
Zeeman-shifted carrier.  The rotating-wave off-diagonals are HALF the
cos(Omega_rf t) amplitudes of the coupling module; `floquet_oracle_from_rwa`
checks that bookkeeping against the explicitly time-dependent problem,
solved through its Fourier-space (Floquet) Hamiltonian with no ODE.

Note the |D,5/2> state carries the weaker coupling wq/sqrt(10): from m=1/2
the downward rank-2 ladder element to m=-3/2 is the stronger one, as direct
evaluation of J-ladder matrix elements confirms.

A spectrum, noiseless or averaged over field noise, is one call of
inference.noise_averaged_signal: at sigma_B = 0 it is transfer_probabilities
on the detuning grid, bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import IntegrationError, InvalidInputError

RWA_BASIS = ("D,+5/2", "D,+1/2", "D,-3/2", "S,+1/2")
IDX_D52, IDX_D12, IDX_DM32, IDX_S = 0, 1, 2, 3

_A_COEFF = 1.0 / math.sqrt(10.0)       # |D,1/2> <-> |D,5/2>, per unit wq
_B_COEFF = 3.0 / (5.0 * math.sqrt(2.0))  # |D,1/2> <-> |D,-3/2>, per unit wq
_BATCH = 2 ** 9                          # (Delta, delta) pairs per eigh call
# the kernel's 10 entries (k, l), k <= l: the diagonal, then the 6 off pairs
_K = np.array([0, 1, 2, 3, 0, 0, 0, 1, 1, 2])
_L = np.array([0, 1, 2, 3, 1, 2, 3, 2, 3, 3])
_HARMONIC_TOL = 1e-10    # populations at K and 2K Floquet harmonics agree
_MAX_HARMONICS = 64      # K past which the Floquet series counts as unconverged
# a resolved line's least height and prominence: the height sits above the ~0.13
# first sidelobe of a saturated pi-pulse line, below the weakest dressed-state line
PEAK_HEIGHT, PEAK_PROMINENCE = 0.15, 0.05


@dataclass(frozen=True)
class RwaSystem:
    """Parameters of the rotating-frame four-level problem (all rad/s)."""

    omega_q: float          # characteristic quadrupole coupling eps*Theta/hbar
    omega_0: float          # clock-laser Rabi frequency
    detuning_rf: float = 0.0     # Delta = Omega_rf - 2*omega_z
    detuning_laser: float = 0.0  # delta, laser detuning from the shifted carrier

    def __post_init__(self):
        if not all(map(math.isfinite, (self.omega_q, self.omega_0,
                                       self.detuning_rf, self.detuning_laser))):
            raise InvalidInputError("couplings and detunings must be finite")


def _rwa_hamiltonians(omega_q, omega_0: float, detuning_rf, detuning_laser) -> np.ndarray:
    """Rotating-frame Hamiltonian (rad/s) for numbers, or a stack of them
    over the shape of detuning_rf, which the other inputs broadcast to."""
    h = np.zeros(np.shape(detuning_rf) + (4, 4))
    h[..., 0, 0] = -detuning_rf
    h[..., 2, 2] = detuning_rf
    h[..., 3, 3] = detuning_laser
    h[..., 0, 1] = h[..., 1, 0] = omega_q * _A_COEFF
    h[..., 1, 2] = h[..., 2, 1] = omega_q * _B_COEFF
    h[..., 1, 3] = h[..., 3, 1] = 0.5 * omega_0
    return h


def build_rwa_hamiltonian(sys: RwaSystem) -> np.ndarray:
    """4x4 rotating-frame Hamiltonian (rad/s) in the RWA_BASIS order."""
    return _rwa_hamiltonians(sys.omega_q, sys.omega_0, sys.detuning_rf, sys.detuning_laser)


def propagate(hamiltonian: np.ndarray, tau: float) -> np.ndarray:
    """Populations |<k|exp(-iH tau)|S,1/2>|^2 via eigendecomposition."""
    if not 0.0 <= tau < math.inf:
        raise InvalidInputError(
            f"propagation time must be non-negative and finite, not {tau!r}")
    evals, evecs = np.linalg.eigh(hamiltonian)
    phases = np.exp(-1j * evals * tau)
    amps = evecs @ (phases * evecs[IDX_S, :].conj())
    return np.abs(amps) ** 2


@dataclass(frozen=True)
class SpectrumScan:
    """Transfer probability out of |S,1/2> versus laser detuning, averaged over
    field noise on 2n - 1 nodes; the defaults are the noiseless single node."""

    detunings: np.ndarray   # rad/s, strictly increasing
    transfer: np.ndarray    # 1 - P_S after the probe
    quadrature_nodes: int = 1        # n: the averages on n and 2n - 1 nodes agree
    quadrature_change: float = 0.0   # max |p(2n - 1) - p(n)|, at most 1e-6

    def __post_init__(self):
        check_detuning_grid(self.detunings)


def check_detuning_grid(detunings) -> np.ndarray:
    """The grid as a float array; raises InvalidInputError unless it is
    one-dimensional, non-empty, finite and strictly increasing."""
    grid = np.asarray(detunings, dtype=float)
    if grid.ndim != 1 or len(grid) == 0:
        raise InvalidInputError(
            f"detuning grid must be a non-empty 1-D array, not shape {grid.shape}")
    if not (np.all(np.isfinite(grid)) and np.all(np.diff(grid) > 0)):
        raise InvalidInputError("detuning grid must be finite and strictly increasing")
    return grid


def check_probe_time(tau: float) -> None:
    """Raise InvalidInputError unless the probe time is positive and finite."""
    if not 0.0 < tau < math.inf:
        raise InvalidInputError(f"probe time must be positive and finite, not {tau!r}")


def transfer_probabilities(omega_q: float | np.ndarray, omega_0: float,
                           detuning_rf: float | np.ndarray,
                           detuning_laser: float | np.ndarray,
                           tau: float, derivatives: bool = False):
    """Vectorised 1 - P_S for broadcast arrays of (omega_q, Delta, delta);
    tau > 0.  With derivatives, (p, dp) from the same eigh, where dp stacks
    dp/d omega_q, dp/d Delta and dp/d delta on a new first axis.  The pairs
    are diagonalised in batches of at most 512, which bounds the working
    memory beyond the outputs at about 0.28 MB (0.35 MB with derivatives);
    an input is copied only where reshape(-1) cannot view it (a scalar can)."""
    check_probe_time(tau)
    shape = np.broadcast_shapes(np.shape(omega_q), np.shape(detuning_rf),
                                np.shape(detuning_laser))
    flat_wq, flat_rf, flat_l = (
        np.broadcast_to(np.asarray(a, dtype=float), shape).reshape(-1)
        for a in (omega_q, detuning_rf, detuning_laser))
    out = np.empty(flat_rf.size)
    grad = np.empty((3, flat_rf.size)) if derivatives else None
    for lo in range(0, flat_rf.size, _BATCH):
        part = slice(lo, lo + _BATCH)
        evals, evecs = np.linalg.eigh(_rwa_hamiltonians(
            flat_wq[part], omega_0, flat_rf[part], flat_l[part]))
        # y_k = v_Sk exp(-i lambda_k tau/2), so that a = sum_k y_k^2
        y = evecs[:, IDX_S, :] * np.exp(-0.5j * tau * evals)
        amps = np.sum(y * y, axis=1)
        out[part] = 1.0 - np.abs(amps) ** 2
        if derivatives:
            grad[:, part] = _transfer_gradient(evals, evecs, y, amps, tau)
    if derivatives:
        return out.reshape(shape), grad.reshape((3,) + shape)
    return out.reshape(shape)


def _transfer_gradient(evals: np.ndarray, evecs: np.ndarray, y: np.ndarray,
                       amps: np.ndarray, tau: float) -> np.ndarray:
    """(dp/d omega_q, dp/d Delta, dp/d delta) of one eigh batch.

    p = 1 - |a|^2 gives dp = -2 Re(conj(a) da).  By the Daleckii-Krein
    formula (Najfeld & Havel, Adv. Appl. Math. 16, 321 (1995)),
    da = sum_kl v_Sk v_Sl G_kl (V^T dH V)_kl with the divided differences
    G_kl = -i tau e_k e_l sinc((lambda_k - lambda_l) tau/2), where
    e_k = exp(-i lambda_k tau/2): finite at degenerate pairs.  With
    y_k = v_Sk e_k this is dp = -2 tau sum_kl T_kl (V^T dH V)_kl, where the
    kernel T_kl = Im(conj(a) y_k y_l) sinc((lambda_k - lambda_l) tau/2) is
    real and symmetric, so it is taken on its 10 entries k <= l with each off
    pair counted twice.  (V^T dH V)_kl is v_1k u_l + u_k v_1l for omega_q,
    with u = A v_0 + B v_2 its coupling rows, v_2k v_2l - v_0k v_0l for Delta
    and v_Sk v_Sl for delta.
    """
    c = np.conj(amps)[:, None] * y
    t = c.real[:, _K] * y.imag[:, _L]
    t += c.imag[:, _K] * y.real[:, _L]        # Im(c_k y_l) = Im(conj(a) y_k y_l)
    x = (evals[:, _K[4:]] - evals[:, _L[4:]]) * (0.5 * tau)
    t[:, 4:] *= 2.0 * np.divide(np.sin(x), x, out=np.ones_like(x), where=x != 0.0)
    v = evecs.transpose(1, 0, 2)              # v[i][:, k] = v_ik
    u = _A_COEFF * v[0] + _B_COEFF * v[2]

    def vtv(a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return np.einsum("nm,nm,nm->n", t, a[:, _K], b[:, _L])

    return -2.0 * tau * np.stack([vtv(v[1], u) + vtv(u, v[1]),
                                  vtv(v[2], v[2]) - vtv(v[0], v[0]),
                                  vtv(v[IDX_S], v[IDX_S])])


def default_detuning_grid(omega_q: float, n_points: int = 801,
                          span: float = 2.0) -> np.ndarray:
    """Symmetric delta grid, +-span*omega_q, resolving all dressed lines."""
    half = span * abs(omega_q)
    return np.linspace(-half, half, n_points)


def dressed_splitting(omega_q: float) -> float:
    """Outer dressed-state eigenvalue sqrt(7)/5 * wq of the resonant D block."""
    return math.sqrt(7.0) / 5.0 * abs(omega_q)


def find_spectrum_peaks(scan: SpectrumScan) -> np.ndarray:
    """Detunings of resolved lines: the local maxima of the transfer at least
    PEAK_HEIGHT high and PEAK_PROMINENCE above the higher of their two bases,
    as scipy.signal.find_peaks defines them.  A flat top counts once, at its
    middle sample (rounded down); the first and last samples are never peaks.
    """
    y = np.asarray(scan.transfer, dtype=float)
    starts = np.flatnonzero(np.r_[True, y[1:] != y[:-1]])   # runs of equal values
    ends = np.r_[starts[1:], len(y)] - 1
    level = y[starts]
    top = np.zeros(len(level), dtype=bool)
    top[1:-1] = (level[1:-1] > level[:-2]) & (level[1:-1] > level[2:])
    peaks = [i for i in (starts[top] + ends[top]) // 2
             if y[i] >= PEAK_HEIGHT and _prominence(y, i) >= PEAK_PROMINENCE]
    return scan.detunings[np.array(peaks, dtype=int)]


def _prominence(y: np.ndarray, i: int) -> float:
    """Height of y[i] above the higher of its bases: the minima of y between
    i and the nearest higher sample on either side (or the end)."""
    higher = np.flatnonzero(y > y[i])
    left = higher[higher < i]
    right = higher[higher > i]
    lo = left[-1] + 1 if len(left) else 0
    hi = right[0] if len(right) else len(y)
    return float(y[i] - max(y[lo:i + 1].min(), y[i:hi].min()))


def floquet_oracle_from_rwa(sys: RwaSystem, omega_rf: float,
                            tau: float) -> np.ndarray:
    """Populations after tau from |S,1/2> under the explicit cos(Omega_rf t)
    quadrupole drive, only the laser in the rotating-wave approximation.

    In the frame that rotates with Delta on the D states and delta on S, the
    couplings are written from the full cos amplitudes q = 2*wq*(A, B), not
    from build_rwa_hamiltonian: (q/2)(1 + exp(2i Omega_rf t)) above the
    diagonal, so the check catches a wrong factor 1/2 in the rotating-wave
    couplings.  That H(t) is solved through Shirley's Floquet Hamiltonian
    (Phys. Rev. 138, B979 (1965)) on harmonics |n| <= K, with no ODE; K
    doubles from 1 until K and 2K agree to _HARMONIC_TOL, up to _MAX_HARMONICS.
    """
    check_probe_time(tau)
    if not 0.0 < omega_rf < math.inf:
        raise InvalidInputError("omega_rf must be positive and finite")
    q_a, q_b = 2.0 * sys.omega_q * _A_COEFF, 2.0 * sys.omega_q * _B_COEFF
    strongest = max(abs(q_a), abs(q_b), abs(sys.omega_0))
    if strongest == 0.0:
        raise InvalidInputError("all couplings vanish")
    if omega_rf < 100.0 * strongest:
        raise InvalidInputError(
            "floquet oracle requires Omega_rf at least 100x the couplings")
    upper = np.zeros((4, 4))
    upper[IDX_D52, IDX_D12], upper[IDX_D12, IDX_DM32] = 0.5 * q_a, 0.5 * q_b
    static = np.diag([-sys.detuning_rf, 0.0, sys.detuning_rf,
                      sys.detuning_laser]) + upper + upper.T
    static[IDX_D12, IDX_S] = static[IDX_S, IDX_D12] = 0.5 * sys.omega_0
    k, change = 1, math.inf
    pops = _floquet_populations(static, upper, 2.0 * omega_rf, tau, 1)
    while change > _HARMONIC_TOL:
        k *= 2
        if k > _MAX_HARMONICS:
            raise IntegrationError(
                f"Floquet series unconverged at {k // 2} harmonics: the last "
                f"doubling moved the populations by {change:.1e}")
        finer = _floquet_populations(static, upper, 2.0 * omega_rf, tau, k)
        change, pops = float(np.max(np.abs(finer - pops))), finer
    drift = abs(float(np.sum(pops)) - 1.0)
    if drift > 1e-9:
        raise IntegrationError(f"unitarity drift {drift:.2e} exceeds 1e-9")
    return pops


def _floquet_populations(static: np.ndarray, upper: np.ndarray, omega: float,
                         tau: float, k: int) -> np.ndarray:
    """Populations after tau from |S,1/2> under static + upper e^{i omega t} +
    h.c.: H_F has blocks static + n omega on its diagonal, upper and upper^T
    beside them, over the harmonics of each state in turn (|S,1/2> last, so an
    uncoupled S stays exactly unmixed).  Its four eigenvectors centred on n = 0
    are the Floquet states u_j, and U(tau) = sum_j u_j(tau) e^{-i eps_j tau}
    u_j(0)^T.  They and the eps_j are re-resolved on H_F projected onto those
    four: eigh's absolute error, ~1e-16 k omega, is a phase of up to 1e-7 over
    a long probe."""
    size = 2 * k + 1
    harmonics = omega * np.arange(-k, k + 1)
    h_f = (np.kron(static, np.eye(size)) + np.kron(np.eye(4), np.diag(harmonics))
           + np.kron(upper, np.eye(size, k=-1)) + np.kron(upper.T, np.eye(size, k=1)))
    vecs = np.linalg.eigh(h_f)[1]
    centred = vecs[:, np.argsort(np.sum(vecs[k::size] ** 2, axis=0))[-4:]]
    quasi, rot = np.linalg.eigh(centred.T @ h_f @ centred)
    blocks = (centred @ rot).reshape(4, size, 4)   # (state, harmonic, u_j)
    u_tau = np.exp(1j * harmonics * tau) @ blocks
    amps = u_tau @ (np.exp(-1j * quasi * tau) * np.sum(blocks[IDX_S], axis=0))
    return np.abs(amps) ** 2
