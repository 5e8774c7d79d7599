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
cos(Omega_rf t) amplitudes of the coupling module; `floquet_oracle` validates
that bookkeeping by integrating the explicitly time-dependent problem.

Note the |D,5/2> state carries the weaker coupling wq/sqrt(10): from m=1/2
the downward rank-2 ladder element to m=-3/2 is the stronger one, as direct
evaluation of J-ladder matrix elements confirms.
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


def build_rwa_hamiltonian(sys: RwaSystem) -> np.ndarray:
    """4x4 rotating-frame Hamiltonian (rad/s) in the RWA_BASIS order."""
    a = sys.omega_q * _A_COEFF
    b = sys.omega_q * _B_COEFF
    half_rabi = 0.5 * sys.omega_0
    return np.array([
        [-sys.detuning_rf, a, 0.0, 0.0],
        [a, 0.0, b, half_rabi],
        [0.0, b, sys.detuning_rf, 0.0],
        [0.0, half_rabi, 0.0, sys.detuning_laser],
    ])


def propagate(hamiltonian: np.ndarray, tau: float,
              initial: int = IDX_S) -> np.ndarray:
    """Populations |<k|exp(-iH tau)|initial>|^2 via eigendecomposition."""
    if tau < 0:
        raise InvalidInputError("propagation time must be non-negative")
    evals, evecs = np.linalg.eigh(hamiltonian)
    phases = np.exp(-1j * evals * tau)
    amps = evecs @ (phases * evecs[initial, :].conj())
    return np.abs(amps) ** 2


@dataclass(frozen=True)
class SpectrumScan:
    """Transfer probability out of |S,1/2> versus laser detuning."""

    detunings: np.ndarray   # rad/s, strictly increasing
    transfer: np.ndarray    # 1 - P_S after the probe
    tau: float

    def __post_init__(self):
        if len(self.detunings) == 0:
            raise InvalidInputError("empty detuning grid")
        if np.any(np.diff(self.detunings) <= 0):
            raise InvalidInputError("detuning grid must be strictly increasing")


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
    memory beyond the flat inputs and the outputs at about 0.3 MB (0.6 MB
    with derivatives)."""
    check_probe_time(tau)
    shape = np.broadcast_shapes(np.shape(omega_q), np.shape(detuning_rf),
                                np.shape(detuning_laser))
    flat_wq, flat_rf, flat_l = (
        np.broadcast_to(np.asarray(a, dtype=float), shape).ravel()
        for a in (omega_q, detuning_rf, detuning_laser))
    out = np.empty(flat_rf.size)
    grad = np.empty((3, flat_rf.size)) if derivatives else None
    for lo in range(0, flat_rf.size, _BATCH):
        part = slice(lo, lo + _BATCH)
        rf, wq = flat_rf[part], flat_wq[part]
        h = np.zeros((len(rf), 4, 4))
        h[:, 0, 0] = -rf
        h[:, 2, 2] = rf
        h[:, 3, 3] = flat_l[part]
        h[:, 0, 1] = h[:, 1, 0] = wq * _A_COEFF
        h[:, 1, 2] = h[:, 2, 1] = wq * _B_COEFF
        h[:, 1, 3] = h[:, 3, 1] = 0.5 * omega_0
        evals, evecs = np.linalg.eigh(h)
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
    z_ik = v_ik y_k = v_ik v_Sk e_k, da is -i tau z S z^T (S the real sinc
    matrix) contracted with dH: the coupling pattern for omega_q,
    diag(-1, 0, 1, 0) for Delta and diag(0, 0, 0, 1) for delta.
    """
    z = evecs * y[:, None, :]
    sinc = np.sinc((evals[:, :, None] - evals[:, None, :]) * (0.5 * tau / math.pi))
    # einsum, not matmul: matmul calls BLAS, whose first call adds about
    # 1 MB of buffers to the resident memory of the process
    zs = np.einsum("nik,nkl->nil", z, sinc)

    def zsz(i: int, j: int) -> np.ndarray:
        return np.sum(zs[:, i, :] * z[:, j, :], axis=1)

    da = np.stack([2.0 * _A_COEFF * zsz(0, 1) + 2.0 * _B_COEFF * zsz(1, 2),
                   zsz(2, 2) - zsz(0, 0), zsz(IDX_S, IDX_S)])
    return -2.0 * tau * np.imag(np.conj(amps) * da)


def scan_spectrum(sys: RwaSystem, detunings: np.ndarray, tau: float) -> SpectrumScan:
    """Sweep the laser detuning delta and record the transfer probability."""
    detunings = np.asarray(detunings, dtype=float)
    transfer = transfer_probabilities(
        sys.omega_q, sys.omega_0,
        np.full_like(detunings, sys.detuning_rf), detunings, tau,
    )
    return SpectrumScan(detunings=detunings, transfer=transfer, tau=tau)


def default_detuning_grid(omega_q: float, n_points: int = 801,
                          span: float = 2.0) -> np.ndarray:
    """Symmetric delta grid, +-span*omega_q, resolving all dressed lines."""
    half = span * abs(omega_q)
    return np.linspace(-half, half, n_points)


def dressed_splitting(omega_q: float) -> float:
    """Outer dressed-state eigenvalue sqrt(7)/5 * wq of the resonant D block."""
    return math.sqrt(7.0) / 5.0 * abs(omega_q)


def find_spectrum_peaks(scan: SpectrumScan, height: float = 0.15,
                        prominence: float = 0.05) -> np.ndarray:
    """Detunings of resolved lines: the local maxima of the transfer at least
    `height` high and `prominence` above the higher of their two bases, as
    scipy.signal.find_peaks defines them.  A flat top counts once, at its
    middle sample (rounded down); the first and last samples are never peaks.

    The height threshold sits above the ~0.13 first sidelobe of a saturated
    pi-pulse line and below the weakest resolved dressed-state component.
    """
    y = np.asarray(scan.transfer, dtype=float)
    starts = np.flatnonzero(np.r_[True, y[1:] != y[:-1]])   # runs of equal values
    ends = np.r_[starts[1:], len(y)] - 1
    level = y[starts]
    top = np.zeros(len(level), dtype=bool)
    top[1:-1] = (level[1:-1] > level[:-2]) & (level[1:-1] > level[2:])
    peaks = [i for i in (starts[top] + ends[top]) // 2
             if y[i] >= height and _prominence(y, i) >= prominence]
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


def solve_ivp(*args, **kwargs):
    """scipy.integrate.solve_ivp, imported on first use: the import alone
    takes most of a second, and nothing else in the package needs it."""
    from scipy.integrate import solve_ivp as scipy_solve_ivp
    return scipy_solve_ivp(*args, **kwargs)


def floquet_oracle(omega_rf: float, omega_z: float,
                   coupling_d52: float, coupling_dm32: float,
                   omega_0: float, detuning_laser: float, tau: float,
                   initial: int = IDX_S, rtol: float = 1e-10,
                   atol: float = 1e-12) -> np.ndarray:
    """Populations from the explicitly time-dependent Schroedinger equation.

    The quadrupole drive enters as its full cos(Omega_rf t) amplitude
    (`coupling_d52` and `coupling_dm32` are the rad/s cos-amplitudes of the
    |D,1/2>:|D,5/2> and |D,1/2>:|D,-3/2> elements); only the laser is treated
    in the rotating wave approximation.  Zeeman phases are removed exactly, so
    the integration step is set by Omega_rf, not by optical frequencies.
    Coupling phases are immaterial to populations and magnitudes are used.
    """
    if omega_rf <= 0:
        raise InvalidInputError("omega_rf must be positive")
    strongest = max(abs(coupling_d52), abs(coupling_dm32), abs(omega_0))
    if strongest == 0.0:
        raise InvalidInputError("all couplings vanish")
    if omega_rf / strongest < 100.0:
        raise InvalidInputError(
            "floquet oracle requires Omega_rf at least 100x the couplings"
        )

    y0 = np.zeros(4, dtype=complex)
    y0[initial] = 1.0
    yf = integrate_floquet_state(
        omega_rf, omega_z, coupling_d52, coupling_dm32, omega_0,
        detuning_laser, y0, 0.0, tau, rtol=rtol, atol=atol,
    )
    return np.abs(yf) ** 2


def integrate_floquet_state(omega_rf: float, omega_z: float,
                            coupling_d52: float, coupling_dm32: float,
                            omega_0: float, detuning_laser: float,
                            state: np.ndarray, t0: float, t1: float,
                            rtol: float = 1e-10,
                            atol: float = 1e-12) -> np.ndarray:
    """Amplitude-level integration of the explicit cos-driven problem."""
    qa = abs(coupling_d52)
    qb = abs(coupling_dm32)
    half_rabi = 0.5 * omega_0
    two_wz = 2.0 * omega_z
    delta = detuning_laser

    def rhs(t: float, y: np.ndarray) -> np.ndarray:
        osc = math.cos(omega_rf * t) * complex(math.cos(two_wz * t),
                                               math.sin(two_wz * t))
        qa_t = qa * osc
        qb_t = qb * osc
        laser = half_rabi * complex(math.cos(delta * t), -math.sin(delta * t))
        y0, y1, y2, y3 = y
        return np.array([
            -1j * qa_t * y1,
            -1j * (qa_t.conjugate() * y0 + qb_t * y2 + laser * y3),
            -1j * qb_t.conjugate() * y1,
            -1j * laser.conjugate() * y1,
        ])

    sol = solve_ivp(
        rhs, (t0, t1), np.asarray(state, dtype=complex), method="DOP853",
        rtol=rtol, atol=atol, max_step=2.0 * math.pi / omega_rf / 3.0,
        dense_output=False,
    )
    if not sol.success:
        raise IntegrationError(f"time-dependent integration failed: {sol.message}")
    yf = sol.y[:, -1]
    drift = abs(float(np.sum(np.abs(yf) ** 2)) - 1.0)
    if drift > 1e-9:
        raise IntegrationError(
            f"unitarity drift {drift:.2e} exceeds 1e-9; tighten tolerances"
        )
    return yf


def floquet_oracle_from_rwa(sys: RwaSystem, omega_rf: float, tau: float,
                            initial: int = IDX_S, **kwargs) -> np.ndarray:
    """Run the oracle at the physical parameters matching an RwaSystem.

    Maps Delta = Omega_rf - 2*omega_z and doubles the rotating-frame
    couplings back to cos amplitudes.
    """
    omega_z = 0.5 * (omega_rf - sys.detuning_rf)
    return floquet_oracle(
        omega_rf=omega_rf,
        omega_z=omega_z,
        coupling_d52=2.0 * sys.omega_q * _A_COEFF,
        coupling_dm32=2.0 * sys.omega_q * _B_COEFF,
        omega_0=sys.omega_0,
        detuning_laser=sys.detuning_laser,
        tau=tau,
        initial=initial,
        **kwargs,
    )
