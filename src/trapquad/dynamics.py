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
_BATCH = 2 ** 16                         # (Delta, delta) pairs per eigh call


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


def transfer_probabilities(omega_q: float, omega_0: float,
                           detuning_rf: np.ndarray,
                           detuning_laser: np.ndarray,
                           tau: float) -> np.ndarray:
    """Vectorised 1 - P_S for paired arrays of (Delta, delta); tau > 0.
    The pairs are diagonalised in batches of at most 65536, which bounds the
    working memory of a large noise average at about 40 MB."""
    check_probe_time(tau)
    d_rf = np.broadcast_to(np.asarray(detuning_rf, dtype=float),
                           np.broadcast_shapes(np.shape(detuning_rf),
                                               np.shape(detuning_laser)))
    d_l = np.broadcast_to(np.asarray(detuning_laser, dtype=float), d_rf.shape)
    out = np.empty(d_rf.shape)
    flat_rf, flat_l, flat_out = d_rf.ravel(), d_l.ravel(), out.reshape(-1)
    for lo in range(0, d_rf.size, _BATCH):
        rf, dl = flat_rf[lo:lo + _BATCH], flat_l[lo:lo + _BATCH]
        h = np.zeros((len(rf), 4, 4))
        h[:, 0, 0] = -rf
        h[:, 2, 2] = rf
        h[:, 3, 3] = dl
        h[:, 0, 1] = h[:, 1, 0] = omega_q * _A_COEFF
        h[:, 1, 2] = h[:, 2, 1] = omega_q * _B_COEFF
        h[:, 1, 3] = h[:, 3, 1] = 0.5 * omega_0
        evals, evecs = np.linalg.eigh(h)
        weights = evecs[:, IDX_S, :] ** 2
        amps = np.sum(weights * np.exp(-1j * evals * tau), axis=1)
        flat_out[lo:lo + _BATCH] = 1.0 - np.abs(amps) ** 2
    return out


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
    """Detunings of resolved lines.

    The height threshold sits above the ~0.13 first sidelobe of a saturated
    pi-pulse line and below the weakest resolved dressed-state component.
    """
    from scipy.signal import find_peaks  # scipy.signal is slow to import

    idx, _ = find_peaks(scan.transfer, height=height, prominence=prominence)
    return scan.detunings[idx]


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
