"""Direct integration of the explicit cos(Omega_rf t) quadrupole drive.

The reference that `floquet_oracle_from_rwa` is checked against.  The state
is stepped through every rf period, at most 2/3 of a period per step, with a
scalar right-hand side in the frame that removes the Zeeman phases exactly:
the couplings are the full cos amplitudes times cos(Omega_rf t) exp(2i w_z t),
and only the laser is in the rotating-wave approximation.  It costs about a
dozen evaluations per rf period, so the tests use it at short tau only.
"""

import math

import numpy as np
from scipy.integrate import solve_ivp

# cos amplitudes per unit omega_q: |D,1/2>:|D,5/2> and |D,1/2>:|D,-3/2>
COS_AMPLITUDES = (2.0 / math.sqrt(10.0), 6.0 / (5.0 * math.sqrt(2.0)))


def integrate_state(sys, omega_rf, state, t0, t1):
    """Amplitudes at t1 of `state` given at t0 (t1 < t0 runs backwards), for
    the RwaSystem `sys` with Omega_rf - 2 w_z = sys.detuning_rf."""
    qa, qb = (sys.omega_q * c for c in COS_AMPLITUDES)
    half_rabi = 0.5 * sys.omega_0
    two_wz = omega_rf - sys.detuning_rf
    delta = sys.detuning_laser

    def rhs(t, y):
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

    sol = solve_ivp(rhs, (t0, t1), np.asarray(state, dtype=complex),
                    method="DOP853", rtol=1e-10, atol=1e-12,
                    max_step=2.0 * math.pi / omega_rf / 3.0)
    assert sol.success, sol.message
    return sol.y[:, -1]


def populations(sys, omega_rf, tau):
    """Populations after tau, starting in |S,1/2> (the last basis state)."""
    y0 = np.zeros(4, dtype=complex)
    y0[3] = 1.0
    return np.abs(integrate_state(sys, omega_rf, y0, 0.0, tau)) ** 2
