"""Reference work that gauges how fast the host runs at the moment.

The host is shared, and its speed moves by tens of percent from one minute
to the next; the CPU time of the same work moves with it.  So each workload
is paired with fixed reference work of the same kind as its own, which
never calls trapquad, and the runner takes a sample of that work after
every operation.  An operation's time is reported rescaled to the host
speed at which the reference work takes `REFERENCE_S` CPU seconds:

    reported = CPU seconds * REFERENCE_S[gauge] / mean of the samples before and after

A change to trapquad moves the CPU seconds and leaves the gauge alone; a
slower or faster minute on the host moves both.

- `python`: exact factorial ratios through `Fraction`, and a complex matrix
  filled element by element (the kind of work of the Wigner algebra and of
  `hq_matrix`).
- `numpy`: batched 4x4 symmetric `eigh` and a complex phase sum over the
  same batch (the kind of work of `transfer_probabilities`).
- `cold_start`: a fresh interpreter that imports numpy and scipy.linalg
  (the kind of work of a CLI process and of set-up).
"""

from __future__ import annotations

import math
import os
import resource
import subprocess
import sys
import time
from fractions import Fraction

import numpy as np

# Round figures for the CPU seconds of one gauge sample on the reference host
# (2 vCPUs, Xeon at 2.0 GHz, Python 3.11.7, numpy 2.4.6, scipy 1.17.1),
# where samples took 0.06-0.12 s, 0.05-0.10 s and 0.41-0.77 s.  They fix
# the scale of the reported seconds only; spreads and ratios between runs do
# not depend on them.
REFERENCE_S = {"python": 0.100, "numpy": 0.100, "cold_start": 0.700}


def _python_work() -> float:
    fac = math.factorial
    total = 0.0
    for k in range(16):
        for a in range(2, 60):
            for b in range(0, a, 2):
                total += float(Fraction(fac(a) * fac(b), fac(a + b + 1 + k)))
        m = np.zeros((40, 40), complex)
        for i in range(40):
            for j in range(40):
                m[i, j] = complex(math.cos(0.1 * i * j), math.sin(0.1 * (i - j))) * total
        total += abs(m.sum())
    return total


_N = 1600
_RNG = np.random.default_rng(7)
_DIAG = _RNG.uniform(-1.0, 1.0, (_N, 4))
_OFF = _RNG.uniform(-1.0, 1.0, 3)


def _numpy_work() -> float:
    total = 0.0
    for k in range(14):
        h = np.zeros((_N, 4, 4))
        for i in range(4):
            h[:, i, i] = _DIAG[:, i] * (1.0 + 0.01 * k)
        h[:, 0, 1] = h[:, 1, 0] = _OFF[0]
        h[:, 1, 2] = h[:, 2, 1] = _OFF[1]
        h[:, 1, 3] = h[:, 3, 1] = _OFF[2]
        evals, evecs = np.linalg.eigh(h)
        amps = np.sum(evecs[:, 1, :] ** 2 * np.exp(-1j * evals * 3.0), axis=1)
        total += float(np.sum(np.abs(amps) ** 2))
    return total


def _cold_start_work() -> None:
    subprocess.run([sys.executable, "-c", "import numpy, scipy.linalg"], check=True,
                   stdout=subprocess.DEVNULL, env=dict(os.environ))


_WORK = {"python": _python_work, "numpy": _numpy_work, "cold_start": _cold_start_work}


def cpu_time() -> float:
    """CPU seconds of this process and of the children it has reaped."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


def sample(gauge: str) -> float:
    """CPU seconds of one piece of the gauge's reference work, children included."""
    start = cpu_time()
    _WORK[gauge]()
    return cpu_time() - start
