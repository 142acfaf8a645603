"""Machine-speed probe, to report solve times at one reference speed.

The reference machine is a shared 2-vCPU guest whose speed drifts by
10-50% over minutes.  The drift is not time the vCPU is taken away (thread
CPU time stays 98-99% of wall time), so CPU time does not remove it; it
slows every instruction.  A fixed numpy kernel timed between solves slows
with it: over 41 passes of the ``micp`` workload, pass time and the
kernel's time correlated at r = 0.95, and scaling each solve by the kernel
cut the pass-to-pass variation from 12.7% to 3.8%.

The kernel uses nothing from micpkit, so a change to the program cannot
move it.  Import after ``bootstrap.prepare()``.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

N = 24               # the kernel: STEPS dense solves of one N x N system
STEPS = 200
REF_S = 0.003        # the kernel's time at the reference speed
WINDOW = 5           # a solve is scaled by the median of the probes within WINDOW solves

_rng = np.random.default_rng(0)
_A = _rng.standard_normal((N, N))
_A = _A @ _A.T + N * np.eye(N)
_b = _rng.standard_normal(N)


def probe():
    """Seconds the fixed kernel takes now."""
    t0 = time.perf_counter()
    x = _b.copy()
    for _ in range(STEPS):
        x = np.linalg.solve(_A, x + _b)
        x /= np.linalg.norm(x)
    return time.perf_counter() - t0


def scales(probes, n):
    """Factor that brings each of ``n`` solves to the reference speed.

    ``probes[k]`` was taken just before solve ``k`` and ``probes[n]`` just
    after the last one; solve ``k`` uses the median of the probes taken
    within WINDOW solves of it.
    """
    return [REF_S / statistics.median(probes[max(0, k - WINDOW):k + WINDOW + 2]) for k in range(n)]
