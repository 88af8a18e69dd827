"""The machine's speed, sampled on the benchmark's own thread while ops run.

On a shared host the same op can take tens of percent longer from one
second to the next, because other tenants load the host.  A SIGALRM timer
interrupts the main thread every PERIOD_S and times a fixed kernel there, on
the thread and core the op is using.  An op's latency is then taken to a
machine of reference speed by the ratio of REFERENCE_S to the mean kernel
time sampled during the op (and within WINDOW_S of it, so short ops get
samples too).  The time spent in the handler is subtracted from the op.
"""

from __future__ import annotations

import signal
import time
from array import array

import numpy as np

PERIOD_S = 0.05
WINDOW_S = 0.25
# mean kernel time on the machine the workloads were sized on
REFERENCE_S = 1.0e-3


def kernel(steps=100):
    """Fixed work shaped like the continuation kernels' inner step: scalar
    complex arithmetic and small numpy row updates."""
    F = np.eye(2, dtype=np.complex128)
    z, acc = 0.5 + 0.1j, 0.0
    for _ in range(steps):
        den = z * (1.0 - z)
        out = np.empty_like(F)
        out[0, :] = F[1, :]
        out[1, :] = (0.3 * F[0, :] - 0.2 * F[1, :]) / den
        F = F + 1e-3 * out
        acc += abs(F[0, 0])
    return acc


class Sampler:
    """Times one kernel every PERIOD_S on the main thread, from a SIGALRM handler."""

    def __init__(self):
        self.at = array("d")
        self.cost = array("d")
        self.busy = 0.0          # total time spent in the handler

    def _sample(self, signum, frame):
        t0 = time.perf_counter()
        kernel()
        t1 = time.perf_counter()
        self.at.append(t0)
        self.cost.append(t1 - t0)
        self.busy += t1 - t0

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        return False


def scale_factors(windows, at, cost):
    """REFERENCE_S over the mean kernel time sampled within WINDOW_S of each
    (start, end) window; windows and samples are both in time order."""
    n = len(at)
    if not n:                    # a batch shorter than one period
        return [1.0] * len(windows)
    factors, lo = [], 0
    for start, end in windows:
        while lo < n and at[lo] < start - WINDOW_S:
            lo += 1
        hi = lo
        while hi < n and at[hi] <= end + WINDOW_S:
            hi += 1
        if hi == lo:             # no sample near: use the nearest one
            factors.append(REFERENCE_S / cost[min(lo, n - 1)])
        else:
            factors.append(REFERENCE_S * (hi - lo) / sum(cost[lo:hi]))
    return factors
