"""Host-speed calibration for timings taken on a shared host.

Other tenants of a shared host slow this CPU by up to 1.7x, in phases from a
fraction of a second to minutes, so raw times of the same code differ by that
much from one run to the next. While work is timed, a SIGALRM timer runs a
fixed kernel every PERIOD_S in the same thread and times it. The kernel mixes
Python calls with small complex numpy products, as the engine does, and shares
no code with it. Work that took `w` seconds (timer time excluded) while the
kernel took `k` seconds on average is reported as `w * KERNEL_REF_S / k`: its
time with the host at the kernel's reference speed.
"""

from __future__ import annotations

import math
import signal
import statistics
import time
from array import array
from bisect import bisect_left, bisect_right

import numpy as np

PERIOD_S = 0.05
# Loop count of the kernel, and its time on an unloaded 2-core Xeon host, which
# sets the reference speed. Change both together or neither.
KERNEL_LOOPS = 40
KERNEL_REF_S = 1.2e-3

_A = np.array([[0.6, 0.8j], [0.8j, 0.6]])


def kernel() -> float:
    acc = 0.0
    for i in range(KERNEL_LOOPS):
        x = math.cos(i * 1e-3)
        m = np.kron(_A * x, _A)
        r = m.conj().T @ m @ m
        acc += float(np.real(np.trace(r.reshape(2, 2, 2, 2), axis1=0, axis2=2).sum()))
        v = np.zeros(4, dtype=complex)
        v[0] = x
        acc += abs(complex(np.vdot(v, v)))
    return acc


def kernel_s(repeats: int = 1) -> float:
    """Mean time of `repeats` kernel runs."""
    t0 = time.perf_counter()
    for _ in range(repeats):
        kernel()
    return (time.perf_counter() - t0) / repeats


class RawClock:
    """No calibration: times are reported as measured."""

    spent = 0.0

    def factor(self, t0: float, t1: float) -> float:
        return 1.0

    def median_kernel_s(self) -> None:
        return None


class HostSpeed:
    """Samples the kernel's time every PERIOD_S while active (a context manager).

    `spent` is the total time the samples took; subtract its change over an
    interval from the interval's wall time. `factor(t0, t1)` scales work done
    between perf_counter readings t0 and t1 to the reference speed.
    """

    def __init__(self):
        self.spent = 0.0
        self._at = array("d")
        self._took = array("d")
        self._previous = None

    def _sample(self, signum, frame) -> None:
        t0 = time.perf_counter()
        kernel()
        took = time.perf_counter() - t0
        self._at.append(t0)
        self._took.append(took)
        self.spent += time.perf_counter() - t0

    def __enter__(self) -> "HostSpeed":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def median_kernel_s(self) -> float | None:
        return statistics.median(self._took) if self._took else None

    def factor(self, t0: float, t1: float) -> float:
        """KERNEL_REF_S over the mean kernel time sampled in [t0, t1].

        An interval with fewer than two samples also uses its neighbours.
        """
        lo = bisect_left(self._at, t0)
        hi = bisect_right(self._at, t1)
        if hi - lo < 2:
            lo, hi = max(0, lo - 1), min(len(self._at), hi + 1)
        took = self._took[lo:hi]
        mean = sum(took) / len(took) if len(took) else kernel_s()
        return KERNEL_REF_S / mean
