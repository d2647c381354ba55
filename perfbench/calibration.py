"""Scaling of measured times to a reference machine speed.

On a shared host the same code runs up to about 1.8x slower for stretches of
a fraction of a second to 20 s while other tenants load the machine, and
process CPU time slows with wall time, so it is no escape.  A fixed kernel of
small-array numpy calls, float arithmetic and float formatting, the mix
twofold's hot paths and CSV writers run, slows by about the same factor: on a
2-vCPU Xeon VM, over 90 one-second windows, the time of a cycle solve varied
by 17% (coefficient of variation) and its ratio to this kernel by 7%.

So the benchmark samples the kernel all through a measured phase, from a
SIGALRM handler every SAMPLE_EVERY_S of wall time (also inside long ops), and
reports every time scaled to reference speed: ``t * REF_KERNEL_S / k``, where
``k`` is the mean kernel time sampled during and around ``t``.  The handler's
own time is subtracted from the op it interrupted.  On a host where the
kernel takes REF_KERNEL_S the scaled time is the wall time; the kernel does
not touch twofold, so a change to twofold cannot move it.
"""
import bisect
import math
import signal
import statistics
import time

import numpy as np

REF_KERNEL_S = 0.6e-3
SAMPLE_EVERY_S = 0.03
WINDOW_S = 0.1  # kernel samples this close to an op also describe its speed
_A = np.linspace(0.0, 1.0, 16)


def kernel() -> float:
    s = 0.0
    for i in range(80):
        v = np.exp(_A * 0.01 * i) * np.sin(_A + i)
        s += float(v[3]) + math.hypot(i, s % 7.0)
        s += len(repr({"i": i, "s": s})) * 1e-9
    parts = []
    for i in range(150):
        x = (i * 0.37) % 1.7
        parts.append(repr(x * 1.000001))
        s += math.sin(x) * math.exp(-x)
    return s + len(",".join(parts))


def kernel_seconds(repeat: int = 5) -> float:
    """Median wall time of one kernel run."""
    times = []
    for _ in range(repeat):
        t0 = time.perf_counter()
        kernel()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


class SpeedSampler:
    """Kernel samples taken from a timer signal while the block runs.

    ``scale(t0, t1)`` turns the wall interval of one op into its time at
    reference speed, net of the samples taken inside it.
    """

    def __init__(self):
        self.starts: list[float] = []
        self.ends: list[float] = []

    def _sample(self, signum, frame):
        t0 = time.perf_counter()
        kernel()
        self.starts.append(t0)
        self.ends.append(time.perf_counter())

    def __enter__(self):
        self._sample(None, None)
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        self._sample(None, None)
        return False

    def scale(self, t0: float, t1: float) -> float:
        starts, ends = self.starts, self.ends
        lo, hi = bisect.bisect_left(starts, t0), bisect.bisect_left(starts, t1)
        net = (t1 - t0) - sum(ends[k] - starts[k] for k in range(lo, hi))
        near_lo = bisect.bisect_left(starts, t0 - WINDOW_S)
        near_hi = bisect.bisect_left(starts, t1 + WINDOW_S)
        if near_hi - near_lo < 2:  # fewer than two samples nearby: take the closest two
            near_lo = max(0, min(near_lo, len(starts) - 2))
            near_hi = near_lo + 2
        k = statistics.fmean(ends[j] - starts[j] for j in range(near_lo, near_hi))
        return net * REF_KERNEL_S / k
