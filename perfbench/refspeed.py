"""Times at a fixed reference speed of the machine.

On a shared host the speed of one CPU drifts with the load of other tenants:
on the 2-vCPU VM this benchmark was written on, the same operation took
between 1.0 and 1.7 s over two minutes, thread CPU time drifted with wall
time and no steal time was reported, so no in-guest clock excludes the
drift.  What does track it is a fixed reference computation timed on the
same CPU at the same moment.  While a timed region runs, a SIGALRM handler
times ``kernel`` every ``INTERVAL_S``; the region's time, less the time
spent in the handler, times ``REFERENCE_S`` over the kernel's mean time, is
the region's time at reference speed: the seconds it would have taken had the
CPU run the kernel in ``REFERENCE_S``.  The kernel mixes small numpy vector
operations with interpreted arithmetic, as the program's inner loops do, and
calls nothing in ``poisson_grad``, so a change to the program cannot move it.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

INTERVAL_S = 0.02
# the kernel's time when sampled during an operation on an uncontended vCPU
# of the 2.1 GHz Xeon VM the benchmark was written on; it only fixes the
# scale of the reported seconds
REFERENCE_S = 2.0e-4

_X = np.linspace(0.0, 1.0, 576)


def kernel() -> float:
    total = 0.0
    for i in range(8):
        y = np.cos(_X + i) * 0.5 - np.roll(_X, 1)
        total += float(y @ _X)
        for k in range(20):
            total += k
    return total


class Speedometer:
    """Samples the kernel's time while a ``with`` block runs.

    One sample is taken on entry, after an untimed warm-up call and before
    the timer is armed, so that a block shorter than the interval still has
    one.
    """

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.handler_s = 0.0  # time the block spent in the sampling handler

    def _sample(self, *_) -> None:
        entered = time.perf_counter()
        kernel()
        self.samples.append(time.perf_counter() - entered)
        self.handler_s += time.perf_counter() - entered

    def __enter__(self) -> Speedometer:
        self.samples.clear()
        kernel()
        self._sample()
        self.handler_s = 0.0
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *_) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    @property
    def kernel_s(self) -> float:
        return statistics.fmean(self.samples)

    def scale(self, seconds: float) -> float:
        """``seconds`` measured around the block, at reference speed."""
        return scale(seconds, self.handler_s, self.kernel_s)


def scale(seconds: float, handler_s: float, kernel_s: float) -> float:
    return (seconds - handler_s) * REFERENCE_S / kernel_s
