"""Machine-speed correction for timings taken on a shared box.

On a shared virtual machine the speed of one vCPU swings by up to 1.9x
within seconds to minutes (other tenants, not this process: the process
CPU time swings with the wall time, and no steal time is reported).  A
raw timing then measures the neighbours as much as the program.

While a ``SpeedSampler`` is active, an interval timer (``SIGALRM``, every
``INTERVAL_S`` of wall time) runs a fixed reference loop in the main
thread, between two bytecodes of whatever the program is doing, and
records how long the loop took.  No thread or process is started.  The
loop uses only small ints and a preallocated dict, so it allocates no
object the cyclic garbage collector tracks and cannot trigger a
collection of the program's heap.

``normalize(t0, t1)`` turns a raw interval into seconds at reference
speed: the interval minus the reference loops that ran inside it, times
the mean of ``REF_NOMINAL_S / r`` over the loops ``r`` timed in the
interval (widened to at least ``WINDOW_S`` around its middle, so a short
interval still has several).  The samples are uniform in time, so that
mean is the time-weighted mean speed relative to the nominal one.
``REF_NOMINAL_S`` is about what the loop takes on a quiet 2-vCPU box
under CPython 3.11, so normalized and raw seconds agree there.
"""

from __future__ import annotations

import bisect
import signal
import time

INTERVAL_S = 0.05
WINDOW_S = 0.5
REF_ROUNDS = 12000
REF_NOMINAL_S = 0.0018

_TABLE = dict.fromkeys(range(256), 1)


def reference() -> int:
    """A fixed amount of interpreter work: modular ints and dict updates."""
    table = _TABLE
    x = 1
    for _ in range(REF_ROUNDS):
        x = x * 7919 % 10007
        k = x & 255
        table[k] = table[k] * x % 10007
    return x


class SpeedSampler:
    """Times ``reference`` every ``INTERVAL_S`` while active (a context
    manager); ``starts`` and ``durations`` hold the samples in time order."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.starts: list[float] = []
        self.durations: list[float] = []
        self._previous = None

    def sample(self, *_signal_args):
        t0 = self.clock()
        reference()
        self.starts.append(t0)
        self.durations.append(self.clock() - t0)

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def _range(self, t0, t1):
        return bisect.bisect_left(self.starts, t0), bisect.bisect_left(self.starts, t1)

    def busy(self, t0: float, t1: float) -> float:
        """Time spent in reference loops that started in [t0, t1)."""
        i, j = self._range(t0, t1)
        return sum(self.durations[i:j])

    def speed(self, t0: float, t1: float) -> float:
        """Mean speed relative to nominal over [t0, t1], widened to at
        least ``WINDOW_S``; the nearest sample if the window holds none,
        and 1.0 if there are no samples at all."""
        if not self.starts:
            return 1.0
        mid = (t0 + t1) / 2
        i, j = self._range(min(t0, mid - WINDOW_S / 2), max(t1, mid + WINDOW_S / 2))
        if i == j:
            k = min((k for k in (i - 1, i) if 0 <= k < len(self.starts)),
                    key=lambda k: abs(self.starts[k] - mid))
            i, j = k, k + 1
        return sum(REF_NOMINAL_S / d for d in self.durations[i:j]) / (j - i)

    def normalize(self, t0: float, t1: float) -> float:
        """Seconds at reference speed taken by the program in [t0, t1]."""
        return (t1 - t0 - self.busy(t0, t1)) * self.speed(t0, t1)
