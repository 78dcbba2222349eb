"""Rescale the benchmark's timings to a fixed machine speed.

The machine the benchmark was written on changes speed by up to 2x, in
stretches that last from seconds to over half an hour; process time slows
with wall time, so the CPU itself runs slower.  A timing taken in a slow
stretch says more about the stretch than about the program.

``SpeedSampler`` runs a fixed reference loop of the benchmark's own
(``reference_work``: small Python objects, dicts and strings, as in the
drivers' bookkeeping; interpreter steps and small numpy products, as in
the solver loops; and a logistic loss over 10 000 rows, as in the
multitask oracle) from a SIGALRM timer while the steps run, ``PERIOD_S``
seconds after the previous sample ended, and records how long each
sample took.  ``scaled`` then rescales the time of an interval,
segment by segment, to the speed at which the reference loop takes
``REFERENCE_S``: each segment between two samples is multiplied by
``REFERENCE_S`` over the median duration of the samples around it.  The
samples' own time is left out.  A program that does half the work reads
half the time whatever the machine's speed, and a slow stretch no longer
reads as a slower program.  The reference loop is the benchmark's code, so
no change to mograd moves it.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time

import numpy as np

PERIOD_S = 0.05
# Timings are reported as if every sample had taken this long: about the
# median sample inside a box on the machine the benchmark was written on
# (Intel Xeon, 2 cores, Python 3.11.7, numpy 2.4.6).
REFERENCE_S = 1.5e-3
NEIGHBOURS = 2  # samples on each side that set a segment's speed

_X = np.linspace(0.0, 1.0, 10)
_A = np.outer(_X, _X) + np.eye(10)
_F = np.sin(np.arange(60_000.0)).reshape(10_000, 6)
_W = np.linspace(-1.0, 1.0, 6)


class _Pair:
    __slots__ = ("a", "b")

    def __init__(self, a, b):
        self.a = a
        self.b = b


def reference_work():
    pairs = {}
    for i in range(400):
        p, q = _Pair(i, 1.0), _Pair(2.0, i)
        pairs[str(i)] = _Pair(p.a + q.b, p.b - q.a)
    s = sum(v.a for v in pairs.values() if v.b > 0)
    x = _X
    for _ in range(40):
        y = _A @ x
        s += float(y @ y)
        x = y / (1.0 + float(np.abs(y).max()))
    for _ in range(2):
        z = _F @ (_W * x[0])
        p = 1.0 / (1.0 + np.exp(-z))
        s += float(np.mean(np.log(p)))
    return s


class SpeedSampler:
    """Samples the machine's speed while it is entered; see the module docstring."""

    def __init__(self, period=PERIOD_S, work=reference_work):
        self.period = period
        self.work = work
        self.starts = []
        self.durations = []
        self._armed = False

    def sample(self, *_):
        t = time.perf_counter()
        self.work()
        self.starts.append(t)
        self.durations.append(time.perf_counter() - t)
        if self._armed:
            # One-shot, armed again after each sample, so samples never nest
            # however slow the machine is.
            signal.setitimer(signal.ITIMER_REAL, self.period)

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self.sample)
        self._armed = True
        self.sample()
        return self

    def __exit__(self, *exc):
        self._armed = False
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self.sample()

    def _speed_at(self, q):
        """Median duration of the samples around sample ``q``."""
        lo = max(0, q - NEIGHBOURS)
        hi = min(len(self.durations), q + NEIGHBOURS + 1)
        return statistics.median(self.durations[lo:hi])

    def scaled(self, a, b):
        """Time in [a, b], less the samples in it, at the reference speed."""
        i = bisect.bisect_left(self.starts, a)
        j = bisect.bisect_left(self.starts, b)
        total, start = 0.0, a
        for q in range(i, j + 1):
            end = self.starts[q] if q < j else b
            total += max(0.0, end - start) * REFERENCE_S / self._speed_at(min(q, len(self.starts) - 1))
            if q < j:
                start = self.starts[q] + self.durations[q]
        return total
