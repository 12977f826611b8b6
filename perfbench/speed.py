"""The machine's current speed, from a fixed reference kernel.

The benchmark's host is a shared virtual machine whose speed drifts by
30-70% from one minute to the next (neighbours on the same cores; the
vCPUs report no steal time, so CPU time drifts exactly as wall time does).
No statistic of one run's raw times removes a drift that outlasts the run.
So while the worker runs the batch, an interval timer interrupts it every
:data:`EVERY_S` seconds to run :func:`kernel` in the same thread, and
:meth:`Samples.scaled` turns each call's wall time, less the kernel runs
inside it, into seconds at the reference speed, where the kernel takes
:data:`REFERENCE_S`. The kernel is the same mix the program spends its time
in: interpreter loops, small LAPACK solves through numpy, and elementwise
numpy on a 64 x 64 image. It is code of this benchmark, so a change to
repkit cannot move it.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time

import numpy as np

# Median kernel time on the baseline machine (2-vCPU 2.0 GHz Xeon VM,
# Python 3.11, numpy 2.4). Only ratios to it matter: it fixes the unit.
REFERENCE_S = 0.009
EVERY_S = 0.1
# Kernel samples within this many seconds of a call set its speed factor.
WINDOW_S = 0.25

_A = np.random.default_rng(0).standard_normal((6, 6)) + 6.0 * np.eye(6)
_B = np.ones(6)
_X = np.random.default_rng(1).standard_normal((64, 64))


def kernel():
    """A fixed piece of work."""
    s = 0
    for i in range(30000):
        s += i * i
    for _ in range(400):
        np.linalg.solve(_A, _B)
    x = _X
    for _ in range(40):
        x = np.clip(np.roll(x, 1, 0) - 0.5 * x, -1.0, 1.0)


class Samples:
    """Kernel runs ``[start, seconds]`` in time order."""

    def __init__(self, samples=()):
        self.samples = sorted(samples)
        self._starts = [t for t, _ in self.samples]
        self._running = False

    def take(self, *_):
        """Run the kernel now and keep the sample (also the timer's
        signal handler, which skips a tick that comes during a run)."""
        if self._running:
            return
        self._running = True
        t0 = time.perf_counter()
        kernel()
        self.samples.append([t0, time.perf_counter() - t0])
        self._starts.append(t0)
        self._running = False

    def start(self):
        """Take a sample now and every :data:`EVERY_S` seconds after."""
        self.take()
        signal.signal(signal.SIGALRM, self.take)
        signal.setitimer(signal.ITIMER_REAL, EVERY_S, EVERY_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self.take()

    def busy(self, start, end):
        """Seconds of kernel runs that lie inside ``[start, end]``.

        The handler runs in the main thread, so a kernel run lies either
        wholly inside a call or wholly outside it.
        """
        lo = bisect.bisect_left(self._starts, start)
        hi = bisect.bisect_right(self._starts, end)
        return sum(s for _, s in self.samples[lo:hi])

    def factor(self, start=None, end=None):
        """Kernel time around ``[start, end]`` over :data:`REFERENCE_S`.

        The median of the samples within :data:`WINDOW_S` of the interval,
        and always of the last one before it and the first one after it.
        Without an interval, the median of all samples.
        """
        near = self.samples
        if start is not None:
            lo = bisect.bisect_left(self._starts, start - WINDOW_S)
            hi = bisect.bisect_right(self._starts, end + WINDOW_S)
            before = bisect.bisect_left(self._starts, start) - 1
            after = bisect.bisect_right(self._starts, end)
            lo = max(0, min(lo, before))
            hi = max(hi, min(after + 1, len(self._starts)))
            near = self.samples[lo:hi]
        return statistics.median(s for _, s in near) / REFERENCE_S

    def scaled(self, start, end):
        """Seconds of program work in ``[start, end]`` (the wall time less
        the kernel runs inside it) at the reference speed."""
        return (end - start - self.busy(start, end)) / self.factor(start, end)
