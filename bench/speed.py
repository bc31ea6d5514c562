"""Timings rescaled to a fixed machine speed.

On a shared host the speed of one vCPU drifts, from load outside the VM,
by up to about 2x over seconds and minutes, and whole runs move with it.
To take that drift out, a fixed pure-Python block is timed again and
again while the work runs: ``REF_SECONDS`` divided by the block's time is
the machine's speed at that moment, and the work's wall time multiplied
by the mean of those speeds is the time it would have taken at reference
speed.  The block is work of the same kind as ``equihh``'s, which spends
most of its time in ``fractions.Fraction`` arithmetic on dict entries, so
both slow down together.  A block of small-int dict arithmetic tracked
``hh-cyclic`` less well: it slowed about 9% more than the ops did when
the machine was slow.
"""

from __future__ import annotations

import signal
import time
from fractions import Fraction

# The block's time at the faster of the two speeds of the machine this
# benchmark was tuned on (2 vCPUs, Intel Xeon), so that rescaled times
# read close to that speed's wall times.
REF_SECONDS = 115e-6
INTERVAL = 0.02  # seconds of wall time between two samples during the work


def reference_block():
    acc = {}
    x = Fraction(1)
    for i in range(25):
        x *= Fraction(i % 7 + 1, i % 5 + 1)
        if x.numerator > 1000:
            x = 1 / x
        key = (i & 15, i & 3)
        acc[key] = acc.get(key, 0) + x
    return acc


def time_block():
    t0 = time.perf_counter()
    reference_block()
    return time.perf_counter() - t0


def speed(samples):
    """Mean machine speed over block times sampled evenly in time: the
    work done in an interval is its length times the mean speed in it."""
    return sum(REF_SECONDS / t for t in samples) / len(samples)


class Sampler:
    """Times the block every ``interval`` seconds of wall time while the
    ``with`` body runs, from a SIGALRM handler, and once on entry and on
    exit.  The handler runs in the main thread between bytecodes, so the
    samples spread over the work.  Use from the main thread only."""

    def __init__(self, interval=INTERVAL):
        self.interval = interval

    def __enter__(self):
        self.samples = [time_block()]
        self.inside = []
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        self._start = time.perf_counter()
        return self

    def _tick(self, signum, frame):
        self.inside.append(time_block())

    def __exit__(self, *exc):
        self.wall = time.perf_counter() - self._start
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self.samples += self.inside
        self.samples.append(time_block())
        return False

    def scaled(self):
        """Seconds of the body's own work, without the samples taken
        inside it, at reference speed."""
        return (self.wall - sum(self.inside)) * speed(self.samples)
