"""Machine-speed probe for timing on a shared host.

On a shared host the same invocation runs up to 1.7x slower for stretches
of seconds.  While a pass runs, a background thread of the harness times a
small fixed pure-Python routine every ``PERIOD_S`` on the other core; the
mean of those timings over an invocation's lifetime measures how fast the
machine ran during it.  The invocation's times are then multiplied by
``REFERENCE_S`` over that mean: they read as seconds at the machine speed
where the routine takes ``REFERENCE_S`` beside a running child.  On ten
repeats of a 5 s axiom suite this cut the coefficient of variation from 11%
(raw) to 3%; timing the routine only between invocations left 9%.
"""

import threading
import time
from fractions import Fraction

PERIOD_S = 0.1
REFERENCE_S = 0.01
MIN_SAMPLES = 5


def clock():
    """CLOCK_MONOTONIC, which the harness and its children share."""
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def routine():
    """Dicts keyed by tuples, Fractions, sorting and recursion over bit
    masks, like dposet's kernels; about 3 ms on an idle 2-core Xeon."""
    table = {}
    total = Fraction(0)
    for i in range(1500):
        key = (i % 37, (i * 7919) % 101)
        table[key] = table.get(key, 0) + i
        total += Fraction(i % 11, i % 5 + 1)
    ordered = sorted(table.items(), key=lambda kv: (kv[1], kv[0]))

    def walk(mask, depth):
        if depth == 0:
            return 1
        return sum(walk(mask | 1 << b, depth - 1) for b in range(4) if not mask >> b & 1)

    return len(ordered) + walk(0, 4) + total.numerator


class SpeedProbe:
    """Context manager that samples the routine's duration while it is open."""

    def __init__(self):
        self.samples = []  # (start, end) of each timed routine
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _sample(self):
        start = clock()
        routine()
        self.samples.append((start, clock()))

    def _run(self):
        while not self._stop.wait(PERIOD_S):
            self._sample()

    def __enter__(self):
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join()
        while len(self.samples) < MIN_SAMPLES:
            self._sample()

    def scale(self, start, end):
        """REFERENCE_S over the mean duration of the samples taken within
        [start, end], or of the MIN_SAMPLES nearest ones when fewer fit."""
        durations = [e - s for s, e in self.samples if start <= s and e <= end]
        if len(durations) < MIN_SAMPLES:
            middle = (start + end) / 2
            nearest = sorted(self.samples, key=lambda se: abs(se[0] + se[1] - 2 * middle))
            durations = [e - s for s, e in nearest[:MIN_SAMPLES]]
        return REFERENCE_S * len(durations) / sum(durations)
