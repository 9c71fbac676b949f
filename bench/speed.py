"""Machine-speed probe: report times at a fixed reference speed.

The benchmark runs on shared machines whose speed drifts by a factor of
two within seconds, while other tenants come and go; CPU time drifts with
it. To make runs comparable, every timed interval is scaled by how fast a
fixed probe (exact Fraction arithmetic, the library's own dominant cost)
ran around and during it:

    reference time = measured time x REFERENCE_S / mean probe time

The probe is sampled once before and once after each interval, outside
it, and every INTERVAL_S inside it by an interval timer whose handler runs
between bytecodes of the main thread (no thread is started). The time the
handler spends is subtracted from the interval. bench/README.md gives
the run-to-run spreads with and without the scaling.

The probe is benchmark code, so a change to the library moves the scaled
times exactly as it moves the measured ones.
"""

from __future__ import annotations

import signal
from contextlib import contextmanager
from fractions import Fraction
from statistics import fmean
from time import perf_counter, process_time
from typing import NamedTuple

REFERENCE_S = 0.0023  # median probe time on the reference machine
INTERVAL_S = 0.05


class Timing(NamedTuple):
    """Seconds of one interval: measured, and at reference speed."""
    wall: float
    cpu: float
    ref_wall: float
    ref_cpu: float


def _probe_work() -> Fraction:
    acc = Fraction(0)
    for i in range(1, 300):
        acc += Fraction(i % 97 + 1, i % 13 + 7) * Fraction(i % 11 + 1,
                                                         i % 89 + 3)
    return acc


class SpeedProbe:
    """Probe samples plus the time the timer handler took from the run."""

    def __init__(self):
        self.samples: list[float] = []
        self.wall_spent = 0.0
        self.cpu_spent = 0.0
        self._busy = False

    def sample(self) -> float:
        self._busy = True
        try:
            t0 = perf_counter()
            _probe_work()
            dt = perf_counter() - t0
        finally:
            self._busy = False
        self.samples.append(dt)
        return dt

    def _on_timer(self, signum, frame) -> None:
        if self._busy:
            return
        w0 = perf_counter()
        c0 = process_time()
        self.sample()
        self.cpu_spent += process_time() - c0
        self.wall_spent += perf_counter() - w0

    @contextmanager
    def running(self):
        """Sample every INTERVAL_S while the block runs."""
        previous = signal.signal(signal.SIGALRM, self._on_timer)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def timed(self, fn, *args) -> tuple[object, Timing]:
        """fn(*args) and its Timing; call inside running()."""
        before = self.sample()
        first = len(self.samples)
        wall_spent, cpu_spent = self.wall_spent, self.cpu_spent
        t0 = perf_counter()
        c0 = process_time()
        result = fn(*args)
        c1 = process_time()
        t1 = perf_counter()
        wall = t1 - t0 - (self.wall_spent - wall_spent)
        cpu = c1 - c0 - (self.cpu_spent - cpu_spent)
        inside = self.samples[first:]
        scale = REFERENCE_S / fmean([before, *inside, self.sample()])
        return result, Timing(wall, cpu, wall * scale, cpu * scale)


def timed_plain(fn, *args) -> tuple[object, Timing]:
    """fn(*args) and its measured Timing, without probing (for tracing)."""
    t0 = perf_counter()
    c0 = process_time()
    result = fn(*args)
    c1 = process_time()
    t1 = perf_counter()
    return result, Timing(t1 - t0, c1 - c0, t1 - t0, c1 - c0)
