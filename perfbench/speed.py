"""Machine-speed sampling, which takes a shared host's slow phases out of the timings.

On a shared virtual machine the same work runs up to 1.8 times slower
for seconds to tens of minutes at a time, and the process's CPU time
slows with it, so neither wall time nor CPU time repeats from run to
run.  While a pass or a set-up runs, a wall-clock timer interrupts it
at a fixed interval to time `reference_loop`, a fixed piece of
pure-Python work that calls nothing of `amalgam`.  A sample's speed is
`REFERENCE_NS` over the loop's measured time: 1 when the loop takes
`REFERENCE_NS`, about its median time on the machine of baseline.json,
and below 1 in a slow phase.

A stretch of work that took W wall seconds, the samples' own time left
out, is reported as W times the mean speed of the samples taken during
it: the time the work would have taken had the machine run the
reference loop in `REFERENCE_NS` throughout.  Samples are spaced evenly
in wall time, so their mean is the time-weighted mean speed.  The loop
and the package are both interpreter work and slow down together; no
change to the package moves the loop.
"""
from __future__ import annotations

import signal
import time
from contextlib import contextmanager

INTERVAL_S = 0.05
REFERENCE_NS = 1_000_000
REFERENCE_ITERATIONS = 1500


def _step(acc: int, i: int) -> int:
    return (acc * 31 + i * i) % 1000003


def reference_loop(n: int = REFERENCE_ITERATIONS) -> int:
    """Tuples, dict lookups, integer arithmetic and calls: the package's staple work."""
    table: dict = {}
    acc = 0
    for i in range(n):
        key = (i & 31, i % 7)
        table[key] = table.get(key, 0) + i
        acc = _step(acc, i)
    return acc


class SpeedSampler:
    """Times the reference loop at regular wall-clock intervals while running."""

    def __init__(self, interval_s: float = INTERVAL_S, clock=time.perf_counter_ns):
        self.interval_s = interval_s
        self.clock = clock
        self.samples: list[tuple[int, int, float]] = []  # (start ns, end ns, speed)

    def sample(self, *_signal) -> None:
        clock = self.clock
        t0 = clock()
        reference_loop()
        t1 = clock()
        self.samples.append((t0, t1, REFERENCE_NS / (t1 - t0)))

    def paused_ns(self, start_ns: int, end_ns: int) -> int:
        """Time the samples took between two clock readings, to leave out of the work's.

        Samples are compared by their own times, so one taken between a
        reading and this call is never counted.
        """
        total = 0
        for t0, t1, _ in reversed(self.samples):
            if t1 < start_ns:
                break
            if t0 >= start_ns and t1 <= end_ns:
                total += t1 - t0
        return total

    @contextmanager
    def running(self):
        previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, self.interval_s, self.interval_s)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def speed(self, start_ns: int, end_ns: int) -> float:
        """Mean speed of the samples that ended in [start_ns, end_ns].

        A stretch too short to hold a sample takes the last sample before
        its end; with no sample at all, one is taken now.
        """
        inside = [s for _, t, s in self.samples if start_ns <= t <= end_ns]
        if inside:
            return sum(inside) / len(inside)
        before = [s for _, t, s in self.samples if t <= end_ns]
        if not before:
            self.sample()
            before = [self.samples[-1][2]]
        return before[-1]
