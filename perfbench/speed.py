"""Host-speed correction for the benchmark's times.

The benchmark shares a host whose speed changes under it: a fixed loop of
stdlib arithmetic takes 0.11 s for a few seconds, then 0.20 s for a few
seconds, in both wall and CPU time, as other work lands on the same
physical core.  Over a 30 s repetition the share of slow seconds differs
from run to run, so raw times of the same code spread by 25-30% between
runs.

A Sampler measures that speed while the workload runs.  Every PERIOD_S of
the process's CPU time a SIGPROF handler runs `reference_loop`, fixed work
on stdlib types only (no liesym code, so a change to liesym cannot change
the yardstick), and records the CPU time it took.  Each stretch of CPU time
between two samples is rescaled to the reference speed, at which the loop
takes REF_S, using the mean duration of the loop at its two ends.  A time
is reported as what it would have been at the reference speed: the raw time
times `scale`, the reference-speed CPU seconds of the workload per raw CPU
second spent between two marks (the loop's own time included, so that the
sampling cost drops out).

CPU time is the main thread's (time.thread_time), which runs both the
workload and the loop: the process-wide CPU clock can read stale values
while ITIMER_PROF is armed.
"""

from __future__ import annotations

import signal
import time
from fractions import Fraction

PERIOD_S = 0.05
REF_S = 1e-3  # CPU seconds of one reference_loop at the reference speed

_MOD = 5 ** 300


def reference_loop() -> int:
    """About 1-2 ms of interpreter work of the kinds liesym does: Fraction
    arithmetic, dicts keyed by tuples, and big-integer products."""
    acc = Fraction(0)
    counts: dict = {}
    big = 3 ** 200
    for i in range(1, 300):
        acc += Fraction(i % 97 + 1, i % 89 + 1)
        key = (i % 13, i % 7)
        counts[key] = counts.get(key, 0) + i
        big = (big * 7 + i) % _MOD
    return big + acc.numerator + len(counts)


class Sampler:
    """Samples the host's speed in this process from start() to stop()."""

    def __init__(self):
        self.samples: list = []  # (cpu at loop start, cpu at loop end)
        self._busy = False

    def _sample(self, *_signal_args):
        if self._busy:  # the timer fired during mark()'s sample
            return
        self._busy = True
        c0 = time.thread_time()
        reference_loop()
        self.samples.append((c0, time.thread_time()))
        self._busy = False

    def start(self) -> "Sampler":
        signal.signal(signal.SIGPROF, self._sample)
        self._sample()
        signal.setitimer(signal.ITIMER_PROF, PERIOD_S, PERIOD_S)
        return self

    def stop(self):
        signal.setitimer(signal.ITIMER_PROF, 0, 0)

    def mark(self) -> int:
        """Take a sample now and return its index, to bound an interval."""
        self._sample()
        return len(self.samples) - 1

    def totals(self, a: int, b: int) -> tuple:
        """(reference-speed CPU s of the workload, raw CPU s in all) between
        marks a and b."""
        s = self.samples[a:b + 1]
        ref = 0.0
        for (c0, c1), (d0, d1) in zip(s, s[1:]):
            ref += (d0 - c1) * REF_S / (((c1 - c0) + (d1 - d0)) / 2)
        return ref, s[-1][1] - s[0][0]

    def scale(self, a: int, b: int) -> float:
        ref, raw = self.totals(a, b)
        return ref / raw if raw > 0 else REF_S / (self.samples[b][1] - self.samples[b][0])
