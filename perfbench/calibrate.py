"""Host-speed calibration: a fixed kernel timed beside every sample.

The development host (2 vCPUs on a shared machine) changes speed in
phases. Within one 90-second run of the paper's re-solve loop, the
median raw time of 20 consecutive re-solves ranged from 63 to 114 ms;
between runs an hour apart, the same code took 40-55% longer. No
statistic taken inside a run removes a shift of the whole host, so
every timing is taken beside a kernel that does fixed work and never
calls the program: its time measures the host's speed at that moment,
and a change to the program cannot move it.

A timing is reported in *calibrated seconds*: the raw time scaled by
the kernel's reference time over its time measured beside the sample.
It reads as the time the sample would have taken with the host at its
reference speed. A short sample is calibrated by the kernel times just
before and just after it. A sample of several seconds outlasts the
host's flips between fast and slow states, which come within a fraction
of a second, so a :class:`Sampler` also times the kernel during it.

The kernel is pure-Python rational arithmetic. Timed beside the
workloads' samples it followed their slow phases better than a
streaming numpy kernel or a dense LU solve did: across a run of
``scale-100k`` policies (raw IQR/median 0.24) the correlation was 0.91
and the calibrated spread 0.085; across ``constrained-1k`` policies
(0.14) 0.75 and 0.071; within the re-solve loop above the calibrated
medians of 20 re-solves stayed within +-6%.
"""

from __future__ import annotations

import signal
import statistics
import time
from fractions import Fraction
from typing import Callable, List

#: Median time of one kernel call on the reference host: a 2-vCPU
#: x86-64 VM in its normal phase, CPython 3.11. Any fixed value would
#: do; this one makes a calibrated second roughly a second there.
REFERENCE_S = 0.0070


def kernel() -> Fraction:
    """Rational arithmetic with growing denominators and dict updates."""
    total = Fraction(0)
    table: dict = {}
    for i in range(1, 1500):
        total += Fraction(i, i + 7)
        key = i % 97
        table[key] = table.get(key, 0) + i
    return total


class Calibrator:
    """Times the kernel on demand; keeps every measurement."""

    def __init__(self, reps: int,
                 clock: Callable[[], float] = time.perf_counter) -> None:
        self.reps = reps
        self.clock = clock
        kernel()  # the first call warms caches and the allocator
        self.samples: List[float] = []

    def measure(self) -> float:
        """Mean time of ``reps`` kernel calls.

        The mean, not the median: the host flips between fast and slow
        states within a fraction of a second, and a sample pays the
        average of them.
        """
        clock = self.clock
        times = []
        for _ in range(self.reps):
            t0 = clock()
            kernel()
            times.append(clock() - t0)
        value = statistics.fmean(times)
        self.samples.append(value)
        return value

    @staticmethod
    def factor(before: float, after: float) -> float:
        """Raw seconds to calibrated seconds, from the kernel times
        measured just before and just after a sample."""
        return REFERENCE_S / ((before + after) / 2.0)

    def to_dict(self) -> dict:
        return {
            "reps": self.reps,
            "reference_s": REFERENCE_S,
            "n": len(self.samples),
            "median_s": (statistics.median(self.samples)
                         if self.samples else None),
        }


class Sampler:
    """Kernel bursts from an interval timer while a long sample runs.

    Every *interval* seconds a ``SIGALRM`` handler times *reps* kernel
    calls. The interpreter runs the handler between bytecodes, so a
    long C call delays it until the call returns. The time spent in the
    handler is kept in ``paused_s`` so that it can be taken out of the
    sample's raw time.
    """

    def __init__(self, interval: float, reps: int,
                 clock: Callable[[], float] = time.perf_counter) -> None:
        self.interval = interval
        self.reps = reps
        self.clock = clock
        self.draws: List[float] = []
        self.paused_s = 0.0
        self._previous = None

    def _handler(self, signum, frame) -> None:
        clock = self.clock
        t0 = clock()
        for _ in range(self.reps):
            kernel()
        t1 = clock()
        self.draws.append((t1 - t0) / self.reps)
        self.paused_s += clock() - t0

    def __enter__(self) -> "Sampler":
        self._previous = signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def factor(self) -> float:
        """Raw seconds to calibrated seconds, from the kernel times
        measured during the sample."""
        return REFERENCE_S / statistics.fmean(self.draws)
