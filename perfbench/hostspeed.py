"""How fast the shared host runs the interpreter, and times scaled to a
reference speed.

The host's speed drifts by up to 2x for minutes at a time, and the
benchmark's calls slow down with it.  A **host tick** is the fastest of a
few runs of a fixed pure-Python loop (~4 ms a run); it slows by nearly the
same factor, and it runs no biccert code.  A call's time at the reference
speed is ``seconds * REF_TICK_S / tick``, where ``tick`` is the mean of the
ticks taken before, during and after the call.  ``REF_TICK_S`` is about the
loop's time on the 2-vCPU Xeon VM (2.1 GHz) the baseline in README.md was
recorded on.
"""

from __future__ import annotations

import contextlib
import math
import signal
import statistics
import time

TICK_LOOP = 60_000
TICK_REPS = 5  # runs per tick between calls
TICK_REPS_DURING = 3  # runs per tick inside a call, to keep the intrusion small
TICK_EVERY_S = 0.5  # interval of the ticks inside a call
REF_TICK_S = 0.004


def host_tick_s(reps: int = TICK_REPS) -> float:
    """Fastest of ``reps`` runs of the tick loop, in seconds."""
    best = math.inf
    for _ in range(reps):
        start = time.perf_counter()
        acc = 0
        for i in range(TICK_LOOP):
            acc += i * i
        best = min(best, time.perf_counter() - start)
    return best


def at_ref_speed(seconds: float, ticks: list[float]) -> float:
    return seconds * REF_TICK_S / statistics.fmean(ticks)


class TickSampler:
    """Ticks inside a call: a SIGALRM every TICK_EVERY_S interrupts the call
    and takes a tick.  ``spent`` is the time the ticks took, which the caller
    subtracts from the call's time."""

    def __init__(self):
        self.ticks: list[float] = []
        self.spent = 0.0

    def _on_alarm(self, signum, frame):
        start = time.perf_counter()
        self.ticks.append(host_tick_s(TICK_REPS_DURING))
        self.spent += time.perf_counter() - start

    @contextlib.contextmanager
    def sampling(self):
        self.ticks, self.spent = [], 0.0
        previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, TICK_EVERY_S, TICK_EVERY_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
