"""In-process speed probe: command times corrected for the machine's speed.

On a shared machine a core's speed depends on its neighbours' load.  On the
2-core VM the benchmark was built on, the probe's loop below ran in about
0.10 ms or 0.14 ms depending on the second, and each core held a state for
seconds to minutes.  Whole runs landed in one state, and raw command times
spread by up to 29 % of their median over ten runs.

While a pass runs, a timer signal makes the benchmark's own thread run a
fixed pure-Python loop every PERIOD_S.  A command's time at reference speed
is its wall time less the probe's own samples, multiplied by the mean of
REFERENCE_S / (loop time) over the samples taken while it ran.  This cut the
pass-to-pass spread of `train-lstm` from 13 % to 3 % (coefficient of
variation).

The correction assumes a single-threaded program, as matchkit is (BLAS is
held to one thread).  A fixed cost of about 290 ms at reference speed, added
to `train-lstm`, raised its corrected time by about that much both on the
main thread and on a helper thread the main thread joined.  But work that
runs beside the main thread and competes with the loop for the GIL or the
core would slow the loop, and be divided out as if the machine were slow.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time

PERIOD_S = 0.02
LOOP = 1500
# About the loop's time on an idle core of the machine the benchmark was built on.
REFERENCE_S = 1e-4
# A short command also uses the samples taken this close before and after it.
MARGIN_S = 0.1


def _loop() -> int:
    total = 0
    for i in range(LOOP):
        total += i * i % 7
    return total


class SpeedProbe:
    """Samples the loop time while active (`with probe:`); keeps all samples."""

    def __init__(self):
        self.starts: list[float] = []
        self.times: list[float] = []
        self._previous = None

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def _sample(self, signum, frame):
        self.sample()

    def sample(self, count: int = 1) -> None:
        """Time the loop `count` times now."""
        for _ in range(count):
            start = time.perf_counter()
            _loop()
            self.starts.append(start)
            self.times.append(time.perf_counter() - start)

    def at_reference_speed(self, start: float, end: float) -> float:
        """Seconds the interval [start, end] would take at reference speed."""
        lo, hi = (bisect.bisect_left(self.starts, t) for t in (start, end))
        near = self.times[bisect.bisect_left(self.starts, start - MARGIN_S):
                          bisect.bisect_left(self.starts, end + MARGIN_S)]
        if not near:
            raise ValueError("no probe samples near the interval")
        speed = statistics.fmean(REFERENCE_S / t for t in near)
        return (end - start - sum(self.times[lo:hi])) * speed
