"""Host speed sampled during a run, to put times on a shared host in
reference-speed seconds.

On a shared host the same code runs 1.0x to 1.6x slower from one minute to
the next, and process CPU time rises with wall time, so neither can be
compared across runs. :class:`HostSpeed` interrupts the process every
``PERIOD`` seconds (``SIGALRM``) and times a fixed loop that uses no harvana
code; the loop runs twice and the second, warm pass is kept, so the cache
state the program leaves behind does not enter. A time measured over an
interval, multiplied by ``REFERENCE_S`` over the median sample in that
interval, is in reference-speed seconds: comparable between runs whatever
the host's load, though under load a job slows more than the loop does.
Sampling costs about 0.3% of the run. Work on threads that compete with
the main thread for a CPU also slows the loop, so this scaling would hide
it; raw seconds are kept beside the scaled ones.
"""

from __future__ import annotations

import signal
import statistics
import time

PERIOD = 0.02
REFERENCE_S = 20e-6     # about one warm loop pass on this 2-CPU Xeon host, lightly loaded
LOOP = 300


def _loop() -> float:
    t0 = time.perf_counter()
    s = 0
    for i in range(LOOP):
        s += i * i
    return time.perf_counter() - t0


class HostSpeed:
    def __init__(self):
        self.samples: list[tuple[float, float]] = []   # (time, warm loop seconds)
        self._previous = None

    def _sample(self, signum, frame) -> None:
        _loop()
        self.samples.append((time.perf_counter(), _loop()))

    def __enter__(self) -> "HostSpeed":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD, PERIOD)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def factor(self, start: float = float("-inf"), end: float = float("inf")) -> float:
        """REFERENCE_S over the median sample taken in [start, end] (all
        samples if none fell inside)."""
        inside = [d for t, d in self.samples if start <= t <= end]
        return REFERENCE_S / statistics.median(inside or [d for _, d in self.samples])
