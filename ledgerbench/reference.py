"""Host normalisation: a fixed reference loop timed on the thread's CPU clock.

The benchmark runs on small shared hosts whose speed drifts by tens of
percent over seconds.  The driver thread runs :func:`reference_loop` next to
every timing and times it with :func:`time.thread_time_ns`, so neither GIL
waits nor descheduling count.  A timing ``raw`` taken next to readings
``r_local`` is reported as ``raw * R0 / r_local``: seconds "at reference
speed", where ``R0`` is the loop's typical reading on the host the constant
was taken on.

The loop is pure integer work, so its reading does not depend on what the
engine left in the caches.  A walk over a large ring of dicts was tried as
well: it followed the SAA workloads' slow phases more closely, but its
reading depended on cache placement that differs between processes, which
moved ``batch_rebalance``'s normalised figures by up to 30% between runs.
"""

from __future__ import annotations

import gc
import statistics
import time
from typing import List

#: iterations per reading (about 0.5 ms on a 2-CPU x86-64 VM)
REF_ITERS = 5000
#: typical reading, in seconds, on the host the benchmark was written on
#: (2-CPU x86-64 VM, CPython 3.11); fixes the unit of every normalised timing
R0 = 0.00045
#: readings taken on each side of a one-off timing (set-up, recovery)
BRACKET = 3


def reference_loop(n: int = REF_ITERS) -> int:
    """Fixed integer work that allocates no GC-tracked object, so a reading
    never triggers a collection over the engine's heap."""
    acc = 0
    for i in range(n):
        acc = (acc * 31 + i) & 0xFFFFF
    return acc


class Reference:
    """Takes reference readings and turns raw timings into normalised ones."""

    def __init__(self) -> None:
        self.readings: List[float] = []

    @staticmethod
    def allocates() -> bool:
        """Self-test: True when the loop moves the generation-0 count."""
        before = gc.get_count()[0]
        reference_loop()
        return gc.get_count()[0] != before

    def read(self) -> float:
        """Take (and keep) one reading, in thread-CPU seconds."""
        start = time.thread_time_ns()
        reference_loop()
        reading = (time.thread_time_ns() - start) / 1e9
        self.readings.append(reading)
        return reading

    def factor(self, index: int) -> float:
        """Scale factor for a timing taken right after reading ``index``:
        R0 over the median of the readings around it, which damps the
        noise of any single reading."""
        return R0 / statistics.median(self.readings[max(0, index - 2):index + 4])

    def timed(self, fn, *args):
        """Run ``fn(*args)`` between readings; return (result, normalised
        wall seconds)."""
        for _ in range(BRACKET):
            self.read()
        index = len(self.readings) - 1
        start = time.perf_counter()
        result = fn(*args)
        elapsed = time.perf_counter() - start
        for _ in range(BRACKET):
            self.read()
        return result, elapsed * self.factor(index)

    def summary(self) -> str:
        """Median and quartiles of every reading, in microseconds."""
        if len(self.readings) < 2:
            return "reference: %d readings" % len(self.readings)
        q1, med, q3 = statistics.quantiles(self.readings, n=4)
        return ("reference: n=%d median=%.1fus q1=%.1fus q3=%.1fus (R0=%.1fus)"
                % (len(self.readings), med * 1e6, q1 * 1e6, q3 * 1e6, R0 * 1e6))
