"""Elapsed times rescaled to a reference machine speed.

On a shared machine the speed of one core drifts in phases lasting seconds
to minutes: a fixed pure-Python loop took from 295 to 600 ms per 0.5 s
chunk on a shared 2-core machine, and identical repetitions of a workload
differed by up to 22%. Such phases are longer than a repetition, so no
median over repetitions removes them. A :class:`SpeedClock` therefore runs a
short fixed probe loop at each step boundary of the timed work and rescales
every segment between two probes by the probe taken at its start:
``seconds * REFERENCE_PROBE_S / probe_seconds``. A single probe is noisy,
so ``probe_seconds`` is the median of the probes within ``SMOOTHING`` marks
of it, a fraction of a phase. The probe's own time is left out. The probe does not touch archex, so a change to archex moves the
rescaled times in the same proportion as the raw ones.
"""

from __future__ import annotations

import time
from statistics import median

perf = time.perf_counter

REFERENCE_PROBE_S = 0.004  # probe time that defines the reference speed
PROBE_LOOPS = 30_000        # 2.5-5 ms of interpreter work on the machine above
SMOOTHING = 2               # marks on each side whose probes are pooled


def probe_loop() -> int:
    total = 0
    table = {}
    for i in range(PROBE_LOOPS):
        total += i * i % 7
        table[i & 255] = total
    return total


class SpeedClock:
    def __init__(self) -> None:
        self.starts: list[float] = []   # probe start times, increasing
        self.probes: list[float] = []   # probe durations

    def mark(self) -> None:
        """Probe the current speed; the segment that starts here is
        rescaled by it."""
        start = perf()
        probe_loop()
        self.starts.append(start)
        self.probes.append(perf() - start)

    def seconds(self, begin: float, end: float) -> float:
        """Rescaled length of ``[begin, end)`` without probe time. Time before
        the first probe is rescaled by the first probe."""
        if not self.starts:
            raise ValueError("no speed probe taken")
        total = 0.0
        nexts = self.starts[1:] + [float("inf")]
        for k, (start, probe, nxt) in enumerate(zip(self.starts, self.probes, nexts)):
            lo = begin if k == 0 else max(begin, start)
            hi = min(end, nxt)
            if hi <= lo:
                continue
            in_probe = max(0.0, min(hi, start + probe) - max(lo, start))
            pooled = median(self.probes[max(0, k - SMOOTHING):k + SMOOTHING + 1])
            total += (hi - lo - in_probe) * REFERENCE_PROBE_S / pooled
        return total

    def probe_seconds(self, begin: float, end: float) -> float:
        """Time spent in probes that started within ``[begin, end)``."""
        return sum(p for s, p in zip(self.starts, self.probes) if begin <= s < end)
