"""Timing scaled to the machine's speed, measured alongside the work.

On a shared virtual machine the speed of the same Python code swings by up to
about 1.8x for tens of seconds at a time, for every process alike.  A run
therefore runs a short, fixed pure-Python calibration loop between timed steps,
at least every ``EVERY_S`` seconds, and scales each step's time by
``NOMINAL_S / (mean of the calibrations just before and just after it)``.  A
scaled time is what the step would take while the calibration loop takes
``NOMINAL_S``, the loop's time on an unloaded 2-vCPU VM under CPython 3.11.
The loop is benchmark code: no change to the library can speed it up.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from time import perf_counter

#: the calibration loop's time on an unloaded 2-vCPU VM, CPython 3.11
NOMINAL_S = 1.25e-3
#: calibrate at the first step boundary this long after the last calibration
EVERY_S = 0.02


def _calibration_loop() -> int:
    """Dict, integer, float and call work, as the library's inner loops do."""
    table: dict = {}
    acc = 0
    for i in range(6000):
        table[i & 255] = table.get(i & 255, 0.0) + (i ^ (i >> 3)) * 0.5
        acc += (i & 7).bit_count()
    return acc


class Clock:
    """Calibration samples of one pass, and the scaled time of intervals within it."""

    def __init__(self):
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.durations: list[float] = []

    def calibrate(self) -> None:
        t0 = perf_counter()
        _calibration_loop()
        t1 = perf_counter()
        self.starts.append(t0)
        self.ends.append(t1)
        self.durations.append(t1 - t0)

    def tick(self) -> None:
        """Calibrate if the last calibration is ``EVERY_S`` or more ago."""
        if not self.ends or perf_counter() - self.ends[-1] >= EVERY_S:
            self.calibrate()

    def scaled(self, start: float, end: float) -> float:
        """``end - start`` at the nominal speed; needs a calibration on each side."""
        before = bisect_right(self.ends, start) - 1
        after = bisect_left(self.starts, end)
        speed = (self.durations[before] + self.durations[after]) / 2
        return (end - start) * NOMINAL_S / speed

    def restart(self) -> None:
        """Drop all samples but the last, which stays the one before the next interval."""
        del self.starts[:-1], self.ends[:-1], self.durations[:-1]
