"""Machine-speed calibration: timings in reference seconds.

The benchmark machine is shared, and its speed drifts over minutes: the same
round of ops has taken from 28 s to 50 s within ten minutes. So a run
calibrates after every op, with a fixed pure-Python loop that does not touch
the program, and reports its timings in reference seconds:

    reference seconds = measured seconds * REFERENCE_S / mean calibration

where REFERENCE_S is what the loop takes at the machine's usual speed. One
factor per run follows the slow drift without adding the loop's own
second-to-second jitter to each op. A change to the program cannot change the
loop, so it still shows in full. The cyclic garbage collector is off during
the loop, so the size of the program's heap does not change it either.
"""

from __future__ import annotations

import gc
import math
import statistics
import time

REFERENCE_S = 0.0080  # seconds _spin takes at this 2-core machine's usual speed
REPEATS = 3

_POINTS = tuple((i * 0.37, i * 0.11, 1.0 + i % 3) for i in range(64))


def _spin() -> float:
    acc = 0.0
    for k in range(800):
        for x, y, v in _POINTS:
            dx = x - k
            dy = y + k
            if dx * dx + dy * dy > 400.0:
                acc += math.atan2(dy, dx) * v
            else:
                acc += math.hypot(dx, dy)
    return acc


def calibrate() -> float:
    """Seconds the loop takes now: the median of REPEATS runs."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        times = []
        for _ in range(REPEATS):
            start = time.perf_counter()
            _spin()
            times.append(time.perf_counter() - start)
    finally:
        if enabled:
            gc.enable()
    return statistics.median(times)


class Speed:
    """Calibrations taken between the timed intervals of one run."""

    def __init__(self) -> None:
        self.samples = [calibrate()]

    def sample(self) -> None:
        self.samples.append(calibrate())

    def factor(self) -> float:
        """Multiply measured seconds by this to get reference seconds."""
        return REFERENCE_S / statistics.mean(self.samples)
