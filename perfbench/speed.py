"""Machine-speed calibration for the benchmark's timings.

On a shared host the CPU time of the same pure-Python work swings by 30-50%
within seconds and drifts as much over minutes, as other tenants load the
cores, caches and memory bus that this process shares.  So the timed phase
runs a fixed calibration kernel between ops (never inside one), and each op
time is rescaled by the kernel's speed at the points just before and after it:

    rescaled = cpu_seconds * REFERENCE_KERNEL_S / kernel_seconds_around_the_op

The kernel is benchmark code, the same for every commit of the library, so
a change to the library moves the rescaled times exactly as it moves the raw
ones; only the host's speed drops out.  Typical times are compared with
typical times: a calibration point is the median of a few kernel runs, an op
is rescaled by the median of the points around it, and the benchmark takes
the median of an op's rescaled timings (the least timing over the median
kernel would pick up the kernel's own noise).  The kernel mixes the work the
library does (small ints, tuples, dict and frozenset traffic, recursion,
list allocation) so that contention slows it about as much as the ops.
REFERENCE_KERNEL_S is a fixed constant: rescaled times read as CPU times on
a machine where one kernel run takes that long (about an unloaded 2-vCPU
x86_64 host running Python 3.11).
"""

from __future__ import annotations

import bisect
import statistics
import time

CLOCK = time.process_time
REFERENCE_KERNEL_S = 0.003
KERNEL_REPS = 3          # kernel runs per calibration point; their median is kept
CALIBRATE_EVERY_S = 0.1  # CPU time between calibration points
NEIGHBOURS = 4           # calibration points used on each side of an op


def kernel() -> int:
    total, seen = 0, {}
    for i in range(4000):
        key = (i % 97, i % 13)
        seen[key] = seen.get(key, 0) + 1
        total += len(frozenset((i, i + 1, key))) + i * i % 7

    def walk(k: int, acc: list) -> int:
        if k == 0:
            return len(acc)
        return walk(k - 1, acc + [k] if k % 3 else acc[:5])

    total += sum(walk(120, []) for _ in range(24))
    rows = [list(range(40)) for _ in range(800)]
    return total + sum(map(len, rows)) + len(seen)


def kernel_seconds() -> float:
    """Median CPU time of KERNEL_REPS back-to-back kernel runs."""
    times = []
    for _ in range(KERNEL_REPS):
        start = CLOCK()
        kernel()
        times.append(CLOCK() - start)
    return statistics.median(times)


class SpeedLog:
    """Calibration points, each taken before the op at `position`."""

    def __init__(self) -> None:
        self.positions: list[int] = []
        self.seconds: list[float] = []

    def calibrate(self, position: int) -> None:
        self.positions.append(position)
        self.seconds.append(kernel_seconds())

    def scale(self, position: int) -> float:
        """Factor for the op at `position`: reference over the median of the
        NEIGHBOURS points before it and the NEIGHBOURS points after it."""
        after = bisect.bisect_right(self.positions, position)
        around = self.seconds[max(after - NEIGHBOURS, 0):after + NEIGHBOURS]
        return REFERENCE_KERNEL_S / statistics.median(around)

    def summary(self) -> dict:
        if not self.seconds:
            return {"points": 0}
        return {"points": len(self.seconds),
                "kernel_ms_median": 1000 * statistics.median(self.seconds),
                "kernel_ms_min": 1000 * min(self.seconds),
                "kernel_ms_max": 1000 * max(self.seconds),
                "reference_kernel_ms": 1000 * REFERENCE_KERNEL_S}
