"""Host-speed calibration for end-to-end times.

The benchmark's small shared hosts slow down by 10-50% for stretches
of seconds to minutes, for both wall and CPU time, which no number of
passes inside one 20 s run can average away.  So every timed unit (a
simulation job, a cache miss, a parallel pass, a set-up probe) is
preceded by one run of a fixed pure-Python loop, and the unit's host
seconds are scaled by ``REFERENCE_S / loop seconds``.  The result is in
*reference seconds*: host seconds on a host that runs the loop in
``REFERENCE_S``.  A change to ``repro`` cannot change the loop, so it
moves reference seconds exactly as it moves host seconds.
"""

from __future__ import annotations

import time
from typing import Iterable, Tuple

#: Iterations of the calibration loop (about 7.5 ms on the reference
#: host, a 2-vCPU x86-64 VM running CPython 3.11).
LOOPS = 60000

#: The loop's median time on the reference host.
REFERENCE_S = 0.0075


def loop_s() -> float:
    """Host seconds one calibration loop takes right now."""
    start = time.perf_counter()
    total = 0
    table = {}
    for index in range(LOOPS):
        total += index * index % 7
        table[index & 1023] = total
    return time.perf_counter() - start


def reference_s(units: Iterable[Tuple[float, float]]) -> float:
    """Total reference seconds of ``(host seconds, loop seconds)`` units."""
    return sum(seconds * REFERENCE_S / loop for seconds, loop in units)
