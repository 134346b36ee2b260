"""Host-speed calibration: a fixed piece of interpreter work, timed.

A shared host changes speed for minutes at a time (other tenants' load), and
a run of the benchmark cannot avoid measuring that along with the program.
``run.py`` therefore times this fixed work between its measured intervals,
on the same CPU and with nothing else of the benchmark running, and scales
each interval's times by ``REFERENCE_SECONDS / calibration``: the times it
reports are those of a host on which one calibration takes
``REFERENCE_SECONDS``.  The work depends on nothing in ``src/``, so a change
to the program moves the measured intervals and never the calibration.

The work mixes what the inference spends its time on: recursive search over
frozenset states with a memo dict, and a few-MB table of tuple keys probed
and combined with set algebra.

    python3 perfbench/calibrate.py      # prints five calibrations, in s
"""

from __future__ import annotations

import gc
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

from repro.telemetry import monotime  # noqa: E402

#: One calibration on the host the benchmark was defined on, in a quiet
#: period (Intel Xeon, 2 vCPUs, CPython 3).  Reported times are scaled to it.
REFERENCE_SECONDS = 1.0

#: Rounds in one calibration, each one table kernel and four search
#: kernels (about 1 s in all).
ROUNDS = 10


def search_kernel() -> int:
    """Count the 8-queens placements by memoised search over frozenset states."""
    memo: dict = {}

    def place(row, cols, rising, falling):
        key = (row, cols, rising, falling)
        if key in memo:
            return memo[key]
        if row == 8:
            return 1
        total = 0
        for col in range(8):
            if col in cols or row + col in rising or row - col in falling:
                continue
            total += place(row + 1, cols | {col}, rising | {row + col}, falling | {row - col})
        memo[key] = total
        return total

    return place(0, frozenset(), frozenset(), frozenset())


def table_kernel() -> int:
    """Fill a table of 40000 tuple keys, then probe it and combine the values."""
    table = {}
    for i in range(40000):
        table[(i * 7919 % 40009, ("n", i % 97), i % 13)] = frozenset((i % 11, i % 17, i % 23))
    hits = 0
    for i in range(0, 80000, 3):
        value = table.get((i * 7919 % 40009, ("n", i % 97), i % 13))
        if value is not None and 3 in value | {i % 5}:
            hits += 1
    return hits


def calibrate() -> float:
    """Seconds the fixed work takes now."""
    gc.collect()
    start = monotime()
    for _ in range(ROUNDS):
        table_kernel()
        for _ in range(4):
            search_kernel()
    return monotime() - start


if __name__ == "__main__":
    for _ in range(5):
        print(f"{calibrate():.4f}")
