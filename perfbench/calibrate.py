"""Speed samples of one CPU: ``python calibrate.py CPU`` (runs until killed).

Pinned to CPU number ``CPU``, every :data:`PERIOD_S` seconds this times
one fixed unit of pure-Python work in thread CPU time and prints
``<monotonic midpoint> <CPU seconds>``.  Thread CPU time excludes time
spent waiting for the CPU, so the samples follow the speed of the CPU
itself, not how busy the benchmark keeps it; :class:`run.Speed` runs one
sampler per CPU and turns their samples into the factor every timing is
scaled by.  Each sampler uses about 2% of its CPU.
"""

from __future__ import annotations

import sys

sys.dont_write_bytecode = True

import os  # noqa: E402
import time  # noqa: E402

PERIOD_S = 0.1


def unit() -> list[int]:
    """About 2 ms of dict, integer and sort work on a two-vCPU VM."""
    table: dict[int, int] = {}
    for i in range(10_000):
        key = i % 1021
        table[key] = table.get(key, 0) + i * 7
    return sorted(table.values())


def main() -> int:
    os.sched_setaffinity(0, {int(sys.argv[1])})
    while True:
        started = time.monotonic()
        cpu = time.thread_time()
        unit()
        cpu = time.thread_time() - cpu
        print(f"{(started + time.monotonic()) / 2:.6f} {cpu:.9f}", flush=True)
        time.sleep(max(0.0, PERIOD_S - (time.monotonic() - started)))


if __name__ == "__main__":
    sys.exit(main())
