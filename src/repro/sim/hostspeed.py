"""Host-speed calibration for throughput snapshots.

Absolute µops/s depend on the machine (and, on shared hosts, on the moment).
:func:`calibration_seconds` times a fixed pure-Python loop whose work
resembles the simulator's hot loops — dict and list traffic over a few-KiB
working set, a deque queue, slot attribute updates, small function calls,
integer arithmetic — so a throughput multiplied by it (*µops per
calibration loop*) compares across hosts.  Time the loop right before and
after each run it normalises, in the same process, so both see the same
host state, and take the median over runs: :func:`normalised_throughput`.
"""

from __future__ import annotations

import statistics
import time
from collections import deque

#: Iterations of the calibration loop: ~15–30 ms of pure Python on
#: current x86 hosts, comparable to one timed reference-engine run.
CALIBRATION_ITERATIONS = 40_000


class _Slot:
    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0


def _step(index: int, key: int) -> int:
    return (index ^ key) & 7


def calibration_loop(iterations: int = CALIBRATION_ITERATIONS) -> int:
    """The fixed workload; returns a checksum so no work can be elided."""
    table: dict[int, int] = {}
    ring = [0] * 4096
    window: deque[int] = deque()
    slot = _Slot()
    total = 0
    for index in range(iterations):
        key = (index * 2654435761) & 4095
        table[key] = table.get(key, 0) + 1
        ring[key] = total & 1023
        slot.value += ring[(index * 7) & 4095] & 3
        window.append(index)
        if len(window) > 32:
            window.popleft()
        total += _step(index, key)
    return total + slot.value + len(table)


def calibration_seconds() -> float:
    """Wall time of one :func:`calibration_loop` run."""
    start = time.perf_counter()
    calibration_loop()
    return time.perf_counter() - start


def normalised_throughput(uops: int, runs: list[tuple[float, float, float]]) -> float:
    """Median µops per calibration loop over ``(cal_before, run, cal_after)``.

    Each run is paired with the mean of the calibration loops around it, so
    a host whose speed changes between runs still yields comparable pairs;
    the median discards the pairs a speed change split.
    """
    return statistics.median(
        uops * (before + after) / 2 / seconds for before, seconds, after in runs
    )
