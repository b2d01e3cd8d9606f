"""Measure the host's speed while a pass runs, to report reference seconds.

The benchmark shares its machine with other work, and the speed of one
CPU drifts by tens of percent within seconds. While a timed block runs,
:class:`Speedometer` interrupts it every :data:`INTERVAL_S` with
``SIGALRM`` and times a fixed interpreter-bound loop; it also times the
loop right before and right after the block. The block's host seconds,
minus the time spent sampling, are then scaled by the mean of
``REFERENCE_S / loop seconds`` over the samples. A slower host
stretches the block and the loop alike, so the scaled figure stays put
while a faster program still lowers it. The loop never calls the
program, so a change to the program cannot change it.
"""

from __future__ import annotations

import gc
import heapq
import signal
import statistics
from time import perf_counter

#: The loop's time on the 2-CPU machine the bounds were set on; a
#: timing on a host running at that speed is unchanged by scaling.
REFERENCE_S = 0.0005
INTERVAL_S = 0.05

# Seconds spent sampling so far. Process-wide because the alarm signal
# is: every timer in the benchmark reads program_time() to leave it out.
_sampling_s = 0.0


class _Item:
    __slots__ = ("key", "value")

    def __init__(self, key: int, value: int) -> None:
        self.key = key
        self.value = value


def _loop() -> int:
    # Heap pushes and pops, dict updates and small objects: the
    # operations the simulator and the admission code spend time on.
    heap: list[tuple[int, int, _Item]] = []
    table: dict[int, int] = {}
    acc = 0
    for i in range(500):
        item = _Item(i * 7919 % 10_007, i)
        heapq.heappush(heap, (item.key, i, item))
        table[i & 127] = table.get(i & 127, 0) + item.value
        if len(heap) > 64:
            acc += heapq.heappop(heap)[2].key
    return acc + len(table)


def loop_seconds() -> float:
    """Best of two timed runs of the loop.

    The cyclic garbage collector is off while the loop runs: a
    collection would walk the objects the program left behind, and the
    loop must not get slower when the program keeps more of them.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        best = float("inf")
        for _ in range(2):
            start = perf_counter()
            _loop()
            best = min(best, perf_counter() - start)
        return best
    finally:
        if enabled:
            gc.enable()


def program_time() -> float:
    """``perf_counter()`` minus the seconds the speedometer spent sampling."""
    return perf_counter() - _sampling_s


class Speedometer:
    """Times a block in host seconds and samples the host's speed.

    After the block, ``seconds`` holds its host seconds without the
    sampling and ``scale`` the reference seconds per host second.
    """

    def __enter__(self) -> "Speedometer":
        self.samples = [loop_seconds()]
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        self._start = program_time()
        return self

    def _on_alarm(self, signum, frame) -> None:
        global _sampling_s
        start = perf_counter()
        self.samples.append(loop_seconds())
        _sampling_s += perf_counter() - start

    def __exit__(self, *exc) -> bool:
        self.seconds = program_time() - self._start
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        self.samples.append(loop_seconds())
        self.scale = statistics.fmean(REFERENCE_S / s for s in self.samples)
        return False
