"""EXP-P7 (kernel side): event-kernel dispatch throughput.

Times the classic hold-model workload (a constant pending population:
every fired event schedules one successor at a pseudorandom offset)
through the kernel's binary-heap pending set. The best of three runs is
recorded as this bench's throughput (events/s) and checked against an
absolute dispatch-throughput regression floor.
"""

from __future__ import annotations

import gc
import time

from repro.analysis.report import format_table
from repro.sim.kernel import Simulator

#: The hold model must clear this (a shared dev box measures ~200k ev/s
#: with the trace recording enabled; the floor leaves generous headroom
#: for slower CI machines).
_DISPATCH_FLOOR_EPS = 60_000.0

_POPULATION = 2_000
_EVENTS = 60_000


def _hold_model(population: int, events: int) -> float:
    """Run the hold model; return the elapsed seconds."""
    sim = Simulator()
    trace: list[int] = []
    remaining = events
    # Deterministic pseudorandom offsets without a live RNG in the
    # timed loop: a fixed LCG advanced inline.
    state = 0x2545F491

    def fire():
        nonlocal remaining, state
        trace.append(sim.now)
        if remaining > 0:
            remaining -= 1
            state = (state * 1103515245 + 12345) & 0x7FFFFFFF
            sim.schedule(state % 10_000, fire)

    for _ in range(population):
        remaining -= 1
        state = (state * 1103515245 + 12345) & 0x7FFFFFFF
        sim.schedule(state % 10_000, fire)
    gc.disable()
    try:
        start = time.perf_counter()
        sim.run()
        elapsed = time.perf_counter() - start
    finally:
        gc.enable()
    assert sim.dispatched_events == events
    assert trace == sorted(trace)
    return elapsed


def test_bench_kernel_dispatch_throughput(capsys, bench_record):
    elapsed = min(_hold_model(_POPULATION, _EVENTS) for _ in range(3))
    rate = _EVENTS / elapsed
    bench_record(throughput=rate, events=_EVENTS, population=_POPULATION)
    with capsys.disabled():
        print()
        print(format_table(
            ["events", "pending pop.", "elapsed ms", "events/s"],
            [[
                _EVENTS,
                _POPULATION,
                f"{elapsed * 1000:.1f}",
                f"{rate:,.0f}",
            ]],
            title="event-kernel dispatch -- hold model (best of 3)",
        ))
    assert rate >= _DISPATCH_FLOOR_EPS, (
        f"kernel dispatch regressed: {rate:,.0f} ev/s "
        f"< {_DISPATCH_FLOOR_EPS:,.0f}"
    )
