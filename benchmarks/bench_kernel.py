"""EXP-P7 (kernel side): event-kernel dispatch throughput.

Times the classic hold-model workload (a constant pending population:
every fired event schedules one successor at a pseudorandom offset)
through the kernel's binary-heap pending set. The best of three runs,
in reference events/s (events over reference seconds,
``timing.timed``), is checked against a dispatch-throughput floor.
"""

from __future__ import annotations

from repro.analysis.report import format_table
from repro.sim.kernel import Simulator

from timing import timed

#: Floor in reference events/s: 0.2x the 308 k median rate (best of 3,
#: 10 runs) measured on the 2-CPU reference host, the headroom the
#: earlier host-time floor (60 k against ~300 k) had.
_DISPATCH_FLOOR_EPS = 61_500.0

_POPULATION = 2_000
_EVENTS = 60_000


def _hold_model(population: int, events: int) -> float:
    """Run the hold model; return the reference seconds of the run."""
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
    seconds, _ = timed(sim.run)
    assert sim.dispatched_events == events
    assert trace == sorted(trace)
    return seconds


def test_bench_kernel_dispatch_throughput(capsys):
    seconds = min(_hold_model(_POPULATION, _EVENTS) for _ in range(3))
    rate = _EVENTS / seconds
    with capsys.disabled():
        print()
        print(format_table(
            ["events", "pending pop.", "reference ms", "reference ev/s"],
            [[_EVENTS, _POPULATION, f"{seconds * 1000:.1f}", f"{rate:,.0f}"]],
            title="event-kernel dispatch -- hold model (best of 3)",
        ))
    assert rate >= _DISPATCH_FLOOR_EPS, (
        f"kernel dispatch regressed: {rate:,.0f} reference ev/s "
        f"< {_DISPATCH_FLOOR_EPS:,.0f}"
    )
