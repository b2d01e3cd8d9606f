"""Tests for the discrete-event kernel."""

from __future__ import annotations

import random

import pytest

from repro.errors import SimulationError
from repro.sim.kernel import Simulator


class TestScheduling:
    def test_time_ordering(self):
        sim = Simulator()
        seen = []
        sim.schedule(300, lambda: seen.append("c"))
        sim.schedule(100, lambda: seen.append("a"))
        sim.schedule(200, lambda: seen.append("b"))
        sim.run()
        assert seen == ["a", "b", "c"]
        assert sim.now == 300

    def test_fifo_at_same_instant(self):
        sim = Simulator()
        seen = []
        for i in range(5):
            sim.schedule(50, lambda i=i: seen.append(i))
        sim.run()
        assert seen == [0, 1, 2, 3, 4]

    def test_fifo_among_many_same_instant_events(self):
        sim = Simulator()
        seen = []
        for i in range(50):
            sim.schedule(7, lambda i=i: seen.append(i))
        sim.run()
        assert seen == list(range(50))

    def test_sparse_far_future_events_fire_in_order(self):
        sim = Simulator()
        seen = []
        for t in (10**9, 3, 10**6, 44, 10**12, 500):
            sim.schedule(t, lambda t=t: seen.append(t))
        sim.run()
        assert seen == sorted(seen)
        assert sim.now == 10**12

    def test_zero_delay_runs_after_current_event(self):
        sim = Simulator()
        seen = []

        def outer():
            sim.schedule(0, lambda: seen.append("inner"))
            seen.append("outer")

        sim.schedule(10, outer)
        sim.run()
        assert seen == ["outer", "inner"]
        assert sim.now == 10

    def test_negative_delay_rejected(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.schedule(-1, lambda: None)

    def test_schedule_at_past_rejected(self):
        sim = Simulator()
        sim.schedule(100, lambda: None)
        sim.run()
        with pytest.raises(SimulationError):
            sim.schedule_at(50, lambda: None)

    def test_non_callable_rejected(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.schedule(1, "not callable")  # type: ignore[arg-type]


class TestRun:
    def test_run_until_horizon(self):
        sim = Simulator()
        seen = []
        sim.schedule(10, lambda: seen.append(10))
        sim.schedule(20, lambda: seen.append(20))
        sim.schedule(30, lambda: seen.append(30))
        fired = sim.run(until=20)
        assert fired == 2
        assert seen == [10, 20]
        assert sim.now == 20
        sim.run()
        assert seen == [10, 20, 30]

    def test_run_advances_clock_to_horizon_when_idle(self):
        sim = Simulator()
        sim.run(until=500)
        assert sim.now == 500

    def test_run_past_horizon_rejected(self):
        sim = Simulator()
        sim.schedule(10, lambda: None)
        sim.run()
        with pytest.raises(SimulationError):
            sim.run(until=5)

    def test_reentrant_run_rejected(self):
        sim = Simulator()
        errors = []

        def recurse():
            try:
                sim.run()
            except SimulationError as exc:
                errors.append(exc)

        sim.schedule(1, recurse)
        sim.run()
        assert len(errors) == 1

    def test_events_scheduled_during_run_are_dispatched(self):
        sim = Simulator()
        seen = []

        def chain(n):
            seen.append(n)
            if n < 5:
                sim.schedule(10, lambda: chain(n + 1))

        sim.schedule(0, lambda: chain(0))
        sim.run()
        assert seen == [0, 1, 2, 3, 4, 5]
        assert sim.now == 50

    def test_dispatched_counter(self):
        sim = Simulator()
        for i in range(7):
            sim.schedule(i, lambda: None)
        sim.run()
        assert sim.dispatched_events == 7

    def test_repeated_horizon_runs_drain_each_round(self):
        sim = Simulator()
        seen = []
        for round_base in (0, 100_000):
            for i in range(300):
                sim.schedule_at(
                    round_base + (i * 37) % 991,
                    lambda i=i: seen.append(i),
                )
            sim.run(until=round_base + 2_000)
            assert sim.now == round_base + 2_000
        assert len(seen) == 600


class TestCancellation:
    def test_cancelled_event_does_not_fire(self):
        sim = Simulator()
        seen = []
        handle = sim.schedule(10, lambda: seen.append("x"))
        assert handle.pending
        assert handle.cancel()
        sim.run()
        assert seen == []
        assert handle.cancelled

    def test_cancel_after_fire_returns_false(self):
        sim = Simulator()
        handle = sim.schedule(10, lambda: None)
        sim.run()
        assert not handle.cancel()

    def test_compact_drops_cancelled_entries(self):
        sim = Simulator()
        keep = sim.schedule(10, lambda: None)
        for _ in range(20):
            sim.schedule(20, lambda: None).cancel()
        assert sim.pending_events == 21
        removed = sim.compact()
        assert removed == 20
        assert sim.pending_events == 1
        assert sim.live_pending_events == 1
        keep.cancel()

    def test_handle_metadata(self):
        sim = Simulator()
        handle = sim.schedule(10, lambda: None, label="hello")
        assert handle.time == 10
        assert handle.label == "hello"


# -- differential replay against a brute-force reference model -------------


class _ReferenceHandle:
    def __init__(self, entry: list) -> None:
        self._entry = entry

    def cancel(self) -> bool:
        if self._entry[4]:  # fired
            return False
        self._entry[3] = True
        return True


class _ReferenceKernel:
    """The kernel's dispatch contract, written as plainly as possible.

    Pending entries are ``[time, seq, action, cancelled, fired, weak]``
    in a flat list. Each step fires the minimum live ``(time, seq)``
    entry by linear search; the run stops once no live strong entry
    remains or the next one lies past the horizon, and then advances the
    clock to the horizon. ``compact()`` changes nothing observable.
    """

    def __init__(self) -> None:
        self.now = 0
        self.dispatched_events = 0
        self._seq = 0
        self._entries: list[list] = []

    def schedule(self, delay, action, weak=False):
        entry = [self.now + delay, self._seq, action, False, False, weak]
        self._seq += 1
        self._entries.append(entry)
        return _ReferenceHandle(entry)

    def compact(self) -> int:
        return 0

    def _live(self) -> list[list]:
        return [e for e in self._entries if not e[3] and not e[4]]

    def run(self, until=None) -> None:
        while any(not e[5] for e in self._live()):
            entry = min(self._live(), key=lambda e: (e[0], e[1]))
            if until is not None and entry[0] > until:
                break
            entry[4] = True
            self.now = entry[0]
            entry[2]()
            self.dispatched_events += 1
        if until is not None and self.now < until:
            self.now = until


def replay(kernel_type, program, horizon=None):
    """Run one randomized program; return (fired, now, dispatched).

    Programs mix delays with heavy same-instant collisions, weak
    observers, mid-run scheduling, cancellations, horizon runs and
    compaction.
    """
    rng = random.Random(program)
    sim = kernel_type()
    fired: list[tuple[int, int]] = []
    handles = []

    def make(tag):
        def action():
            fired.append((sim.now, tag))
            # Mid-run scheduling: events spawn more events.
            if rng.random() < 0.35 and len(fired) < 400:
                sim.schedule(rng.randrange(0, 50), make(tag + 1000))
            # Mid-run cancellation of a random live handle.
            if handles and rng.random() < 0.2:
                handles[rng.randrange(len(handles))].cancel()

        return action

    for tag in range(120):
        delay = rng.choice((0, 1, 1, 7, 7, 7, 64, 512, 4096))
        handles.append(
            sim.schedule(delay, make(tag), weak=rng.random() < 0.1)
        )
    if rng.random() < 0.5:
        sim.compact()
    sim.run(until=horizon)
    return fired, sim.now, sim.dispatched_events


@pytest.mark.parametrize("program", range(15))
def test_replays_reference_model(program):
    assert replay(Simulator, program) == replay(_ReferenceKernel, program)


@pytest.mark.parametrize("program", range(15, 25))
def test_replays_reference_model_with_horizon(program):
    horizon = 300 + 77 * program
    assert replay(Simulator, program, horizon) == replay(
        _ReferenceKernel, program, horizon
    )
