"""Direct tests for Event/EventHandle semantics."""

from __future__ import annotations

import pytest

from repro.sim.events import EventHandle
from repro.sim.kernel import Simulator


class TestEventHandle:
    def test_pending_lifecycle(self):
        sim = Simulator()
        handle = sim.schedule(10, lambda: None, label="x")
        assert handle.pending
        assert not handle.cancelled
        sim.run()
        assert not handle.pending
        assert not handle.cancelled

    def test_cancel_before_fire(self):
        sim = Simulator()
        handle = sim.schedule(10, lambda: None)
        assert handle.cancel()
        assert handle.cancelled
        assert not handle.pending
        sim.run()
        assert sim.dispatched_events == 0

    def test_cancel_is_idempotent(self):
        sim = Simulator()
        handle = sim.schedule(10, lambda: None)
        assert handle.cancel()
        assert handle.cancel()  # still reports success pre-fire

    def test_cancel_after_fire_fails(self):
        sim = Simulator()
        handle = sim.schedule(10, lambda: None)
        sim.run()
        assert not handle.cancel()

    def test_fired_event_never_redispatched(self):
        """The sentinel guards against double dispatch even under heap
        corruption scenarios (defence in depth)."""
        from repro.sim.events import _fired

        with pytest.raises(AssertionError):
            _fired()

    def test_cancel_from_within_another_event(self):
        """An event may cancel a later event at the same instant."""
        sim = Simulator()
        fired = []
        second = None

        def first():
            assert second is not None
            assert second.cancel()
            fired.append("first")

        sim.schedule(5, first)
        second = sim.schedule(5, lambda: fired.append("second"))
        sim.run()
        assert fired == ["first"]

    def test_self_rescheduling_event(self):
        sim = Simulator()
        count = 0

        def tick():
            nonlocal count
            count += 1
            if count < 4:
                sim.schedule(10, tick)

        sim.schedule(0, tick)
        sim.run()
        assert count == 4
        assert sim.now == 30
