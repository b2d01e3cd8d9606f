"""The discrete-event simulator core.

A minimal, deterministic event loop in integer nanoseconds:

* :meth:`Simulator.schedule` / :meth:`Simulator.schedule_at` enqueue a
  callback; same-time events fire in scheduling (FIFO) order.
* :meth:`Simulator.run` drains the queue, optionally up to a horizon.
* cancellation is lazy and O(1) (see :mod:`repro.sim.events`).

The pending set is one binary heap of ``(time, seq, event)`` entries
driven by the C-accelerated :mod:`heapq`; ``seq`` is unique, so the
total order ``(time, seq)`` -- same-time FIFO included -- never falls
through to comparing events.

The kernel is callback-based rather than coroutine-based: the network
models (links, ports, sources) are naturally event-driven state
machines, and callbacks keep the hot loop free of generator overhead --
one simulated second of a loaded 100 Mbps link is ~8k frame events, and
the validation experiments simulate many hyperperiods.

Observability hooks
-------------------
Two features exist purely for the telemetry layer and cost nothing when
unused:

* **weak events** (``schedule(..., weak=True)``): observer callbacks
  that never keep the simulation alive. ``run()`` returns as soon as no
  *strong* (normal) events remain, without firing leftover weak events,
  so periodic probes cannot extend the final clock or perturb results.
* **profiler** (:attr:`Simulator.profiler`): when set to an object with
  an ``account(label, wall_ns)`` method, ``run()`` times each dispatch
  with ``perf_counter_ns`` and reports it. ``None`` (the default) keeps
  the dispatch loop branch-free of timing calls.
"""

from __future__ import annotations

import heapq
from time import perf_counter_ns
from typing import Callable

from ..errors import SimulationError
from .events import Event, EventHandle
from .events import _fired  # type: ignore[attr-defined]

__all__ = ["Simulator"]


class Simulator:
    """Deterministic discrete-event loop with an integer-ns clock.

    Example
    -------
    >>> sim = Simulator()
    >>> seen = []
    >>> _ = sim.schedule(100, lambda: seen.append(sim.now))
    >>> _ = sim.schedule(50, lambda: seen.append(sim.now))
    >>> sim.run()
    >>> seen
    [50, 100]
    """

    def __init__(self) -> None:
        self._now = 0
        self._seq = 0
        #: pending ``(time, seq, event)`` entries, a :mod:`heapq` heap
        self._heap: list[tuple[int, int, Event]] = []
        self._running = False
        self._dispatched = 0
        self._strong = 0  # live (not cancelled, not fired) non-weak events
        self._max_heap_depth = 0
        self.profiler = None
        #: optional callback ``(exc)`` fired when an exception escapes
        #: the dispatch loop, before it propagates -- the flight
        #: recorder's crash-dump hook. ``None`` (default) keeps the
        #: loop's failure path identical to an uninstrumented kernel.
        self.on_crash = None

    @property
    def now(self) -> int:
        """Current simulation time in nanoseconds."""
        return self._now

    @property
    def pending_events(self) -> int:
        """Events still in the queue (including lazily cancelled ones)."""
        return len(self._heap)

    @property
    def live_pending_events(self) -> int:
        """Events still in the queue that will actually fire.

        Unlike :attr:`pending_events` this excludes lazily-cancelled
        entries, so telemetry probes report true queue depth. O(queue).
        """
        return sum(
            1 for _, _, event in self._heap if not event.cancelled
        )

    @property
    def dispatched_events(self) -> int:
        """Lifetime count of events that actually fired."""
        return self._dispatched

    @property
    def max_heap_depth(self) -> int:
        """High-water mark of the event queue (includes cancelled)."""
        return self._max_heap_depth

    # -- scheduling ---------------------------------------------------------

    def schedule(
        self,
        delay: int,
        action: Callable[[], None],
        label: str = "",
        *,
        weak: bool = False,
    ) -> EventHandle:
        """Schedule ``action`` to fire ``delay`` ns from now.

        ``delay`` must be non-negative; zero-delay events fire later in
        the *current* instant, after all previously scheduled events for
        this time (FIFO), never immediately re-entering the caller.

        ``weak=True`` marks an observer event that never keeps the
        simulation alive (see the module docstring).
        """
        if delay < 0:
            raise SimulationError(
                f"cannot schedule into the past (delay {delay} ns)"
            )
        return self.schedule_at(self._now + delay, action, label, weak=weak)

    def schedule_at(
        self,
        time: int,
        action: Callable[[], None],
        label: str = "",
        *,
        weak: bool = False,
    ) -> EventHandle:
        """Schedule ``action`` at absolute simulation time ``time`` (ns)."""
        if time < self._now:
            raise SimulationError(
                f"cannot schedule at {time} ns; the clock is already at "
                f"{self._now} ns"
            )
        if not callable(action):
            raise SimulationError(
                f"event action must be callable, got {type(action).__name__}"
            )
        event = Event(
            time=time, seq=self._seq, action=action, label=label, weak=weak
        )
        self._seq += 1
        heap = self._heap
        heapq.heappush(heap, (time, event.seq, event))
        if not weak:
            self._strong += 1
        if len(heap) > self._max_heap_depth:
            self._max_heap_depth = len(heap)
        return EventHandle(event, self)

    def _note_cancelled(self) -> None:
        """Strong-event cancellation hook (called by EventHandle.cancel)."""
        self._strong -= 1

    # -- execution -----------------------------------------------------------

    def run(self, until: int | None = None) -> int:
        """Dispatch events in time order.

        Parameters
        ----------
        until:
            Inclusive horizon in ns. Events scheduled after ``until``
            stay queued and the clock is advanced to exactly ``until``
            when the queue outlives the horizon. ``None`` drains the
            whole queue.

        Returns the number of events dispatched by this call. Re-entrant
        calls (``run`` from inside an event) are an error.

        Termination counts only *strong* events: once none remain, the
        loop exits without firing leftover weak observer events, so the
        final clock equals what an uninstrumented run would report.
        """
        if self._running:
            raise SimulationError("Simulator.run is not re-entrant")
        if until is not None and until < self._now:
            raise SimulationError(
                f"horizon {until} ns is in the past (now {self._now} ns)"
            )
        self._running = True
        profiler = self.profiler
        heap = self._heap
        heappop = heapq.heappop
        fired = 0
        try:
            while self._strong and heap:
                time = heap[0][0]
                if until is not None and time > until:
                    break
                event = heappop(heap)[2]
                if event.cancelled:
                    continue
                if not event.weak:
                    self._strong -= 1
                self._now = time
                action = event.action
                event.action = _fired
                if profiler is None:
                    action()
                else:
                    start = perf_counter_ns()
                    action()
                    profiler.account(event.label, perf_counter_ns() - start)
                fired += 1
                self._dispatched += 1
        except BaseException as exc:
            if self.on_crash is not None:
                self.on_crash(exc)
            raise
        finally:
            self._running = False
        if until is not None and self._now < until:
            self._now = until
            # The horizon path is where runs abandon in-flight work, so
            # lazily-cancelled entries would otherwise linger forever.
            self.compact()
        return fired

    # -- maintenance ---------------------------------------------------------

    def compact(self) -> int:
        """Drop lazily-cancelled events from the queue.

        Cancellation is O(1) by leaving the heap entry in place; a run
        stopped at a horizon can therefore accumulate dead entries
        indefinitely. Re-heapifying without them is safe because heap
        keys ``(time, seq)`` are unique, so the rebuilt heap preserves
        pop order exactly. Returns the number of entries removed.
        """
        if self._running:
            raise SimulationError("cannot compact while running")
        before = len(self._heap)
        live = [
            entry for entry in self._heap if not entry[2].cancelled
        ]
        removed = before - len(live)
        if removed:
            heapq.heapify(live)
            self._heap = live
            self._strong = sum(
                1 for _, _, event in live if not event.weak
            )
        return removed
