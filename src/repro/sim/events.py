"""Event records for the discrete-event kernel.

An :class:`Event` pairs a firing time with a zero-argument callback.
Determinism rule: events scheduled for the same instant fire in the
order they were scheduled (FIFO), enforced by a monotone sequence
number in the heap key. This makes every simulation run bit-for-bit
reproducible for a given seed, which the validation experiments rely
on.

:class:`EventHandle` is the caller-facing token for cancellation.
Cancellation is lazy (the heap entry stays but is skipped on pop),
which keeps cancel O(1) -- important because every frame transmission
schedules a completion event and pipelined transmitters re-plan often.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

__all__ = ["Event", "EventHandle"]


@dataclass(slots=True)
class Event:
    """One scheduled callback. Library-internal; users see handles.

    ``weak`` marks observer events (telemetry probes): the simulator
    stops once only weak events remain, so probes never extend a run
    nor change its final clock. Weak actions must not mutate model
    state or schedule strong events.
    """

    time: int
    seq: int
    action: Callable[[], None]
    label: str = ""
    cancelled: bool = False
    weak: bool = False


@dataclass(frozen=True, slots=True)
class EventHandle:
    """Opaque token returned by :meth:`Simulator.schedule`.

    Holds a reference to the underlying event so cancellation works even
    after the heap has been reorganized, plus the owning simulator so
    cancelling a strong event immediately releases its keep-alive count
    (the simulator must not idle-wait on an event that will never fire).
    """

    _event: Event = field(repr=False)
    _sim: object = field(default=None, repr=False)

    @property
    def time(self) -> int:
        """The scheduled firing time (ns)."""
        return self._event.time

    @property
    def label(self) -> str:
        """Diagnostic label given at scheduling time."""
        return self._event.label

    @property
    def cancelled(self) -> bool:
        return self._event.cancelled

    @property
    def pending(self) -> bool:
        """True until the event has fired or been cancelled."""
        return not self._event.cancelled and self._event.action is not _fired

    def cancel(self) -> bool:
        """Prevent the event from firing. Returns False if already fired."""
        if self._event.action is _fired:
            return False
        if not self._event.cancelled:
            self._event.cancelled = True
            if self._sim is not None and not self._event.weak:
                self._sim._note_cancelled()
        return True


def _fired() -> None:  # sentinel assigned after dispatch
    raise AssertionError("a fired event must never be re-dispatched")
