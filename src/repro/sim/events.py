"""Event records used by the discrete-event engine.

Events are intentionally tiny: a time, a priority, an insertion sequence
number (for deterministic FIFO tie-breaking), a callback, and an optional
payload.  The engine orders events by ``(time, priority, sequence)``.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any, Callable, Optional

__all__ = ["EventPriority", "Event"]


class EventPriority(enum.IntEnum):
    """Relative ordering of events that share the same timestamp.

    Lower values run first.  The tiers are chosen so that, within a single
    simulated instant, state changes (application starts, flush triggers)
    happen before the model step that consumes them, and bookkeeping
    (trace sampling, watchdogs) runs last.
    """

    #: Control-plane changes: application phase starts, reconfigurations.
    CONTROL = 0
    #: Regular model activity: simulation steps, request issue/completion.
    NORMAL = 10
    #: Observation-only events: trace sampling, progress reporting.
    OBSERVE = 20
    #: Last-resort events: watchdogs, horizon checks.
    LAST = 30


@dataclass(order=False)
class Event:
    """A scheduled callback.

    Attributes
    ----------
    time:
        Simulated time (seconds) at which the callback fires.
    priority:
        Tie-break tier for events at the same time.
    seq:
        Insertion sequence number assigned by the engine; guarantees FIFO
        order among events with equal time and priority and makes the heap
        ordering total (callbacks are never compared).
    callback:
        Callable invoked as ``callback(simulator)`` when the event fires.
    label:
        Optional human-readable tag used in traces and error messages.
    payload:
        Optional arbitrary data attached to the event.
    cancelled:
        Cancelled events stay in the heap but are skipped when popped (the
        engine compacts the heap when cancelled entries dominate it).
    """

    time: float
    priority: EventPriority
    seq: int
    callback: Callable[[Any], None]
    label: str = ""
    payload: Optional[Any] = None
    cancelled: bool = field(default=False, compare=False)
    #: Set by the engine at scheduling time so it can keep an O(1) count of
    #: cancelled-but-still-heaped events (the compaction trigger).
    on_cancel: Optional[Callable[["Event"], None]] = field(
        default=None, compare=False, repr=False
    )

    def sort_key(self) -> tuple[float, int, int]:
        """Return the total ordering key used by the event heap."""
        return (self.time, int(self.priority), self.seq)

    def cancel(self) -> None:
        """Mark the event as cancelled; the engine will skip it."""
        if self.cancelled:
            return
        self.cancelled = True
        if self.on_cancel is not None:
            self.on_cancel(self)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        tag = f" {self.label!r}" if self.label else ""
        state = " (cancelled)" if self.cancelled else ""
        return f"<Event t={self.time:.6f} p={int(self.priority)} #{self.seq}{tag}{state}>"
