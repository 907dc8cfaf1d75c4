"""The discrete-event simulation engine.

The engine is a classic event-heap kernel:

* :meth:`Simulator.schedule` inserts a callback at an absolute simulated time,
* :meth:`Simulator.schedule_after` inserts relative to the current time,
* :meth:`Simulator.run` pops events in ``(time, priority, insertion)`` order
  and invokes their callbacks until the queue is empty, a horizon is reached,
  or a stop condition is met.

Determinism
-----------
Two runs with the same configuration and seeds execute exactly the same event
sequence: ties are broken by an insertion counter, and callbacks are never
compared or hashed for ordering.

The I/O-path model (:mod:`repro.model`) uses the engine for application phase
starts, operation issues and trace sampling; unit tests exercise it as a
general-purpose DES kernel.
"""

from __future__ import annotations

import heapq
import weakref
from typing import Any, Callable, Iterable, Optional

from repro.errors import SchedulingError, SimulationError
from repro.sim.events import Event, EventPriority

__all__ = ["Simulator"]

#: Heaps smaller than this are never compacted (a rebuild would cost more
#: than the dead entries it removes).
_COMPACTION_MIN_SIZE = 64


class Simulator:
    """Discrete-event simulator with a monotonic clock.

    Parameters
    ----------
    start_time:
        Initial value of the simulation clock (seconds).  Negative values are
        allowed; the paper's Δ-graphs place the second application at
        ``t = dt`` which may be negative relative to the first.
    horizon:
        Optional hard limit on simulated time.  Scheduling an event beyond the
        horizon raises :class:`~repro.errors.SchedulingError`; reaching it
        during :meth:`run` raises :class:`~repro.errors.SimulationError`
        unless ``run`` was called with ``until`` at or before the horizon.
    """

    def __init__(self, start_time: float = 0.0, horizon: Optional[float] = None) -> None:
        self._now = float(start_time)
        self._start_time = float(start_time)
        self._horizon = None if horizon is None else float(horizon)
        self._heap: list[tuple[tuple[float, int, int], Event]] = []
        self._seq = 0
        self._n_cancelled = 0
        self._events_processed = 0
        # Monotonic lifetime totals, unlike _n_cancelled which is live
        # heap-bookkeeping and gets decremented as corpses are dropped.
        # Plain int increments so the hot path carries no telemetry calls;
        # stats() publishes them into the telemetry registry post-run.
        self._stat_scheduled = 0
        self._stat_cancelled = 0
        self._stat_compactions = 0
        self._running = False
        self._stopped = False
        self._stop_reason: Optional[str] = None
        # Queued events report their cancellation through a hook that holds
        # the engine weakly: a bound method would make every queued event a
        # reference cycle through the engine, and a finished run would then
        # stay alive until the cyclic garbage collector happens to run.
        self._on_cancel = _cancel_hook(weakref.ref(self))

    # ------------------------------------------------------------------ #
    # Clock and introspection
    # ------------------------------------------------------------------ #

    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    @property
    def start_time(self) -> float:
        """Simulated time at which the simulator was created."""
        return self._start_time

    @property
    def horizon(self) -> Optional[float]:
        """Hard limit on simulated time, or ``None`` if unbounded."""
        return self._horizon

    @property
    def events_processed(self) -> int:
        """Number of callbacks executed so far."""
        return self._events_processed

    @property
    def pending_events(self) -> int:
        """Number of scheduled, not-yet-fired, not-cancelled events."""
        return len(self._heap) - self._n_cancelled

    @property
    def heap_size(self) -> int:
        """Number of heap entries, including cancelled-but-not-popped ones."""
        return len(self._heap)

    @property
    def is_running(self) -> bool:
        """True while :meth:`run` is executing callbacks."""
        return self._running

    @property
    def stop_reason(self) -> Optional[str]:
        """Reason given to :meth:`stop`, if the run was stopped early."""
        return self._stop_reason

    def peek_next(self) -> Optional[Event]:
        """Return the next live event without running it, or ``None`` if
        the queue is empty."""
        self._settle_head()
        if not self._heap:
            return None
        return self._heap[0][1]

    # ------------------------------------------------------------------ #
    # Scheduling
    # ------------------------------------------------------------------ #

    def schedule(
        self,
        time: float,
        callback: Callable[["Simulator"], None],
        *,
        priority: EventPriority = EventPriority.NORMAL,
        label: str = "",
        payload: Any = None,
    ) -> Event:
        """Schedule ``callback`` at absolute simulated ``time``.

        Returns the :class:`~repro.sim.events.Event`, which can be cancelled.

        Raises
        ------
        SchedulingError
            If ``time`` is in the past or beyond the horizon.
        """
        time = float(time)
        if time < self._now:
            raise SchedulingError(
                f"cannot schedule event {label!r} at t={time:.6f}: "
                f"clock is already at t={self._now:.6f}"
            )
        if self._horizon is not None and time > self._horizon:
            raise SchedulingError(
                f"cannot schedule event {label!r} at t={time:.6f}: "
                f"beyond horizon t={self._horizon:.6f}"
            )
        event = Event(
            time=time,
            priority=priority,
            seq=self._seq,
            callback=callback,
            label=label,
            payload=payload,
            on_cancel=self._on_cancel,
        )
        self._seq += 1
        self._stat_scheduled += 1
        heapq.heappush(self._heap, (event.sort_key(), event))
        return event

    def schedule_after(
        self,
        delay: float,
        callback: Callable[["Simulator"], None],
        *,
        priority: EventPriority = EventPriority.NORMAL,
        label: str = "",
        payload: Any = None,
    ) -> Event:
        """Schedule ``callback`` after ``delay`` seconds of simulated time."""
        if delay < 0:
            raise SchedulingError(f"negative delay {delay!r} for event {label!r}")
        return self.schedule(
            self._now + float(delay),
            callback,
            priority=priority,
            label=label,
            payload=payload,
        )

    def schedule_periodic(
        self,
        period: float,
        callback: Callable[["Simulator"], None],
        *,
        start: Optional[float] = None,
        priority: EventPriority = EventPriority.NORMAL,
        label: str = "",
        stop_when: Optional[Callable[["Simulator"], bool]] = None,
    ) -> Event:
        """Schedule ``callback`` every ``period`` seconds.

        The callback fires first at ``start`` (default: now + period) and is
        rescheduled after each invocation until ``stop_when(sim)`` returns
        True (checked before each firing) or the simulation ends.

        Returns the first scheduled event.
        """
        if period <= 0:
            raise SchedulingError(f"periodic event {label!r} needs a positive period")
        fire = _Periodic(period, callback, priority, label, stop_when)
        first = self._now + period if start is None else float(start)
        return self.schedule(first, fire, priority=priority, label=label)

    # ------------------------------------------------------------------ #
    # Execution
    # ------------------------------------------------------------------ #

    def stop(self, reason: str = "stopped") -> None:
        """Request that :meth:`run` return after the current callback."""
        self._stopped = True
        self._stop_reason = reason

    def step(self) -> bool:
        """Execute the single next event.

        Returns ``True`` if an event was executed, ``False`` if the queue was
        empty.
        """
        self._settle_head()
        if not self._heap:
            return False
        _, event = heapq.heappop(self._heap)
        # The event is out of the heap; a late cancel() must not count
        # toward the cancelled-but-heaped total.
        event.on_cancel = None
        if event.time < self._now:  # pragma: no cover - heap invariant guard
            raise SimulationError(
                f"event {event!r} would move the clock backwards from {self._now}"
            )
        self._now = event.time
        self._events_processed += 1
        event.callback(self)
        return True

    def run(
        self,
        until: Optional[float] = None,
        *,
        max_events: Optional[int] = None,
        until_priority: Optional[EventPriority] = None,
    ) -> float:
        """Run until the queue is empty, ``until`` is reached, or stopped.

        Parameters
        ----------
        until:
            If given, stop once the next event would be strictly after
            ``until`` and advance the clock to ``until``.
        until_priority:
            With ``until``: events *at* ``until`` run only when their priority
            is below this tier.  ``run(t, until_priority=NORMAL)`` executes
            exactly what precedes a NORMAL event at ``t`` — where the model
            drivers place a fixed-cadence step — and leaves the rest for
            later.
        max_events:
            Safety valve; raise :class:`~repro.errors.SimulationError` if more
            than this many events execute (guards against run-away periodic
            events in misconfigured models).

        Returns
        -------
        float
            The simulation clock at the end of the run.
        """
        if self._running:
            raise SimulationError("Simulator.run is not reentrant")
        if until is not None and until < self._now:
            raise SimulationError(
                f"cannot run until t={until:.6f}: clock already at t={self._now:.6f}"
            )
        self._running = True
        self._stopped = False
        self._stop_reason = None
        executed = 0
        try:
            while True:
                if self._stopped:
                    break
                self._settle_head()
                if not self._heap:
                    break
                head = self._heap[0][1]
                next_time = head.time
                if until is not None and (
                    next_time > until
                    or (
                        next_time == until
                        and until_priority is not None
                        and head.priority >= until_priority
                    )
                ):
                    self._now = float(until)
                    break
                if self._horizon is not None and next_time > self._horizon:
                    raise SimulationError(
                        f"simulation reached horizon t={self._horizon:.6f} with "
                        f"{self.pending_events} pending events"
                    )
                self.step()
                executed += 1
                if max_events is not None and executed > max_events:
                    raise SimulationError(
                        f"executed more than max_events={max_events} events; "
                        "likely a run-away periodic event"
                    )
            else:  # pragma: no cover - unreachable
                pass
            if until is not None and not self._stopped and self._now < until:
                # Queue drained before reaching `until`.
                self._now = float(until)
        finally:
            self._running = False
        return self._now

    # ------------------------------------------------------------------ #
    # Internals
    # ------------------------------------------------------------------ #

    def _note_cancelled(self, _event: Event) -> None:
        """Account for one cancellation; compact when dead entries dominate.

        Cancelled events stay in the heap until popped, so a workload that
        keeps cancelling events would otherwise grow the heap with corpses.
        Rebuilding once more than half the entries are dead keeps the
        amortized cost per cancellation O(log n).
        """
        self._n_cancelled += 1
        self._stat_cancelled += 1
        if (
            len(self._heap) >= _COMPACTION_MIN_SIZE
            and self._n_cancelled * 2 > len(self._heap)
        ):
            self.drain_cancelled()

    def _settle_head(self) -> None:
        """Bring a live event to the heap head, dropping cancelled entries."""
        heap = self._heap
        while heap and heap[0][1].cancelled:
            heapq.heappop(heap)
            self._n_cancelled -= 1

    def drain_cancelled(self) -> int:
        """Remove all cancelled entries from the heap; return how many
        entries were removed."""
        self._stat_compactions += 1
        before = len(self._heap)
        live = [(key, ev) for key, ev in self._heap if not ev.cancelled]
        heapq.heapify(live)
        self._heap = live
        self._n_cancelled = 0
        return before - len(self._heap)

    def stats(self) -> dict:
        """Lifetime event-kernel totals for the telemetry registry.

        Monotonic over the simulator's life (never decremented by heap
        cleanup), keyed with the ``engine.*`` telemetry naming convention so
        callers can feed the dict straight into ``Telemetry.count``.
        """
        return {
            "engine.events.scheduled": self._stat_scheduled,
            "engine.events.processed": self._events_processed,
            "engine.events.cancelled": self._stat_cancelled,
            "engine.heap.compactions": self._stat_compactions,
        }

    def iter_pending(self) -> Iterable[Event]:
        """Yield pending (non-cancelled) events in no particular order."""
        for _, event in self._heap:
            if not event.cancelled:
                yield event

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Simulator t={self._now:.6f} pending={self.pending_events} "
            f"processed={self._events_processed}>"
        )


def _cancel_hook(engine_ref: "weakref.ref[Simulator]") -> Callable[[Event], None]:
    def _on_cancel(event: Event) -> None:
        engine = engine_ref()
        if engine is not None:
            engine._note_cancelled(event)

    return _on_cancel


class _Periodic:
    """The callback of a periodic event: fires, then schedules itself again.

    An object rather than a closure, because a closure that schedules itself
    refers to itself: a reference cycle that would keep everything the
    callback reaches alive until the cyclic garbage collector runs.
    """

    __slots__ = ("period", "callback", "priority", "label", "stop_when")

    def __init__(
        self,
        period: float,
        callback: Callable[[Simulator], None],
        priority: EventPriority,
        label: str,
        stop_when: Optional[Callable[[Simulator], bool]],
    ) -> None:
        self.period = period
        self.callback = callback
        self.priority = priority
        self.label = label
        self.stop_when = stop_when

    def __call__(self, sim: Simulator) -> None:
        stop_when = self.stop_when
        if stop_when is not None and stop_when(sim):
            return
        self.callback(sim)
        if stop_when is not None and stop_when(sim):
            return
        next_time = sim.now + self.period
        if sim.horizon is not None and next_time > sim.horizon:
            return
        sim.schedule(next_time, self, priority=self.priority, label=self.label)
