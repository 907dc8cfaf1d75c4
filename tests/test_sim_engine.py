"""Tests for the discrete-event engine."""

import gc
import weakref

import pytest

from repro.errors import SchedulingError, SimulationError
from repro.sim.engine import _COMPACTION_MIN_SIZE, Simulator
from repro.sim.events import EventPriority


class TestScheduling:
    def test_events_run_in_time_order(self):
        sim = Simulator()
        order = []
        sim.schedule(2.0, lambda s: order.append("b"))
        sim.schedule(1.0, lambda s: order.append("a"))
        sim.schedule(3.0, lambda s: order.append("c"))
        sim.run()
        assert order == ["a", "b", "c"]
        assert sim.now == 3.0

    def test_priority_breaks_ties(self):
        sim = Simulator()
        order = []
        sim.schedule(1.0, lambda s: order.append("observe"), priority=EventPriority.OBSERVE)
        sim.schedule(1.0, lambda s: order.append("control"), priority=EventPriority.CONTROL)
        sim.schedule(1.0, lambda s: order.append("normal"), priority=EventPriority.NORMAL)
        sim.run()
        assert order == ["control", "normal", "observe"]

    def test_fifo_among_equal_priority(self):
        sim = Simulator()
        order = []
        for i in range(5):
            sim.schedule(1.0, lambda s, i=i: order.append(i))
        sim.run()
        assert order == [0, 1, 2, 3, 4]

    def test_cannot_schedule_in_past(self):
        sim = Simulator()
        sim.schedule(1.0, lambda s: None)
        sim.run()
        with pytest.raises(SchedulingError):
            sim.schedule(0.5, lambda s: None)

    def test_cannot_schedule_beyond_horizon(self):
        sim = Simulator(horizon=10.0)
        with pytest.raises(SchedulingError):
            sim.schedule(11.0, lambda s: None)

    def test_negative_start_time(self):
        sim = Simulator(start_time=-5.0)
        seen = []
        sim.schedule(-4.0, lambda s: seen.append(s.now))
        sim.schedule(0.0, lambda s: seen.append(s.now))
        sim.run()
        assert seen == [-4.0, 0.0]

    def test_schedule_after(self):
        sim = Simulator()
        seen = []
        sim.schedule_after(2.5, lambda s: seen.append(s.now))
        sim.run()
        assert seen == [2.5]
        with pytest.raises(SchedulingError):
            sim.schedule_after(-1.0, lambda s: None)


class TestExecution:
    def test_run_until(self):
        sim = Simulator()
        seen = []
        for t in [1.0, 2.0, 3.0]:
            sim.schedule(t, lambda s: seen.append(s.now))
        end = sim.run(until=2.0)
        assert seen == [1.0, 2.0]
        assert end == 2.0
        assert sim.pending_events == 1

    def test_run_until_before_now_raises(self):
        sim = Simulator(start_time=5.0)
        with pytest.raises(SimulationError):
            sim.run(until=1.0)

    def test_stop(self):
        sim = Simulator()
        sim.schedule(1.0, lambda s: s.stop("done early"))
        sim.schedule(2.0, lambda s: pytest.fail("should not run"))
        sim.run()
        assert sim.stop_reason == "done early"
        assert sim.now == 1.0

    def test_max_events_guard(self):
        sim = Simulator()

        def reschedule(s):
            s.schedule_after(0.1, reschedule)

        sim.schedule(0.1, reschedule)
        with pytest.raises(SimulationError):
            sim.run(max_events=50)

    def test_step(self):
        sim = Simulator()
        sim.schedule(1.0, lambda s: None)
        assert sim.step() is True
        assert sim.step() is False
        assert sim.events_processed == 1

    def test_cancelled_events_are_skipped(self):
        sim = Simulator()
        seen = []
        event = sim.schedule(1.0, lambda s: seen.append("cancelled"))
        sim.schedule(2.0, lambda s: seen.append("kept"))
        event.cancel()
        sim.run()
        assert seen == ["kept"]

    def test_drain_cancelled(self):
        sim = Simulator()
        events = [sim.schedule(float(i + 1), lambda s: None) for i in range(4)]
        events[0].cancel()
        events[2].cancel()
        removed = sim.drain_cancelled()
        assert removed == 2
        assert sim.pending_events == 2

    def test_heap_compacts_when_cancelled_events_dominate(self):
        """Cancelling more than half of a large heap triggers a compaction."""
        sim = Simulator()
        events = [sim.schedule(float(i + 1), lambda s: None) for i in range(100)]
        assert sim.heap_size == 100
        # Cancel just under the trigger: nothing is compacted yet.
        for event in events[:50]:
            event.cancel()
        assert sim.heap_size == 100
        assert sim.pending_events == 50
        # One more cancellation tips the dead fraction over 1/2.
        events[50].cancel()
        assert sim.heap_size == 49
        assert sim.pending_events == 49

    def test_small_heaps_are_not_compacted(self):
        sim = Simulator()
        events = [sim.schedule(float(i + 1), lambda s: None) for i in range(10)]
        for event in events[:9]:
            event.cancel()
        assert sim.heap_size == 10  # below the compaction minimum
        assert sim.pending_events == 1
        sim.run()
        assert sim.events_processed == 1

    def test_cancel_after_fire_keeps_counts_consistent(self):
        sim = Simulator()
        event = sim.schedule(1.0, lambda s: None)
        sim.run()
        event.cancel()  # late cancel of an already-fired event
        assert sim.pending_events == 0
        assert sim.heap_size == 0

    def test_double_cancel_is_counted_once(self):
        sim = Simulator()
        events = [sim.schedule(float(i + 1), lambda s: None) for i in range(80)]
        for _ in range(3):
            events[0].cancel()
        assert sim.pending_events == 79
        # The remaining schedule/run machinery still sees a consistent count.
        for event in events[1:41]:
            event.cancel()
        assert sim.pending_events == 39
        assert sim.heap_size == 39  # compaction fired exactly at the trigger
        sim.run()
        assert sim.events_processed == 39

    def test_peek_next(self):
        sim = Simulator()
        assert sim.peek_next() is None
        late = sim.schedule(3.0, lambda s: None, label="late")
        early = sim.schedule(1.0, lambda s: None, label="early")
        assert sim.peek_next() is early
        # Peeking runs nothing and skips a cancelled head.
        assert sim.events_processed == 0 and sim.now == 0.0
        early.cancel()
        assert sim.peek_next() is late

    def test_peek_next_drops_cancelled_entries_at_the_head(self):
        sim = Simulator()
        events = [sim.schedule(float(i + 1), lambda s: None) for i in range(3)]
        events[0].cancel()
        events[1].cancel()
        assert sim.heap_size == 3
        assert sim.peek_next() is events[2]
        assert sim.heap_size == 1
        assert sim.pending_events == 1

    def test_iter_pending_skips_cancelled_events(self):
        sim = Simulator()
        for label in ("a", "b", "c"):
            event = sim.schedule(1.0, lambda s: None, label=label)
            if label == "b":
                event.cancel()
        assert sorted(e.label for e in sim.iter_pending()) == ["a", "c"]

    def test_schedule_at_the_horizon_runs(self):
        sim = Simulator(horizon=10.0)
        seen = []
        sim.schedule(10.0, lambda s: seen.append(s.now))
        sim.run()
        assert seen == [10.0]

    def test_cancel_from_a_callback_at_the_same_instant(self):
        """A CONTROL event can cancel a NORMAL one due at the same time:
        the cancelled event never runs."""
        sim = Simulator()
        seen = []
        normal = sim.schedule(1.0, lambda s: seen.append("normal"))
        sim.schedule(1.0, lambda s: normal.cancel(), priority=EventPriority.CONTROL)
        sim.schedule(2.0, lambda s: seen.append("later"))
        sim.run()
        assert seen == ["later"]
        assert sim.events_processed == 2

    def test_stats_are_lifetime_totals(self):
        """Compaction drops cancelled entries but not their count."""
        sim = Simulator()
        events = [sim.schedule(float(i + 1), lambda s: None) for i in range(4)]
        events[0].cancel()
        events[1].cancel()
        assert sim.drain_cancelled() == 2
        sim.run()
        assert sim.stats() == {
            "engine.events.scheduled": 4,
            "engine.events.processed": 2,
            "engine.events.cancelled": 2,
            "engine.heap.compactions": 1,
        }

    def test_queued_events_do_not_keep_the_engine_alive(self):
        """Dropping an engine frees it at once, queued and periodic events
        included, without the cyclic garbage collector."""
        sim = Simulator()
        sim.schedule(1.0, lambda s: None)
        sim.schedule(2.0, lambda s: None).cancel()
        sim.schedule_periodic(0.5, lambda s: None)
        sim.run(until=1.2)
        ref = weakref.ref(sim)
        gc.disable()
        try:
            del sim
            assert ref() is None
        finally:
            gc.enable()


class TestRetiming:
    """Moving a pending event is a cancel and a new schedule."""

    @staticmethod
    def _retime(sim, event, time):
        event.cancel()
        return sim.schedule(time, event.callback, priority=event.priority,
                            label=event.label)

    @pytest.mark.parametrize("new_time", [0.5, 5.0])
    def test_fires_once_at_the_new_time(self, new_time):
        sim = Simulator()
        seen = []
        event = sim.schedule(2.0, lambda s: seen.append(s.now))
        self._retime(sim, event, new_time)
        assert sim.pending_events == 1
        sim.run()
        assert seen == [new_time]
        assert sim.events_processed == 1
        assert sim.pending_events == 0 and sim.heap_size == 0

    def test_retimed_event_takes_a_new_sequence_number(self):
        """Ties at one (time, priority) go by insertion, and a retimed event
        is inserted anew: it runs after one scheduled before the retime."""
        sim = Simulator()
        seen = []
        first = sim.schedule(1.0, lambda s: seen.append("first"))
        sim.schedule(3.0, lambda s: seen.append("second"))
        self._retime(sim, first, 3.0)
        sim.run()
        assert seen == ["second", "first"]

    def test_repeated_retimes_keep_the_heap_bounded(self):
        """Each retime leaves a cancelled entry behind; compaction keeps
        the heap from growing with them."""
        sim = Simulator()
        event = sim.schedule(1.0, lambda s: None)
        largest = 0
        for offset in range(2, 1002):
            event = self._retime(sim, event, float(offset))
            largest = max(largest, sim.heap_size)
        assert largest <= _COMPACTION_MIN_SIZE
        assert sim.pending_events == 1
        assert sim.stats()["engine.events.cancelled"] == 1000
        assert sim.stats()["engine.heap.compactions"] > 0
        sim.run()
        assert sim.now == 1001.0 and sim.events_processed == 1


class TestPeriodic:
    def test_periodic_fires_repeatedly(self):
        sim = Simulator()
        ticks = []
        sim.schedule_periodic(1.0, lambda s: ticks.append(s.now))
        sim.run(until=5.5)
        assert ticks == [1.0, 2.0, 3.0, 4.0, 5.0]

    def test_periodic_stop_when(self):
        sim = Simulator()
        ticks = []
        sim.schedule_periodic(
            1.0, lambda s: ticks.append(s.now), stop_when=lambda s: len(ticks) >= 3
        )
        sim.run(until=10.0)
        assert len(ticks) == 3

    def test_periodic_requires_positive_period(self):
        sim = Simulator()
        with pytest.raises(SchedulingError):
            sim.schedule_periodic(0.0, lambda s: None)

    def test_run_not_reentrant(self):
        sim = Simulator()

        def nested(s):
            with pytest.raises(SimulationError):
                s.run()

        sim.schedule(1.0, nested)
        sim.run()
