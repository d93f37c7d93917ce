"""Unit tests for the event primitives."""

import pytest

from repro.simcore import Event, EventPending, Simulator, all_of


@pytest.fixture
def sim():
    return Simulator()


class TestEvent:
    def test_value_before_trigger_raises(self, sim):
        event = Event(sim)
        with pytest.raises(EventPending):
            _ = event.value

    def test_succeed_sets_value(self, sim):
        event = Event(sim)
        event.succeed(42)
        assert event.triggered
        assert event.ok
        assert event.value == 42

    def test_double_trigger_rejected(self, sim):
        event = Event(sim)
        event.succeed()
        with pytest.raises(RuntimeError):
            event.succeed()
        with pytest.raises(RuntimeError):
            event.fail(ValueError("x"))

    def test_fail_stores_exception(self, sim):
        event = Event(sim)
        event.fail(ValueError("boom"))
        assert event.triggered
        assert not event.ok
        with pytest.raises(ValueError, match="boom"):
            _ = event.value

    def test_fail_requires_exception_instance(self, sim):
        event = Event(sim)
        with pytest.raises(TypeError):
            event.fail("not an exception")

    def test_callbacks_run_on_processing(self, sim):
        event = Event(sim)
        seen = []
        event.callbacks.append(lambda ev: seen.append(ev.value))
        event.succeed("hello")
        assert seen == []  # not yet processed
        sim.run()
        assert seen == ["hello"]
        assert event.processed


class TestTimeout:
    def test_timeout_advances_clock(self, sim):
        sim.timeout(5.0)
        sim.run()
        assert sim.now == 5.0

    def test_negative_delay_rejected(self, sim):
        with pytest.raises(ValueError):
            sim.timeout(-1.0)

    def test_timeout_carries_value(self, sim):
        timeout = sim.timeout(1.0, value="done")
        sim.run()
        assert timeout.value == "done"

    def test_timeouts_fire_in_order(self, sim):
        order = []
        for delay in (3.0, 1.0, 2.0):
            sim.timeout(delay).callbacks.append(
                lambda ev, d=delay: order.append(d)
            )
        sim.run()
        assert order == [1.0, 2.0, 3.0]

    def test_equal_times_fifo(self, sim):
        order = []
        for tag in ("a", "b", "c"):
            sim.timeout(1.0).callbacks.append(
                lambda ev, t=tag: order.append(t)
            )
        sim.run()
        assert order == ["a", "b", "c"]


class TestConditions:
    def test_all_of_waits_for_every_event(self, sim):
        events = [sim.timeout(1.0, value=1), sim.timeout(3.0, value=3)]
        combined = all_of(sim, events)
        sim.run(until=combined)
        assert sim.now == 3.0
        assert combined.value == {events[0]: 1, events[1]: 3}

    def test_all_of_empty_triggers_immediately(self, sim):
        combined = all_of(sim, [])
        assert combined.triggered
        sim.run()
        assert combined.value == {}

    def test_all_of_propagates_failure(self, sim):
        good = sim.timeout(1.0)
        bad = Event(sim)
        combined = all_of(sim, [good, bad])
        bad.fail(RuntimeError("dead"))
        with pytest.raises(RuntimeError, match="dead"):
            sim.run(until=combined)

    def test_all_of_with_already_processed_event(self, sim):
        done = Event(sim)
        done.succeed("early")
        sim.run()
        assert done.processed
        combined = all_of(sim, [done, sim.timeout(1.0, value="late")])
        sim.run(until=combined)
        assert sim.now == 1.0


class TestSimulatorRun:
    def test_run_until_time_stops_clock_there(self, sim):
        sim.timeout(10.0)
        sim.run(until=4.0)
        assert sim.now == 4.0

    def test_run_until_past_raises(self, sim):
        sim.timeout(5.0)
        sim.run()
        with pytest.raises(ValueError):
            sim.run(until=1.0)

    def test_run_until_event_returns_value(self, sim):
        event = sim.timeout(2.0, value="v")
        assert sim.run(until=event) == "v"

    def test_run_until_untriggered_event_raises(self, sim):
        event = Event(sim)  # never triggered
        sim.timeout(1.0)
        with pytest.raises(RuntimeError):
            sim.run(until=event)

    def test_peek_empty_is_infinite(self, sim):
        assert sim.peek() == float("inf")

    def test_peek_reports_next_event_time(self, sim):
        sim.timeout(7.0)
        sim.timeout(2.0)
        assert sim.peek() == 2.0
