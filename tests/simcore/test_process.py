"""Unit tests for simulation processes (generators)."""

import pytest

from repro.simcore import Event, Simulator


@pytest.fixture
def sim():
    return Simulator()


class TestProcessBasics:
    def test_process_runs_and_returns(self, sim):
        def worker():
            yield sim.timeout(3.0)
            return "result"

        proc = sim.process(worker())
        assert sim.run(until=proc) == "result"
        assert sim.now == 3.0
        assert not proc.is_alive

    def test_requires_generator(self, sim):
        with pytest.raises(TypeError):
            sim.process(lambda: None)

    def test_process_receives_event_value(self, sim):
        def worker():
            got = yield sim.timeout(1.0, value="payload")
            return got

        assert sim.run(until=sim.process(worker())) == "payload"

    def test_processes_interleave(self, sim):
        log = []

        def worker(name, delay):
            yield sim.timeout(delay)
            log.append((name, sim.now))
            yield sim.timeout(delay)
            log.append((name, sim.now))

        sim.process(worker("a", 1.0))
        sim.process(worker("b", 1.5))
        sim.run()
        assert log == [("a", 1.0), ("b", 1.5), ("a", 2.0), ("b", 3.0)]

    def test_process_waits_for_process(self, sim):
        def child():
            yield sim.timeout(2.0)
            return 99

        def parent():
            value = yield sim.process(child())
            return value + 1

        assert sim.run(until=sim.process(parent())) == 100

    def test_yield_non_event_fails_process(self, sim):
        def worker():
            yield "not an event"

        proc = sim.process(worker())
        with pytest.raises(TypeError):
            sim.run(until=proc)

    def test_exception_in_process_propagates_to_waiter(self, sim):
        def child():
            yield sim.timeout(1.0)
            raise KeyError("inner")

        def parent():
            yield sim.process(child())

        with pytest.raises(KeyError):
            sim.run(until=sim.process(parent()))

    def test_yield_already_processed_event_resumes_same_time(self, sim):
        done = Event(sim)
        done.succeed("x")
        sim.run()

        def worker():
            value = yield done
            return (value, sim.now)

        assert sim.run(until=sim.process(worker())) == ("x", 0.0)

    def test_active_process_visible_during_step(self, sim):
        seen = []

        def worker():
            seen.append(sim.active_process)
            yield sim.timeout(1.0)

        proc = sim.process(worker())
        sim.run()
        assert seen == [proc]
        assert sim.active_process is None
