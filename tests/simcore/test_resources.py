"""Unit tests for the Resource primitive."""

import pytest

from repro.simcore import Resource, Simulator


@pytest.fixture
def sim():
    return Simulator()


class TestResource:
    def test_capacity_validation(self, sim):
        with pytest.raises(ValueError):
            Resource(sim, capacity=0)

    def test_serializes_access(self, sim):
        res = Resource(sim, capacity=1)
        log = []

        def user(name):
            with res.request() as req:
                yield req
                log.append((name, "in", sim.now))
                yield sim.timeout(2.0)
                log.append((name, "out", sim.now))

        sim.process(user("a"))
        sim.process(user("b"))
        sim.run()
        assert log == [
            ("a", "in", 0.0),
            ("a", "out", 2.0),
            ("b", "in", 2.0),
            ("b", "out", 4.0),
        ]

    def test_capacity_two_allows_concurrency(self, sim):
        res = Resource(sim, capacity=2)
        done_times = []

        def user():
            with res.request() as req:
                yield req
                yield sim.timeout(2.0)
                done_times.append(sim.now)

        for _ in range(4):
            sim.process(user())
        sim.run()
        assert done_times == [2.0, 2.0, 4.0, 4.0]

    def test_priority_order(self, sim):
        res = Resource(sim, capacity=1)
        order = []

        def holder():
            with res.request() as req:
                yield req
                yield sim.timeout(1.0)

        def user(name, priority, delay):
            yield sim.timeout(delay)
            with res.request(priority=priority) as req:
                yield req
                order.append(name)

        sim.process(holder())
        sim.process(user("low", priority=5, delay=0.1))
        sim.process(user("high", priority=1, delay=0.2))
        sim.run()
        assert order == ["high", "low"]

    def test_cancel_queued_request(self, sim):
        res = Resource(sim, capacity=1)
        first = res.request()
        second = res.request()
        assert res.count == 1
        assert res.queued == 1
        res.release(second)  # cancel before grant
        assert res.queued == 0
        res.release(first)
        assert res.count == 0

    def test_count_and_queued_tracking(self, sim):
        res = Resource(sim, capacity=2)
        reqs = [res.request() for _ in range(3)]
        assert res.count == 2
        assert res.queued == 1
        res.release(reqs[0])
        assert res.count == 2  # third request was granted
        assert res.queued == 0
