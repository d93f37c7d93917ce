"""Lease-based worker eviction, driven by an injectable clock.

A SIGKILLed worker sends no goodbye: only its expiring heartbeat lease
tells the AM it is gone.  These tests pin the detection pipeline —
message activity renews leases, :meth:`check_leases` condemns expired
holders, condemnation mints the scale-in, fences the straggler out, and
feeds the detection/MTTR telemetry — without any supervisor thread or
wall-clock sleeps (the clock is a test-controlled lambda, which also
keeps the AM from starting its lease loop).  Only the sweep-failure
tests at the end run the supervisor's real thread.
"""

import threading
import time

import numpy as np
import pytest

from repro.coordination.messages import MessageType
from repro.net import (
    JobSpec,
    JournalError,
    JournalState,
    NetworkedApplicationMaster,
    memory_link,
)
from repro.net.leases import LeaseSupervisor
from repro.observability import MetricRegistry
from repro.net.sync_barriers import _SyncBarrier


class FakeClock:
    def __init__(self, start=100.0):
        self.now = start

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


TTL = 5.0


@pytest.fixture
def rig():
    spec = JobSpec(
        iterations=8, coordination_interval=4, iteration_sleep=0.0,
        ring_enabled=False, worker_lease_ttl=TTL,
    )
    clock = FakeClock()
    master = NetworkedApplicationMaster(
        spec, ["w0", "w1", "w2"], clock=clock,
    )
    assert master.leases.thread is None  # injectable clock: no thread
    links = {w: memory_link(master.core, w) for w in ("w0", "w1", "w2")}
    for worker, link in links.items():
        assert link.request(MessageType.JOIN, {})["status"] == "start"
    yield master, links, clock
    for link in links.values():
        link.close()
    master.close()


class TestLeases:
    def test_activity_renews_lease_and_nothing_expires(self, rig):
        master, links, clock = rig
        clock.advance(TTL * 0.8)
        for worker, link in links.items():
            link.request(
                MessageType.COORDINATE, {"iteration": 1, "ring_epoch": -1},
            )
        clock.advance(TTL * 0.8)  # past the JOIN-time lease, not the renewal
        assert master.check_leases() == []
        assert master.status()["condemned"] == []

    def test_silent_worker_is_condemned_and_eviction_minted(self, rig):
        master, links, clock = rig
        clock.advance(TTL * 0.5)
        for worker in ("w0", "w1"):  # w2 goes silent
            links[worker].request(
                MessageType.COORDINATE, {"iteration": 1, "ring_epoch": -1},
            )
        clock.advance(TTL * 0.7)
        assert master.check_leases() == ["w2"]

        status = master.status()
        assert status["condemned"] == ["w2"]
        assert status["adjustment_pending"]  # the auto scale-in
        snap = master.metrics.snapshot()
        assert snap.get("worker.lease.expired") == 1
        assert snap.get("am.evictions") == 1
        detection = snap["failure.detection_latency_seconds"]
        assert detection["count"] == 1
        # Detection latency is the sweep's lag past the lease deadline,
        # so it is bounded by how far the clock jumped.
        assert 0.0 <= detection["max"] <= TTL
        # The eviction request is journaled as auto=True so a successor
        # re-drives it as its own.
        requests = [
            r for r in master.journal.records() if r["kind"] == "request"
        ]
        assert requests and requests[-1]["data"] == {
            "kind": "scale_in", "add": [], "remove": ["w2"], "auto": True,
            "origin": "lease",
        }

    def test_whole_group_is_never_evicted(self, rig):
        master, links, clock = rig
        clock.advance(TTL * 2)
        condemned = master.check_leases()
        # All three leases expired; all three are condemned, but no
        # eviction request can be minted (it would empty the job).
        assert sorted(condemned) == ["w0", "w1", "w2"]
        assert not master.status()["adjustment_pending"]
        # Condemnation is idempotent: the next sweep finds nobody new.
        clock.advance(TTL)
        assert master.check_leases() == []

    def test_parked_barrier_amnesty(self, rig):
        """A worker whose request is parked in an open sync barrier the
        AM itself is holding has proven liveness: it must be re-leased,
        not condemned, even though it produces no new traffic."""
        master, links, clock = rig
        barrier = _SyncBarrier(expected=("w0", "w1", "w2"))
        barrier.contributions["w2"] = {"g": np.zeros(2)}
        with master._lock:
            master.barriers.open[(0, 4)] = barrier

        clock.advance(TTL * 1.1)
        condemned = master.check_leases()
        assert sorted(condemned) == ["w0", "w1"]
        assert "w2" not in condemned
        # The amnesty minted a fresh lease: w2 survives the next sweep
        # too while the barrier stays open.
        clock.advance(TTL * 0.5)
        assert master.check_leases() == []

    def test_released_worker_leaves_the_barrier_with_a_fresh_lease(self, rig):
        """Every sweep renews a parked worker's lease, not only once it
        has lapsed: when the sweep that condemns a straggler releases
        the barrier, the survivors get a whole TTL to speak again — not
        the lease that ran out while they waited."""
        master, links, clock = rig
        clock.advance(TTL * 0.1)
        for worker in ("w1", "w2"):  # w0 goes silent
            links[worker].request(
                MessageType.COORDINATE, {"iteration": 1, "ring_epoch": -1},
            )
        barrier = _SyncBarrier(expected=("w0", "w1", "w2"))
        for worker in ("w1", "w2"):
            barrier.contributions[worker] = {"g": np.zeros(2)}
        with master._lock:
            master.barriers.open[(0, 4)] = barrier

        # w0's lease has lapsed; the parked workers' have not, quite.
        clock.advance(TTL * 0.95)
        assert master.check_leases() == ["w0"]
        assert barrier.result is not None  # w0's eviction released it
        # Past the leases w1 and w2 held while they were parked.
        clock.advance(TTL * 0.1)
        assert master.check_leases() == []

    def test_condemned_worker_is_fenced_on_coordinate(self, rig):
        """A condemned-but-merely-slow worker must not keep feeding a
        generation that is being rebuilt without it: its COORDINATE is
        answered with the structured retryable error, its ENROLL with
        the evicted verdict."""
        master, links, clock = rig
        clock.advance(TTL * 0.5)
        for worker in ("w0", "w1"):
            links[worker].request(
                MessageType.COORDINATE, {"iteration": 1, "ring_epoch": -1},
            )
        clock.advance(TTL * 0.7)
        assert master.check_leases() == ["w2"]

        from repro.net import RetryableError

        with pytest.raises(RetryableError) as excinfo:
            links["w2"].request(
                MessageType.COORDINATE, {"iteration": 2, "ring_epoch": -1},
            )
        assert excinfo.value.reason == "am_superseded"
        reply = links["w2"].request(
            MessageType.ENROLL, {"generation": 0, "iteration": 2},
        )
        assert reply["status"] == "evicted"

    def test_eviction_commits_and_feeds_mttr(self, rig):
        """Survivors coordinating through the boundary commit the auto
        scale-in; the commit closes the MTTR measurement the
        condemnation opened."""
        master, links, clock = rig
        clock.advance(TTL * 0.5)
        for worker in ("w0", "w1"):
            links[worker].request(
                MessageType.COORDINATE, {"iteration": 1, "ring_epoch": -1},
            )
        clock.advance(TTL * 0.7)
        assert master.check_leases() == ["w2"]

        for worker in ("w0", "w1"):
            directive = links[worker].request(
                MessageType.COORDINATE, {"iteration": 4, "ring_epoch": -1},
            )
            assert directive["kind"] == "adjust", (worker, directive)
            assert directive["group"] == ["w0", "w1"]

        status = master.status()
        assert status["adjustments_committed"] == 1
        assert status["group"] == ["w0", "w1"]
        assert status["departed"] == ["w2"]
        snap = master.metrics.snapshot()
        mttr = snap["failure.mttr_seconds"]
        assert mttr["count"] == 1
        assert mttr["max"] >= 0.0

    def test_lease_state_survives_failover_via_journal(self, rig):
        """Condemnation is journaled before it is acted on: a successor
        AM still knows w2 is condemned and re-mints the eviction."""
        master, links, clock = rig
        clock.advance(TTL * 0.5)
        for worker in ("w0", "w1"):
            links[worker].request(
                MessageType.COORDINATE, {"iteration": 1, "ring_epoch": -1},
            )
        clock.advance(TTL * 0.7)
        assert master.check_leases() == ["w2"]

        master.abandon()
        successor = NetworkedApplicationMaster.from_journal(master.journal)
        try:
            status = successor.status()
            assert status["condemned"] == ["w2"]
            assert status["adjustment_pending"]
        finally:
            successor.close()


def start_sweeping(sweep, metrics):
    """A real supervisor thread (wall clock) around a scripted sweep."""
    spec = JobSpec(worker_lease_ttl=1.0, lease_check_interval=0.01)
    supervisor = LeaseSupervisor(
        spec, JournalState(), threading.RLock(), None, metrics, None,
        sweep=sweep,
    )
    supervisor.start()
    return supervisor


class TestSweepFailures:
    @pytest.mark.parametrize("error", [
        JournalError("journal closed"), OSError("disk full"),
        ValueError("I/O operation on closed file."),
    ], ids=["journal", "os", "closed-file"])
    def test_journal_failures_are_counted_and_sweeping_goes_on(self, error):
        sweeps = []

        def sweep():
            sweeps.append(error)
            raise error

        metrics = MetricRegistry()
        supervisor = start_sweeping(sweep, metrics)
        deadline = time.monotonic() + 5.0
        while len(sweeps) < 3:
            assert time.monotonic() < deadline, sweeps
            time.sleep(0.01)
        supervisor.stop()
        supervisor.thread.join(timeout=5.0)
        assert not supervisor.thread.is_alive()
        assert metrics.snapshot()["am.lease_check_errors"] == len(sweeps)

    def test_any_other_failure_escapes_the_sweep(self, monkeypatch):
        escaped = []
        monkeypatch.setattr(threading, "excepthook", escaped.append)

        def sweep():
            raise KeyError("a bug, not a journal failure")

        metrics = MetricRegistry()
        supervisor = start_sweeping(sweep, metrics)
        supervisor.thread.join(timeout=5.0)
        assert not supervisor.thread.is_alive()
        assert [hook.exc_type for hook in escaped] == [KeyError]
        assert "am.lease_check_errors" not in metrics.snapshot()
