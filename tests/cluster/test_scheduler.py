"""ClusterScheduler unit tests against a stub runner.

The scheduler only ever talks to runners through the runner protocol,
so a stub lets these tests script admission, preemption, backfill and
failover without spinning up a single real worker.
"""

import itertools
import json
import pathlib
import shutil

import pytest

from repro.cluster import (
    CLUSTER_RECORD_KINDS,
    ClusterJournalState,
    ClusterScheduler,
    JobRequest,
)
from repro.coordination.messages import MessageType
from repro.net.journal import Journal, JournalError
from repro.net.transport import memory_link

from .replay import assert_replay_matches

#: The journal :func:`scripted_session` wrote before the scheduler became
#: its journal; a successor must still recover from it.
GOLDEN_JOURNAL = pathlib.Path(__file__).with_name("golden_session.jsonl")
GOLDEN_KINDS = [
    "open", "epoch", "submit", "submit", "submit", "admit", "admit",
    "capacity", "preempt", "release", "submit", "admit", "complete",
    "admit",
]


class StubRunner:
    """Scriptable runner: completes when told, records every call."""

    def __init__(self, request, scheduler):
        self.request = request
        self.workers = 0
        self.iteration = 0
        self.done = False
        self.stopped = False
        self.closed = False
        self.resizes = []
        self.reject_next_resize = False

    def start(self, workers):
        self.workers = workers

    def resize(self, workers, at_iteration=None):
        if self.reject_next_resize:
            self.reject_next_resize = False
            return False
        self.resizes.append((self.workers, workers, at_iteration))
        self.workers = workers
        return True

    def progress(self):
        return self.iteration

    def complete(self):
        return self.done

    def digests(self):
        return {f"{self.request.job_id}-w0": f"digest-{self.request.job_id}"}

    def stop(self):
        self.stopped = True

    def close(self):
        self.closed = True


def make_scheduler(policy="e-priority", gpus=4, journal=None, clock=None):
    runners = {}

    def factory(request, scheduler):
        runner = StubRunner(request, scheduler)
        runners[request.job_id] = runner
        return runner

    sched = ClusterScheduler(
        policy, gpus, runner_factory=factory, journal=journal, clock=clock,
    )
    return sched, runners


def req(job_id, priority=0, min_res=1, req_res=1, max_res=2, iterations=24):
    return JobRequest(
        job_id=job_id, priority=priority, min_res=min_res,
        req_res=req_res, max_res=max_res, iterations=iterations,
    )


def scripted_session(check, journal=None):
    """Every decision kind but ``resize``, with ``check`` after each call.

    Two GPUs, priorities a=1, b=2, c=0: b and a run, c waits.  A drop to
    one GPU preempts a, which requeues ahead of c (submit order).  b is
    released, resubmitted and re-admitted; its completion admits a.
    """
    ticks = itertools.count()
    sched, runners = make_scheduler(
        gpus=2, journal=journal, clock=lambda: float(next(ticks)),
    )

    def call(method, *args, **kwargs):
        method(*args, **kwargs)
        check(sched)

    for name, priority in (("a", 1), ("b", 2), ("c", 0)):
        call(sched.submit, req(name, priority=priority))
    call(sched.step)
    call(sched.set_capacity, 1, reason="spot")
    call(sched.step)
    call(sched.release, "b")
    call(sched.submit, req("b", priority=2))
    call(sched.step)
    runners["b"].done = True
    call(sched.step)
    return sched, runners


class TestSubmitAndAdmit:
    def test_burst_admission_respects_capacity_floor(self):
        sched, runners = make_scheduler(gpus=2)
        for name in ("a", "b", "c"):
            assert sched.submit(req(name))["accepted"]
        summary = sched.step()
        # §VI-C admission: a+b fill the floor (min 1 each), c waits.
        assert sorted(summary["admitted"]) == ["a", "b"]
        assert sched.queue == ["c"]
        assert sched.running["a"].workers + sched.running["b"].workers == 2

    def test_priority_order_wins_admission(self):
        sched, runners = make_scheduler(gpus=1)
        sched.submit(req("low", priority=0))
        sched.submit(req("high", priority=5))
        summary = sched.step()
        assert summary["admitted"] == ["high"]
        assert sched.queue == ["low"]

    def test_duplicate_submission_rejected(self):
        sched, _ = make_scheduler()
        assert sched.submit(req("a"))["accepted"]
        reply = sched.submit(req("a"))
        assert not reply["accepted"]
        assert reply["reason"] == "duplicate"

    def test_completion_frees_capacity_for_backfill(self):
        sched, runners = make_scheduler(gpus=1, policy="e-fifo")
        sched.submit(req("a", max_res=1))
        sched.submit(req("b", max_res=1))
        sched.step()
        assert "a" in sched.running and sched.queue == ["b"]
        runners["a"].done = True
        summary = sched.step()
        assert summary["completed"] == ["a"]
        assert summary["admitted"] == ["b"]
        assert sched.completed["a"]["digest"] == "digest-a"
        assert runners["a"].closed

    def test_burst_of_hundreds_drains_through_small_cluster(self):
        """Hundreds queued, a handful running at any moment."""
        sched, runners = make_scheduler(gpus=4, policy="e-fifo")
        for i in range(200):
            sched.submit(req(f"j{i:03d}", max_res=1))
        max_concurrent = 0
        for _round in range(300):
            for runner in runners.values():
                if not runner.closed:
                    runner.done = True
            sched.step()
            max_concurrent = max(max_concurrent, len(sched.running))
            if len(sched.completed) == 200:
                break
        assert len(sched.completed) == 200
        assert max_concurrent <= 4


class TestResizeAndChurn:
    def test_capacity_growth_grows_running_jobs(self):
        sched, runners = make_scheduler(gpus=2)
        sched.submit(req("a"))
        sched.submit(req("b"))
        sched.step()
        sched.set_capacity(4, reason="spot")
        summary = sched.step(pin_at=8)
        assert summary["resized"] == {"a": (1, 2), "b": (1, 2)}
        assert runners["a"].resizes == [(1, 2, 8)]

    def test_spot_shrink_evicts_lowest_priority_newest_first(self):
        sched, runners = make_scheduler(gpus=3)
        sched.submit(req("old-low", priority=0))
        sched.step()
        sched.submit(req("high", priority=2))
        sched.submit(req("new-low", priority=0))
        sched.step()
        assert len(sched.running) == 3
        sched.set_capacity(2, reason="spot-reclaim")
        summary = sched.step()
        # Lowest tier first, newest admission first within the tier.
        assert summary["preempted"] == ["new-low"]
        assert runners["new-low"].stopped
        assert "new-low" in sched.queue
        assert sched.jobs["new-low"].preemptions == 1
        sched.set_capacity(1, reason="spot-reclaim")
        summary = sched.step()
        assert summary["preempted"] == ["old-low"]
        assert "high" in sched.running

    def test_rejected_resize_is_retried_next_pass(self):
        sched, runners = make_scheduler(gpus=1)
        sched.submit(req("a"))
        sched.step()
        runners["a"].reject_next_resize = True
        sched.set_capacity(2)
        summary = sched.step()
        assert summary["resized"] == {}
        assert sched.running["a"].workers == 1
        summary = sched.step()
        assert summary["resized"] == {"a": (1, 2)}

    def test_release_returns_gpus(self):
        sched, runners = make_scheduler(gpus=1)
        sched.submit(req("a"))
        sched.submit(req("b"))
        sched.step()
        assert sched.release("a")["released"]
        assert runners["a"].stopped
        summary = sched.step()
        assert summary["admitted"] == ["b"]
        assert not sched.release("nope")["released"]


class TestWireProtocol:
    def test_submit_offer_status_release_round_trip(self):
        sched, runners = make_scheduler(gpus=2)
        client = memory_link(sched.core, "client")
        try:
            reply = client.request(
                MessageType.SUBMIT, {"job": req("a").to_payload()}
            )
            assert reply["accepted"]
            assert client.request(
                MessageType.OFFER, {"job_id": "a"}
            )["state"] == "queued"
            sched.step()
            runners["a"].iteration = 5
            offer = client.request(MessageType.OFFER, {"job_id": "a"})
            assert offer["state"] == "running"
            assert offer["iteration"] == 5
            tables = client.request(MessageType.JOB_STATUS)
            assert tables["capacity"] == 2
            assert tables["running"][0]["job_id"] == "a"
            assert client.request(
                MessageType.RELEASE, {"job_id": "a"}
            )["released"]
            assert client.request(
                MessageType.OFFER, {"job_id": "a"}
            )["state"] == "unknown"
        finally:
            client.close()
            sched.close()

    def test_fenced_scheduler_tells_clients_to_retry(self):
        sched, _ = make_scheduler()
        sched.abandon()
        reply = sched.handle(type("M", (), {
            "msg_type": MessageType.STATUS, "payload": {},
        })())
        assert reply == {"__retry__": "scheduler_superseded"}


class TestJournalAndFailover:
    def test_journal_rejects_am_record_kinds(self):
        journal = Journal(kinds=CLUSTER_RECORD_KINDS)
        with pytest.raises(JournalError):
            journal.append("plan", generation=1)

    def test_decisions_are_journaled(self):
        sched, runners = make_scheduler(gpus=2)
        sched.submit(req("a"))
        sched.submit(req("b", priority=1))
        sched.step()
        sched.set_capacity(1)
        sched.step()
        kinds = [r["kind"] for r in sched.journal.records()]
        assert kinds[:2] == ["open", "epoch"]
        assert kinds.count("submit") == 2
        assert kinds.count("admit") == 2
        assert "capacity" in kinds and "preempt" in kinds

    def test_replay_reconstructs_queue_and_inventory(self):
        sched, runners = make_scheduler(gpus=2)
        sched.submit(req("done", max_res=1))
        sched.step()
        runners["done"].done = True
        sched.step()
        sched.submit(req("running", min_res=2, req_res=2, max_res=2))
        sched.submit(req("waiting", max_res=1))
        sched.submit(req("gone", max_res=1))
        sched.step()
        sched.release("gone")
        sched.set_capacity(4)
        state = ClusterJournalState.replay(sched.journal.records())
        assert state.policy == "e-priority"
        assert state.capacity == 4
        assert state.completed.keys() == {"done"}
        assert {jid: state.jobs[jid].workers for jid in state.running} == {
            "running": 2
        }
        assert state.queue == ["waiting"]
        assert "gone" not in state.jobs

    def test_failover_requeues_running_jobs_and_bumps_epoch(self, tmp_path):
        journal = Journal(
            str(tmp_path / "cluster.journal"), kinds=CLUSTER_RECORD_KINDS,
        )
        sched, runners = make_scheduler(gpus=2, journal=journal)
        sched.submit(req("a", priority=1))
        sched.submit(req("b"))
        sched.submit(req("c", max_res=1))
        sched.step()
        assert sorted(sched.running) == ["a", "b"]
        old_epoch = sched.epoch
        sched.abandon()
        # Every runner died with the incarnation.
        assert all(r.stopped for r in runners.values())

        successor, new_runners = {}, {}

        def factory(request, scheduler):
            runner = StubRunner(request, scheduler)
            new_runners[request.job_id] = runner
            return runner

        replayed = ClusterScheduler.from_journal(
            Journal(str(tmp_path / "cluster.journal"),
                    kinds=CLUSTER_RECORD_KINDS),
            runner_factory=factory,
        )
        assert replayed.epoch == old_epoch + 1
        assert replayed.capacity == 2
        # Previously running jobs are requeued in submit order.
        assert replayed.queue == ["a", "b", "c"]
        summary = replayed.step()
        assert sorted(summary["admitted"]) == ["a", "b"]
        assert sorted(new_runners) == ["a", "b"]

    def test_completed_digests_survive_failover(self):
        sched, runners = make_scheduler(gpus=1)
        sched.submit(req("a", max_res=1))
        sched.step()
        runners["a"].done = True
        sched.step()
        sched.abandon()
        replayed = ClusterScheduler.from_journal(sched.journal)
        assert replayed.completed["a"]["digest"] == "digest-a"
        assert replayed.queue == []

    def test_released_then_resubmitted_job_survives_failover(self):
        sched, _ = make_scheduler(gpus=1)
        sched.submit(req("a"))
        sched.submit(req("b"))
        sched.step()
        assert list(sched.running) == ["a"]
        assert sched.release("a")["released"]
        assert sched.submit(req("a"))["accepted"]
        assert sched.queue == ["b", "a"]
        sched.abandon()
        successor = ClusterScheduler.from_journal(sched.journal)
        # The resubmission queues behind b, at its new submit position.
        assert sorted(successor.jobs) == ["a", "b"]
        assert successor.queue == ["b", "a"]

    def test_replay_matches_live_after_every_call(self):
        sched, _ = scripted_session(assert_replay_matches)
        assert sched.queue == ["c"]
        assert list(sched.running) == ["a"]
        assert sched.jobs["a"].preemptions == 1
        assert sched.completed.keys() == {"b"}

    def test_session_writes_the_golden_kind_sequence(self):
        sched, _ = scripted_session(lambda _sched: None)
        kinds = [r["kind"] for r in sched.journal.records()]
        golden = [
            json.loads(line)["kind"]
            for line in GOLDEN_JOURNAL.read_text().splitlines()
        ]
        assert kinds == golden == GOLDEN_KINDS

    def test_golden_journal_recovers_like_its_writer(self, tmp_path):
        path = tmp_path / "cluster.journal"
        shutil.copyfile(GOLDEN_JOURNAL, path)
        successor = ClusterScheduler.from_journal(
            Journal(str(path), kinds=CLUSTER_RECORD_KINDS),
        )
        assert successor.epoch == 2
        assert successor.capacity == 1
        # a was running: its runner died with the writer, so it waits
        # again at its submit position, ahead of c.
        assert successor.queue == ["a", "c"]
        assert successor.jobs["a"].preemptions == 1
        assert {
            jid: data["digest"] for jid, data in successor.completed.items()
        } == {"b": "digest-b"}


class TestValidation:
    def test_bad_requests_rejected(self):
        with pytest.raises(ValueError):
            JobRequest(job_id="")
        with pytest.raises(ValueError):
            JobRequest(job_id="x", min_res=3, req_res=2, max_res=2)
        with pytest.raises(ValueError):
            JobRequest(job_id="x", iterations=0)

    def test_capacity_floor(self):
        with pytest.raises(ValueError):
            ClusterScheduler("e-fifo", 0)
        sched, _ = make_scheduler()
        with pytest.raises(ValueError):
            sched.set_capacity(0)

    def test_admission_without_factory_raises(self):
        sched = ClusterScheduler("e-fifo", 2)
        sched.submit(req("a"))
        with pytest.raises(RuntimeError):
            sched.step()
