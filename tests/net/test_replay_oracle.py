"""The AM is its journal: replaying the journal ≡ the live state.

``NetworkedApplicationMaster`` holds the fold of its write-ahead journal
as *the* control state and changes it only through ``_record``.  These
tests are the oracle for that claim: a hand-driven scenario checks
``JournalState.replay(journal) == live state`` after **every** handler
call, and a golden test pins the record-kind sequence a fault-free job
writes, so the journal a deployed standby would replay keeps its shape.
(Every scenario run ends with the same oracle, so
``test_soak.py`` checks it on both transports under faults.)
"""

import time

import numpy as np

from repro.coordination.messages import MessageType
from repro.core.hybrid_scaling import BatchSchedule, ScalingSpec
from repro.net import (
    ChunkedUploader,
    JobSpec,
    LocalJob,
    NetworkedApplicationMaster,
    memory_link,
)
from repro.net.chunks import ShardedFetcher
from repro.net.scenario import assert_replay_matches

from .harness import serial_replay

TTL = 5.0


class FakeClock:
    def __init__(self):
        self.now = 100.0

    def __call__(self):
        return self.now


class Scenario:
    """One AM, hand-driven links, the oracle after every handler call."""

    def __init__(self, spec, workers):
        self.clock = FakeClock()
        self.links = {}
        self.handled = 0
        self._adopt(NetworkedApplicationMaster(
            spec, workers, clock=self.clock,
        ))
        for worker in (*workers, "driver"):
            self.link(worker)

    def _adopt(self, master):
        self.master = master
        handle = master.handle

        def checked(message):
            try:
                return handle(message)
            finally:
                self.handled += 1
                assert_replay_matches(master)

        master.core.handler = checked
        assert_replay_matches(master)

    def link(self, worker):
        self.links[worker] = memory_link(self.master.core, worker)
        return self.links[worker]

    def send(self, worker, msg_type, payload=None):
        return self.links[worker].request(msg_type, payload or {})

    def coordinate(self, worker, iteration):
        return self.send(
            worker, MessageType.COORDINATE,
            {"iteration": iteration, "ring_epoch": -1},
        )

    def request(self, **payload):
        reply = self.send("driver", MessageType.ADJUSTMENT_REQUEST, payload)
        assert reply["accepted"] is True

    def final(self, worker, iteration, removed=False):
        self.send(worker, MessageType.STATE_UPLOAD, {
            "final": True, "iteration": iteration,
            "digest": None if removed else "d", "removed": removed,
        })

    def silence(self, silent, alive):
        """``silent``'s lease lapses while ``alive`` keep renewing."""
        self.clock.now += TTL * 0.6
        for worker in alive:
            self.send(worker, MessageType.ENROLL, {})
        self.clock.now += TTL * 0.6
        assert self.master.check_leases() == [silent]
        assert_replay_matches(self.master)

    def fail_over(self):
        old = self.master
        old.abandon()
        successor = NetworkedApplicationMaster.from_journal(
            old.journal, clock=self.clock,
        )
        for link in self.links.values():
            link.transport.redirect(successor.core)
        self._adopt(successor)

    def status(self):
        return self.send("driver", MessageType.STATUS)

    def close(self):
        for link in self.links.values():
            link.close()
        self.master.close()


def snapshot_state():
    return {
        "params": {"w": np.arange(96.0)}, "optimizer": {"t": 3},
        "loader": {"cursor": 5},
    }


def test_replay_matches_live_after_every_handler_call():
    spec = JobSpec(
        iterations=32, coordination_interval=4, chunk_bytes=128,
        replication_window=1, worker_lease_ttl=TTL, replication_shards=2,
    )
    s = Scenario(spec, ["w0", "w1", "w2", "w3"])
    try:
        for worker in ("w0", "w1", "w2", "w3"):
            assert s.send(worker, MessageType.JOIN)["status"] == "start"

        # Scale-in: w3 leaves at the first boundary.
        s.request(kind="scale_in", remove=["w3"])
        for worker in ("w0", "w1", "w2", "w3"):
            assert s.coordinate(worker, 4)["kind"] == "adjust"
        s.final("w3", 4, removed=True)
        assert s.status()["group"] == ["w0", "w1", "w2"]

        # Star scale-out: nobody advertised a peer address, so no shard
        # owner can be elected and w4 pulls the one owner-less shard —
        # the whole blob — from the AM.
        s.request(kind="scale_out", add=["w4"])
        assert s.link("w4").request(MessageType.JOIN, {}) == {
            "status": "pending"
        }
        directive = s.coordinate("w0", 8)
        assert directive["upload"] is True and "shards" not in directive
        s.coordinate("w1", 8)
        ChunkedUploader(s.links["w0"], chunk_bytes=128, window=1).upload(
            snapshot_state()
        )
        assert s.status()["adjustment_pending"]  # w2 has not acked
        s.coordinate("w2", 8)
        offer = s.send("w4", MessageType.JOIN)
        assert offer["status"] == "join" and offer["generation"] == 2
        assert [
            (shard["owner"], shard["addr"])
            for shard in offer["state_transfer"]["shards"]
        ] == [(None, None)]
        fetched = ShardedFetcher(s.links["w4"], window=1).fetch(
            offer["state_transfer"]
        )
        np.testing.assert_array_equal(
            fetched["params"]["w"], snapshot_state()["params"]["w"]
        )

        # Lease eviction: w2 falls silent, is condemned, and the minted
        # scale-in commits at the next boundary.
        s.silence("w2", alive=("w0", "w1", "w4"))
        for worker in ("w0", "w1", "w4"):
            assert s.coordinate(worker, 12)["group"] == ["w0", "w1", "w4"]
        assert s.status()["departed"] == ["w2", "w3"]

        # Sharded scale-out with a failover mid-plan: the survivors now
        # advertise peers, w0/w1 are elected owners, and the successor
        # carries the election through to the joiner's offer.
        for worker in ("w0", "w1", "w4"):
            s.send(worker, MessageType.ENROLL, {"peer": f"mem://{worker}"})
        s.request(kind="scale_out", add=["w5"])
        s.link("w5").request(MessageType.JOIN, {"peer": "mem://w5"})
        shards = s.coordinate("w0", 16)["shards"]
        assert shards["owners"] == ["w0", "w1"]
        s.fail_over()
        assert s.coordinate("w1", 16)["shards"] == shards
        ChunkedUploader(s.links["w0"], chunk_bytes=128, window=1).upload(
            snapshot_state(), transfer_id=shards["transfer_id"],
        )
        s.coordinate("w4", 16)
        offer = s.send("w5", MessageType.JOIN, {"peer": "mem://w5"})
        assert [
            shard["owner"] for shard in offer["state_transfer"]["shards"]
        ] == ["w0", "w1"]
        s.send("w5", MessageType.STATE_FETCH, {
            "transfer_id": shards["transfer_id"], "complete": True,
        })
        assert s.status()["generation"] == 4

        # Uploader death: the plan's uploader is condemned before its
        # snapshot lands — abort, then its eviction commits instead.
        s.request(kind="scale_out", add=["w6"])
        s.link("w6").request(MessageType.JOIN, {"peer": "mem://w6"})
        assert s.coordinate("w0", 20)["upload"] is True
        s.silence("w0", alive=("w1", "w4", "w5", "w6"))
        kinds = [r["kind"] for r in s.master.journal.records()]
        assert kinds[-3:] == ["condemn", "abort", "request"]
        for worker in ("w1", "w4", "w5"):
            assert s.coordinate(worker, 24)["group"] == ["w1", "w4", "w5"]

        for worker in ("w1", "w4", "w5"):
            s.final(worker, 32)
        status = s.status()
        assert status["complete"] and status["generation"] == 5
        assert s.handled > 60
    finally:
        s.close()


# -- the golden record-kind sequence ------------------------------------------

#: what a fault-free in-memory 4→2→4 star job writes, final reports
#: aside (a worker's ``final`` races the others' ``ack``/``commit``):
#: ordered segments, split at the ``plan`` / ``commit`` markers — inside
#: a segment ``ack``s, the ``snapshot`` and the second ``request`` race.
GOLDEN_SEGMENTS = [
    ["init", "epoch", "request"] + ["progress"] * 4,
    ["plan"], ["ack"] * 4, ["commit"],
    ["progress"] * 3 + ["request"],
    ["plan"], ["ack", "ack", "snapshot"], ["commit"],
    ["progress"] * 4,
]


def test_fault_free_job_writes_the_golden_record_sequence():
    spec = JobSpec(
        iterations=48, coordination_interval=4, iteration_sleep=0.02,
        seed=7,
    )
    workers = ["w0", "w1", "w2", "w3"]
    job = LocalJob("memory", spec, workers)
    master = job.master
    driver = job.link("driver")

    def wait_for(predicate):
        deadline = time.monotonic() + 60.0
        while not predicate(driver.request(MessageType.STATUS)):
            assert time.monotonic() < deadline
            time.sleep(0.005)

    try:
        assert driver.request(MessageType.ADJUSTMENT_REQUEST, {
            "kind": "scale_in", "remove": ["w2", "w3"], "at_iteration": 16,
        })["accepted"]
        for worker in workers:
            job.start_worker(worker)
        wait_for(lambda status: status["adjustments_committed"] == 1)
        assert driver.request(MessageType.ADJUSTMENT_REQUEST, {
            "kind": "scale_out", "add": ["w2", "w3"], "at_iteration": 28,
        })["accepted"]
        job.start_worker("w2")
        job.start_worker("w3")
        finished = job.join(60.0)
        assert not job.errors, job.errors
        assert finished
        status = driver.request(MessageType.STATUS)
        assert status["complete"]
        assert len(set(status["digests"].values())) == 1
        assert_replay_matches(master)
        kinds = [r["kind"] for r in master.journal.records()]
    finally:
        job.close()

    assert len(kinds) == 32
    assert kinds.count("final") == 6
    # No final report precedes the first plan.
    assert "final" not in kinds[:kinds.index("plan")]
    ordered = iter(k for k in kinds if k != "final")
    for segment in GOLDEN_SEGMENTS:
        got = [next(ordered) for _ in segment]
        assert sorted(got) == sorted(segment), (segment, kinds)
    plans = [
        r["data"] for r in master.journal.records() if r["kind"] == "plan"
    ]
    assert [p["commit_iteration"] for p in plans] == [16, 28]


def test_promote_mid_ramp_ends_on_the_serial_replay():
    """A weak scale-out journals its batch schedule; replay ≡ live once
    it commits, and a successor promoted while the LR still ramps keeps
    shipping the same schedule: every replica ends on the digest of the
    serial replay of the journal."""
    spec = JobSpec(
        iterations=32, coordination_interval=4, iteration_sleep=0.02,
        seed=5, ring_enabled=False,
        scaling=ScalingSpec("weak", ramp_iterations=20),
    )
    job = LocalJob("memory", spec, ["w0", "w1"])
    driver = job.link("driver")

    def wait_for(predicate):
        deadline = time.monotonic() + 60.0
        while not predicate(driver.request(MessageType.STATUS)):
            assert time.monotonic() < deadline
            time.sleep(0.005)

    try:
        assert driver.request(MessageType.ADJUSTMENT_REQUEST, {
            "kind": "scale_out", "add": ["w2", "w3"], "at_iteration": 8,
        })["accepted"]
        for worker in ("w0", "w1", "w2", "w3"):
            job.start_worker(worker)
        wait_for(lambda status: status["adjustments_committed"] == 1)
        assert_replay_matches(job.master)
        (commit,) = [
            r["data"] for r in job.master.journal.records()
            if r["kind"] == "commit"
        ]
        ramp = BatchSchedule.from_payload(commit["schedule"]).lr_ramp
        wait_for(lambda status: status["iteration"] >= 12)
        successor = job.fail_over()
        assert successor.epoch == 2
        # The successor took over at a boundary inside the ramp.
        assert successor.state.progress < ramp.start_iteration + ramp.length
        finished = job.join(60.0)
        assert not job.errors, job.errors
        assert finished
        status = driver.request(MessageType.STATUS)
        assert_replay_matches(successor)
        records = successor.journal.records()
    finally:
        job.close()

    assert status["complete"]
    want = serial_replay(spec, records, spec.iterations)
    assert set(status["digests"].values()) == {want}
    assert len(status["digests"]) == 4
