"""AM failover: journal replay, fencing, and in-flight plan recovery.

Manual protocol drives over the in-memory transport — each test plays
both sides of the wire so the exact crash point is under test control:
the primary is abandoned mid-adjustment and a successor is rebuilt with
:meth:`NetworkedApplicationMaster.from_journal`, after which the
workers' links are redirected (the in-memory stand-in for re-resolving
the AM endpoint) and the protocol must finish what the predecessor
started — or abort it cleanly.  The last test takes over on the
predecessor's own TCP port through :func:`~repro.net.job.promote`.
"""

import numpy as np
import pytest

from repro.coordination.messages import MessageType
from repro.net import (
    ChunkedUploader,
    JobSpec,
    NetworkedApplicationMaster,
    RetryableError,
    StateBlob,
    memory_link,
    promote,
    tcp_link,
)


def make_spec(**overrides):
    # ring_enabled=False keeps the drives star-only: no peer addresses
    # to advertise, no ring payloads to install.
    defaults = dict(
        iterations=8, coordination_interval=4, iteration_sleep=0.0,
        ring_enabled=False,
    )
    defaults.update(overrides)
    return JobSpec(**defaults)


class Cluster:
    """One AM plus hand-driven worker links (no WorkerAgent threads)."""

    def __init__(self, spec, workers):
        self.spec = spec
        self.master = NetworkedApplicationMaster(spec, workers)
        self.links = {w: memory_link(self.master.core, w) for w in workers}
        self.driver = memory_link(self.master.core, "driver")

    def join_all(self):
        replies = {
            w: link.request(MessageType.JOIN, {})
            for w, link in self.links.items()
        }
        for reply in replies.values():
            assert reply["status"] == "start"
            assert reply["epoch"] == self.master.epoch
        return replies

    def fail_over(self):
        """Kill the primary, promote a journal-replayed successor."""
        old = self.master
        old.abandon()
        successor = NetworkedApplicationMaster.from_journal(old.journal)
        for link in list(self.links.values()) + [self.driver]:
            link.transport.redirect(successor.core)
        self.master = successor
        return successor

    def coordinate(self, worker, iteration):
        return self.links[worker].request(
            MessageType.COORDINATE,
            {"iteration": iteration, "ring_epoch": -1},
        )

    def final(self, worker, iteration, digest, removed=False):
        return self.links[worker].request(
            MessageType.STATE_UPLOAD,
            {"final": True, "iteration": iteration, "digest": digest,
             "removed": removed},
        )

    def close(self):
        for link in list(self.links.values()) + [self.driver]:
            link.close()
        self.master.close()


@pytest.fixture
def cluster():
    c = Cluster(make_spec(), ["w0", "w1", "w2"])
    yield c
    c.close()


class TestFailover:
    def test_scale_in_plan_survives_failover(self, cluster):
        """A scale-in accepted (and partially acked) by the primary is
        completed by the successor: the journaled request, plan and ack
        reconstruct the commit, and the job finishes on the shrunk
        group with the predecessor's commitments intact."""
        cluster.join_all()
        reply = cluster.driver.request(
            MessageType.ADJUSTMENT_REQUEST,
            {"kind": "scale_in", "remove": ["w2"]},
        )
        assert reply["accepted"] is True
        # w0 reaches the boundary first and acks the directive on the
        # *primary*; the crash happens with that ack journaled.
        directive = cluster.coordinate("w0", 4)
        assert directive["kind"] == "adjust"
        assert directive["group"] == ["w0", "w1"]
        assert directive["upload"] is False  # scale-in replicates nothing

        successor = cluster.fail_over()
        assert successor.epoch == 2

        # The remaining old-group members ack on the successor; their
        # directives must match what the primary handed w0.
        for worker in ("w1", "w2"):
            directive = cluster.coordinate(worker, 4)
            assert directive["kind"] == "adjust", (worker, directive)
            assert directive["group"] == ["w0", "w1"]

        status = cluster.driver.request(MessageType.STATUS)
        assert status["epoch"] == 2
        assert status["generation"] == 1
        assert status["adjustments_committed"] == 1
        assert status["group"] == ["w0", "w1"]
        assert not status["adjustment_pending"]

        cluster.final("w2", 4, None, removed=True)
        cluster.final("w0", 8, "d1")
        cluster.final("w1", 8, "d1")
        status = cluster.driver.request(MessageType.STATUS)
        assert status["complete"]
        assert status["digests"] == {"w0": "d1", "w1": "d1"}
        assert status["departed"] == ["w2"]

    def test_fenced_predecessor_rejects_with_retryable_error(self, cluster):
        """After abandon() every request to the old incarnation gets the
        structured am_superseded error — the signal a worker uses to
        back off and re-enroll, never a silent timeout."""
        cluster.join_all()
        cluster.master.abandon()
        with pytest.raises(RetryableError) as excinfo:
            cluster.driver.request(MessageType.STATUS)
        assert excinfo.value.reason == "am_superseded"

    def test_pending_request_without_plan_is_re_driven(self, cluster):
        """An accepted scale-out whose joiner never arrived before the
        crash is still pending on the successor — the journaled request
        is re-driven, not forgotten."""
        cluster.join_all()
        assert cluster.driver.request(
            MessageType.ADJUSTMENT_REQUEST,
            {"kind": "scale_out", "add": ["w3"]},
        )["accepted"] is True

        cluster.fail_over()
        status = cluster.driver.request(MessageType.STATUS)
        assert status["adjustment_pending"], status
        assert status["generation"] == 0

    def test_scale_out_plan_reinstated_demands_reupload(self):
        """If the primary dies after minting a scale-out plan but before
        the snapshot record landed, the successor reinstates the plan
        and the (live) uploader is told to upload again."""
        cluster = Cluster(make_spec(), ["w0", "w1"])
        try:
            cluster.join_all()
            assert cluster.driver.request(
                MessageType.ADJUSTMENT_REQUEST,
                {"kind": "scale_out", "add": ["w2"]},
            )["accepted"] is True
            # The joiner's first JOIN poll doubles as its worker-report,
            # which schedules the commit at the next boundary.
            joiner = memory_link(cluster.master.core, "w2")
            cluster.links["w2"] = joiner
            assert joiner.request(MessageType.JOIN, {}) == {
                "status": "pending"
            }
            directive = cluster.coordinate("w0", 4)
            assert directive["kind"] == "adjust"
            assert directive["upload"] is True  # w0 is old_group[0]

            successor = cluster.fail_over()
            # The plan survived, but the snapshot died with the primary:
            # the uploader's (retransmitted) coordinate demands it anew.
            directive = cluster.coordinate("w0", 4)
            assert directive["kind"] == "adjust"
            assert directive["upload"] is True
            status = cluster.driver.request(MessageType.STATUS)
            assert status["adjustment_pending"]

            # The upload resumes on the successor instead of restarting:
            # a mid-stream chunk opens its intake, STATE_DONE lists the
            # seqs it still lacks, and a ghost transfer is refused.
            link = cluster.links["w0"]
            blob = StateBlob.encode(
                {"params": {"w": np.arange(64.0)}}, chunk_bytes=128
            )
            base = blob.describe("w0/upload")

            def chunk(seq, transfer_id="w0/upload"):
                return dict(
                    base, transfer_id=transfer_id, seq=seq,
                    digest=blob.chunk_digest(seq), data=blob.chunk(seq),
                )

            assert link.request(MessageType.STATE_CHUNK, chunk(3))["ok"]
            assert link.request(MessageType.STATE_DONE, dict(base)) == {
                "ok": False, "reason": "incomplete",
                "missing": [s for s in range(blob.total_chunks) if s != 3],
            }
            ghost = link.request(MessageType.STATE_CHUNK, chunk(0, "ghost"))
            assert ghost == {
                "ok": False, "reason": "transfer 'w0/upload' in flight",
            }
            assert successor.epoch == 2
        finally:
            cluster.close()

    def test_plan_aborted_when_uploader_condemned(self):
        """A scale-out whose elected uploader was condemned before the
        snapshot landed can never replicate: the successor aborts it
        back to the last committed generation instead of wedging the
        joiner forever."""
        cluster = Cluster(make_spec(), ["w0", "w1"])
        try:
            cluster.join_all()
            assert cluster.driver.request(
                MessageType.ADJUSTMENT_REQUEST,
                {"kind": "scale_out", "add": ["w2"]},
            )["accepted"] is True
            joiner = memory_link(cluster.master.core, "w2")
            cluster.links["w2"] = joiner
            joiner.request(MessageType.JOIN, {})
            assert cluster.coordinate("w0", 4)["upload"] is True
            # The uploader's lease expired just before the crash.
            cluster.master.journal.append("condemn", worker="w0")

            successor = cluster.fail_over()
            assert successor.metrics.snapshot().get(
                "am.plans_aborted", 0
            ) == 1
            status = cluster.driver.request(MessageType.STATUS)
            assert status["generation"] == 0
            assert "w0" in status["condemned"]
        finally:
            cluster.close()

    def test_enroll_verdicts(self, cluster):
        """ENROLL answers with the successor's epoch and a verdict: ok
        for members, evicted for the condemned, unknown for strangers."""
        cluster.join_all()
        successor = cluster.fail_over()
        reply = cluster.links["w0"].request(
            MessageType.ENROLL,
            {"generation": 0, "iteration": 4, "ring_epoch": -1},
        )
        assert reply == {
            "epoch": 2, "generation": 0, "status": "ok", "job": "netjob",
        }

        # What a predecessor's lease sweep would have left behind.
        successor._record("condemn", worker="w1")
        reply = cluster.links["w1"].request(
            MessageType.ENROLL, {"generation": 0, "iteration": 4},
        )
        assert reply["status"] == "evicted"

        stranger = memory_link(successor.core, "w9")
        try:
            reply = stranger.request(
                MessageType.ENROLL, {"generation": 0, "iteration": 0},
            )
            assert reply["status"] == "unknown"
        finally:
            stranger.close()

    def test_enrollment_records_peer_address(self, cluster):
        """An ENROLL carrying a peer address registers it with the
        successor — the mesh survives failover even for workers whose
        JOIN-time advertisement predates the journal horizon."""
        cluster.join_all()
        successor = cluster.fail_over()
        cluster.links["w0"].request(
            MessageType.ENROLL,
            {"generation": 0, "iteration": 4, "peer": "127.0.0.1:9999"},
        )
        assert successor.state.peers["w0"] == "127.0.0.1:9999"
        assert successor.metrics.snapshot().get("am.enrollments", 0) == 1

    def test_double_failover_keeps_raising_the_epoch(self, cluster):
        """Failover composes: a successor of a successor fences both
        predecessors out (epoch is max-monotone over the journal)."""
        cluster.join_all()
        cluster.fail_over()
        third = cluster.fail_over()
        assert third.epoch == 3
        status = cluster.driver.request(MessageType.STATUS)
        assert status["epoch"] == 3
        assert status["group"] == ["w0", "w1", "w2"]


class TestShardedPlanFailover:
    """The elected shard owners ride the ``plan`` record, so a plan
    minted sharded stays sharded across a failover."""

    @staticmethod
    def _mint(cluster):
        """Scale w3 out under ``replication_shards=2`` up to the first
        directive: w0 is told to upload, w0/w1 are the elected owners."""
        for worker, link in cluster.links.items():
            reply = link.request(MessageType.JOIN, {"peer": f"mem://{worker}"})
            assert reply["status"] == "start"
        assert cluster.driver.request(
            MessageType.ADJUSTMENT_REQUEST,
            {"kind": "scale_out", "add": ["w3"]},
        )["accepted"] is True
        cluster.links["w3"] = memory_link(cluster.master.core, "w3")
        assert cluster.links["w3"].request(
            MessageType.JOIN, {"peer": "mem://w3"}
        ) == {"status": "pending"}
        directive = cluster.coordinate("w0", 4)
        assert directive["upload"] is True
        assert directive["shards"] == {
            "transfer_id": "shard/g1", "owners": ["w0", "w1"], "count": 2,
        }
        return directive["shards"]

    @staticmethod
    def _upload(cluster, transfer_id):
        import numpy as np

        state = {"params": {"w": np.arange(64.0)}, "optimizer": {},
                 "loader": {}}
        ChunkedUploader(cluster.links["w0"], chunk_bytes=128).upload(
            state, transfer_id=transfer_id,
        )

    def test_sharded_plan_survives_failover(self):
        cluster = Cluster(
            make_spec(replication_shards=2), ["w0", "w1", "w2"]
        )
        try:
            shards = self._mint(cluster)
            successor = cluster.fail_over()
            # A late-coordinating owner must still be told to freeze its
            # blob, under the very transfer id the uploader was given.
            directive = cluster.coordinate("w1", 4)
            assert directive["kind"] == "adjust"
            assert directive["shards"] == shards
            cluster.coordinate("w2", 4)
            self._upload(cluster, shards["transfer_id"])
            assert successor.metrics.snapshot()["net.shards.planned"] == 2
            offer = cluster.links["w3"].request(
                MessageType.JOIN, {"peer": "mem://w3"}
            )
            assert offer["status"] == "join"
            plan = offer["state_transfer"]["shards"]
            assert [s["owner"] for s in plan] == ["w0", "w1"]
            assert [s["addr"] for s in plan] == ["mem://w0", "mem://w1"]
            status = cluster.driver.request(MessageType.STATUS)
            assert status["adjustments_committed"] == 1
        finally:
            cluster.close()

    def test_condemned_owner_is_dropped_from_the_shard_plan(self):
        """The inverse: an owner condemned before STATE_DONE is not
        offered to joiners — on the primary and on a successor alike."""
        cluster = Cluster(
            make_spec(replication_shards=2), ["w0", "w1", "w2"]
        )
        try:
            shards = self._mint(cluster)
            with cluster.master._lock:
                cluster.master._record("condemn", worker="w1")
            cluster.fail_over()
            cluster.coordinate("w2", 4)
            self._upload(cluster, shards["transfer_id"])
            offer = cluster.links["w3"].request(
                MessageType.JOIN, {"peer": "mem://w3"}
            )
            plan = offer["state_transfer"]["shards"]
            assert [s["owner"] for s in plan] == ["w0"]
        finally:
            cluster.close()


class TestSamePortTakeover:
    def test_promote_rebinds_the_old_endpoint(self):
        """The multiprocess job's takeover: the successor serves the
        predecessor's own port, so a TCP client redials and is answered
        by epoch 2 without ever learning a new endpoint."""
        master = NetworkedApplicationMaster(make_spec(), ["w0"])
        server = master.serve_tcp()
        endpoint = (server.host, server.port)
        link, transport = tcp_link(*endpoint, "driver", ack_timeout=0.5)
        try:
            assert link.request(MessageType.STATUS)["epoch"] == 1
            master = promote(master, master.journal, endpoint=endpoint)
            assert link.request(MessageType.STATUS)["epoch"] == 2
            assert transport.endpoints == [endpoint]
        finally:
            link.close()
            master.close()
