"""End-to-end elastic jobs over both transports — the acceptance test.

The same chaos schedule (message drops + connection resets on one
worker) is replayed over the in-memory transport and over loopback TCP;
in both cases a scale-up commits mid-training with no message loss and
all replicas finish bit-identical.  One parametrized test body, two
transports — that is the point of the Transport seam.
"""

import threading
import time

import pytest

from repro.coordination.faults import FaultPlan
from repro.coordination.messages import MessageType
from repro.net import (
    ChunkedUploader,
    JobSpec,
    NetworkedApplicationMaster,
    RemoteError,
    RetryableError,
    master_service,
    memory_link,
    wire,
)
from repro.observability import MetricRegistry, Tracer

from .harness import Harness, wait_for_iteration

CHAOS_PLAN = FaultPlan(drop_every=9, connection_resets=(5, 17))


@pytest.fixture(params=["memory", "tcp"])
def transport(request):
    return request.param


class TestElasticJobOverBothTransports:
    def test_scale_up_commits_under_chaos(self, transport):
        """The ISSUE acceptance criterion: a scale-up adjustment commits
        with no message loss while one worker's connection is being
        reset and every 9th of its messages dropped — identically over
        the in-memory transport and loopback TCP."""
        spec = JobSpec(
            iterations=24, coordination_interval=4, iteration_sleep=0.01,
            allreduce_timeout=10.0, sync_ack_timeout=1.0,
            # Small chunks so the snapshot exercises the chunked data
            # plane (several STATE_CHUNKs + round-gated fetches) under
            # the same chaos schedule.
            chunk_bytes=1024,
        )
        harness = Harness(transport, spec, ["w0", "w1"])
        try:
            harness.start_worker("w0", link_options={"fault_plan": CHAOS_PLAN})
            harness.start_worker("w1")
            driver = harness.link("driver", ack_timeout=2.0)
            wait_for_iteration(driver, 4)
            reply = driver.request(
                MessageType.ADJUSTMENT_REQUEST,
                {"kind": "scale_out", "add": ["w2", "w3"]},
            )
            assert reply["accepted"] is True
            harness.start_worker("w2")
            harness.start_worker("w3")
            harness.join_all(timeout=60.0)

            status = driver.request(MessageType.STATUS)
            assert status["adjustments_committed"] == 1
            assert status["complete"]
            assert sorted(status["group"]) == ["w0", "w1", "w2", "w3"]
            # No message loss: every replica finished every iteration
            # and all four ended bit-identical.
            digests = status["digests"]
            assert len(digests) == 4
            assert len(set(digests.values())) == 1
            assert harness.results["w2"]["joined_at"] > 0
            assert harness.results["w0"]["iterations_run"] == spec.iterations
            # Every completed rendezvous was evicted once all members
            # collected the mean — no per-iteration gradient retention.
            assert not harness.master.barriers.open

            # The chaos actually happened on w0's transport.
            chaotic = harness.links["w0"].transport
            assert chaotic.reconnects >= 1
            assert harness.master.core.duplicates >= 0

            # The snapshot rode the chunked data plane exactly once:
            # the uploader (w0 — the chaotic worker) streamed each
            # chunk to exactly one handler execution, and both joiners
            # pulled every chunk back out through round-gated fetches.
            summary = harness.agents["w0"].upload_summary
            assert summary is not None
            chunks = summary["chunks"]
            assert chunks >= 2, summary
            core = harness.master.core
            assert core.executions[("w0", "state_chunk")] == chunks
            assert core.executions[("w0", "state_done")] == 1
            assert harness.master.replication.completed == 1
            snap = harness.master.metrics.snapshot()
            assert snap["net.chunks.received"] == chunks
            assert snap["net.chunks.served"] == 2 * chunks
            assert snap["net.transfers.completed"] == 1
            driver.close()
        finally:
            harness.close()

    def test_scale_in_departs_removed_worker(self, transport):
        spec = JobSpec(
            iterations=20, coordination_interval=4, iteration_sleep=0.01,
        )
        harness = Harness(transport, spec, ["w0", "w1", "w2"])
        try:
            for worker in ("w0", "w1", "w2"):
                harness.start_worker(worker)
            driver = harness.link("driver", ack_timeout=2.0)
            wait_for_iteration(driver, 4)
            reply = driver.request(
                MessageType.ADJUSTMENT_REQUEST,
                {"kind": "scale_in", "remove": ["w2"]},
            )
            assert reply["accepted"] is True
            harness.join_all(timeout=60.0)

            status = driver.request(MessageType.STATUS)
            assert status["adjustments_committed"] == 1
            assert status["complete"]
            assert sorted(status["group"]) == ["w0", "w1"]
            assert status["departed"] == ["w2"]
            assert len(set(status["digests"].values())) == 1
            assert harness.results["w2"]["removed"]
            driver.close()
        finally:
            harness.close()

    def test_exactly_once_counters_match_across_transports(self, transport):
        """Handler executions are per-(sender, type) exactly-once even
        with aggressive duplication on every worker."""
        spec = JobSpec(iterations=8, coordination_interval=4)
        plan = FaultPlan(duplicate_every=1)
        harness = Harness(transport, spec, ["w0", "w1"])
        try:
            harness.start_worker("w0", link_options={"fault_plan": plan})
            harness.start_worker("w1", link_options={"fault_plan": plan})
            harness.join_all(timeout=30.0)
            core = harness.master.core
            # Each worker: 1 join + 8 syncs + 1 coordinate (iter 4)
            # + 1 final upload, each executed exactly once.
            for worker in ("w0", "w1"):
                assert core.executions[(worker, "sync")] == 8
                assert core.executions[(worker, "coordinate")] == 1
                assert core.executions[(worker, "state_upload")] == 1
            assert core.duplicates > 0
        finally:
            harness.close()


class TestLeanSyncOnTheWire:
    def test_no_sync_and_no_mean_takes_the_generic_frame(self, monkeypatch):
        """A 4-worker star job over TCP trains through lean frames: no
        SYNC passes ``wire.message_frame`` and no mean reply passes
        ``wire.reply_frame``, while the other messages and every error
        reply still do — and the AM's ``net.recv`` still reads the
        sender's job and epoch off a lean SYNC."""
        framed, replied = [], []
        real_message_frame, real_reply_frame = (
            wire.message_frame, wire.reply_frame
        )

        def message_frame(message, *args, **kwargs):
            framed.append(message.msg_type)
            return real_message_frame(message, *args, **kwargs)

        def reply_frame(node_id, in_reply_to, payload, ctx=None):
            replied.append(payload)
            return real_reply_frame(node_id, in_reply_to, payload, ctx)

        monkeypatch.setattr(wire, "message_frame", message_frame)
        monkeypatch.setattr(wire, "reply_frame", reply_frame)
        workers = ["w0", "w1", "w2", "w3"]
        spec = JobSpec(iterations=8, coordination_interval=4)
        tracer = Tracer(process="am")
        harness = Harness(
            "tcp", spec, workers, job_id="lean-job", tracer=tracer
        )
        try:
            for worker in workers:
                harness.start_worker(worker)
            harness.join_all(timeout=60.0)
            status = harness.master.status()
            assert status["complete"]
            assert len(set(status["digests"].values())) == 1
            for worker in workers:
                assert harness.master.core.executions[(worker, "sync")] == 8
            assert MessageType.SYNC not in framed
            assert MessageType.COORDINATE in framed
            assert not [p for p in replied if "members" in p or "grads" in p]
            assert replied  # joins, coordinates, uploads

            driver = harness.link("driver")
            with pytest.raises(RemoteError, match="not in generation"):
                driver.request(MessageType.SYNC, {
                    "generation": 0, "iteration": 0, "grads": None,
                })
            assert MessageType.SYNC not in framed
            assert "not in generation" in replied[-1]["__error__"]
        finally:
            harness.close()
        recvs = [
            span.args for span in tracer.instants("net.recv")
            if span.args["type"] == "sync"
        ]
        fresh = [r for r in recvs if not r.get("duplicate")]
        assert len(fresh) == 8 * len(workers) + 1
        assert all(r["sender_epoch"] is not None for r in recvs)
        assert {r.get("job") for r in recvs} == {"lean-job", None}
        assert [r["sender"] for r in recvs if "job" not in r] == ["driver"]


class TestStarJoin:
    def test_star_joiners_pull_the_am_shard_in_round_order(self, transport):
        """A star job (no peer mesh) scales 1 -> 3.  Every offer is a
        shard plan of one owner-less shard; the AM serves each joiner
        every chunk once, nothing is re-planned, and the round-1 joiner
        is answered ``pending`` until the round-0 joiner reports its
        fetch complete."""
        spec = JobSpec(
            iterations=16, coordination_interval=4, iteration_sleep=0.01,
            allreduce_timeout=10.0, sync_ack_timeout=1.0, chunk_bytes=1024,
        )
        harness = Harness(transport, spec, ["w0"])
        replication = harness.master.replication
        take_offer, handle_fetch = (
            replication.take_offer, replication.handle_fetch
        )
        offers, log = {}, []
        turned_away = threading.Event()

        def recording_take_offer(worker, generation):
            offer = take_offer(worker, generation)
            if offer is not None:
                offers[worker] = offer
            return offer

        def gated_handle_fetch(worker, payload):
            complete = bool(payload.get("complete"))
            if complete and offers[worker]["state_transfer"]["round"] == 0:
                # Hold the round-0 report until the round-1 joiner has
                # been turned away at least once.
                turned_away.wait(10.0)
            reply = handle_fetch(worker, payload)
            if reply.get("status") == "pending":
                turned_away.set()
            log.append((worker, complete, reply.get("status")))
            return reply

        replication.take_offer = recording_take_offer
        replication.handle_fetch = gated_handle_fetch
        metrics = {w: MetricRegistry() for w in ("w1", "w2")}
        try:
            harness.start_worker("w0")
            driver = harness.link("driver", ack_timeout=2.0)
            wait_for_iteration(driver, 4)
            assert driver.request(
                MessageType.ADJUSTMENT_REQUEST,
                {"kind": "scale_out", "add": ["w1", "w2"]},
            )["accepted"] is True
            harness.start_worker("w1", metrics=metrics["w1"])
            harness.start_worker("w2", metrics=metrics["w2"])
            harness.join_all(timeout=60.0)
            status = driver.request(MessageType.STATUS)
            assert status["complete"]
            assert len(set(status["digests"].values())) == 1
            driver.close()

            assert sorted(offers) == ["w1", "w2"]
            for offer in offers.values():
                [shard] = offer["state_transfer"]["shards"]
                assert (shard["owner"], shard["addr"]) == (None, None)
            chunks = harness.agents["w0"].upload_summary["chunks"]
            snap = harness.master.metrics.snapshot()
            assert snap["net.chunks.served"] == chunks * 2
            assert snap["net.shards.joins_completed"] == 2
            for registry in metrics.values():
                fetched = registry.snapshot()
                assert fetched.get("net.shards.replans", 0) == 0
                assert fetched["net.shards.fetched"] == 1

            rounds = {
                w: o["state_transfer"]["round"] for w, o in offers.items()
            }
            first = min(rounds, key=rounds.get)
            later = max(rounds, key=rounds.get)
            assert (rounds[first], rounds[later]) == (0, 1)
            reported = log.index((first, True, None))
            pending = [
                i for i, (w, _, s) in enumerate(log)
                if w == later and s == "pending"
            ]
            served = [
                i for i, (w, _, s) in enumerate(log)
                if w == later and s is None
            ]
            assert pending and max(pending) < reported < min(served)
        finally:
            harness.close()


class TestJoinOfferLifecycle:
    """Join offers are single-use and generation-checked, so a worker id
    scaled out and back in can never be served a stale snapshot."""

    @staticmethod
    def _drive_to_adjust(net, worker, start=4):
        interval = net.spec.coordination_interval
        for iteration in range(start, start + 20 * interval, interval):
            reply = net._handle_coordinate(worker, iteration)
            if reply["kind"] == "adjust":
                return reply
        raise AssertionError("adjust directive never issued")

    @staticmethod
    def _snapshot():
        import numpy as np

        return {"params": {"w": np.zeros(2)}, "optimizer": {}, "loader": {}}

    def test_offer_is_consumed_on_first_join(self):
        spec = JobSpec(iterations=64, coordination_interval=4)
        net = NetworkedApplicationMaster(spec, ["w0"])
        assert net._handle_adjustment_request(
            {"kind": "scale_out", "add": ["w2"]}
        )["accepted"]
        assert net._handle_join("w2") == {"status": "pending"}
        reply = self._drive_to_adjust(net, "w0")
        assert reply["upload"]
        link = memory_link(net.core, "w0")
        ChunkedUploader(link).upload(self._snapshot())
        link.close()
        offer = net._handle_join("w2")
        assert offer["status"] == "join"
        assert offer["generation"] == 1
        # Consumed: nothing left to replay to a later incarnation.
        assert net.replication.offers == {}

    def test_stale_offer_is_dropped_not_served(self):
        spec = JobSpec(iterations=64, coordination_interval=4)
        net = NetworkedApplicationMaster(spec, ["w0"])
        net.state.generation = 3
        net.state.groups[3] = ("w0",)
        # An offer left over from generation 1 (its joiner never polled).
        net.replication.offers["w2"] = {"status": "join", "generation": 1}
        assert net._handle_join("w2") == {"status": "pending"}
        assert "w2" not in net.replication.offers

    def test_minting_a_new_plan_clears_predecessor_offers(self):
        spec = JobSpec(iterations=64, coordination_interval=4)
        net = NetworkedApplicationMaster(spec, ["w0"])
        net.replication.offers["w2"] = {"status": "join", "generation": 5}
        assert net._handle_adjustment_request(
            {"kind": "scale_out", "add": ["w2"]}
        )["accepted"]
        net._handle_join("w2")
        reply = self._drive_to_adjust(net, "w0")
        assert reply["kind"] == "adjust"
        # The stale offer died at mint time; w2 now waits for the new
        # plan's snapshot.
        assert "w2" not in net.replication.offers


class TestHeldJoin:
    """The AM holds a ``JOIN`` it cannot answer yet instead of replying
    ``pending`` at once; the joiner therefore never sleeps between asks."""

    @staticmethod
    def _recording(net):
        """Wrap the AM's handler: ``entered`` is set when a JOIN starts
        executing, ``answers`` collects (sender, type, reply)."""
        answers, entered = [], threading.Event()
        handler = net.core.handler

        def recording(message):
            if message.msg_type is MessageType.JOIN:
                entered.set()
            reply = handler(message)
            answers.append((message.sender, message.msg_type, reply))
            return reply

        net.core.handler = recording
        return answers, entered

    def test_join_held_until_the_snapshot_lands_gets_the_offer(
        self, monkeypatch
    ):
        # Long enough that the upload below lands inside the hold on a
        # loaded host; the memory link waits on its own thread anyway.
        monkeypatch.setattr(master_service, "HOLD_SECONDS", 5.0)
        spec = JobSpec(iterations=64, coordination_interval=4)
        net = NetworkedApplicationMaster(spec, ["w0"])
        assert net._handle_adjustment_request(
            {"kind": "scale_out", "add": ["w2"]}
        )["accepted"]
        net._handle_join("w2")  # the report: the plan can be minted
        assert TestJoinOfferLifecycle._drive_to_adjust(net, "w0")["upload"]
        answers, entered = self._recording(net)
        joiner = memory_link(net.core, "w2")
        replies = []
        asking = threading.Thread(
            target=lambda: replies.append(
                joiner.request(MessageType.JOIN, {})
            ),
            daemon=True,
        )
        asking.start()
        assert entered.wait(5.0)
        uploader = memory_link(net.core, "w0")
        ChunkedUploader(uploader).upload(TestJoinOfferLifecycle._snapshot())
        asking.join(timeout=10.0)
        assert not asking.is_alive()
        assert replies[0]["status"] == "join"
        assert replies[0]["generation"] == 1
        # one JOIN, answered with the offer: no pending went out
        assert net.core.executions[("w2", "join")] == 1
        assert [
            reply["status"] for sender, kind, reply in answers
            if kind is MessageType.JOIN
        ] == ["join"]
        joiner.close()
        uploader.close()
        net.close()

    def test_join_nobody_expects_is_pending_after_the_hold(self):
        spec = JobSpec(iterations=64, coordination_interval=4)
        net = NetworkedApplicationMaster(spec, ["w0"])
        answers, _ = self._recording(net)
        stranger = memory_link(net.core, "w9")
        started = time.monotonic()
        reply = stranger.request(MessageType.JOIN, {})
        held = time.monotonic() - started
        assert reply == {"status": "pending"}
        # held for the whole hold (not answered at once), then answered
        assert held >= master_service.HOLD_SECONDS
        assert net.core.executions[("w9", "join")] == 1
        assert [reply for _, _, reply in answers] == [{"status": "pending"}]
        stranger.close()
        net.close()

    def test_accepted_request_wakes_a_held_join_to_report(self, monkeypatch):
        """A JOIN held before the request lands files its worker-report
        the moment the request is accepted."""
        monkeypatch.setattr(master_service, "HOLD_SECONDS", 5.0)
        spec = JobSpec(iterations=64, coordination_interval=4)
        net = NetworkedApplicationMaster(spec, ["w0"])
        _, entered = self._recording(net)
        joiner = memory_link(net.core, "w2")
        errors = []

        def ask():
            try:
                joiner.request(MessageType.JOIN, {})
            except RetryableError as exc:
                errors.append(exc.reason)

        asking = threading.Thread(target=ask, daemon=True)
        asking.start()
        assert entered.wait(5.0)
        assert net._handle_adjustment_request(
            {"kind": "scale_out", "add": ["w2"]}
        )["accepted"]
        deadline = time.monotonic() + 5.0
        while not net._pending.reported:
            assert time.monotonic() < deadline
            time.sleep(0.005)
        assert net._pending.reported == {"w2"}
        assert asking.is_alive()  # reported, and still held
        net.abandon()  # a fenced AM stops holding at once
        asking.join(timeout=5.0)
        assert not asking.is_alive()
        assert errors == ["am_superseded"]
        assert net.core.executions[("w2", "join")] == 1
        joiner.close()


class TestStatusWaitingOn:
    def test_status_says_what_the_am_is_waiting_on(self):
        """``waiting_on`` names the members an open barrier lacks and,
        for an in-flight plan, who has not acked, whether the snapshot
        arrived and which joiners have not fetched it."""
        spec = JobSpec(iterations=64, coordination_interval=4,
                       allreduce_timeout=5.0)
        net = NetworkedApplicationMaster(spec, ["w0", "w1"])
        assert net.status()["waiting_on"] == {"barriers": [], "plan": None}

        parked = threading.Thread(
            target=net.barriers.sync,
            args=("w0", {"generation": 0, "iteration": 3, "grads": None}),
            daemon=True,
        )
        parked.start()
        deadline = time.monotonic() + 5.0
        while not net.status()["waiting_on"]["barriers"]:
            assert time.monotonic() < deadline
            time.sleep(0.005)
        assert net.status()["waiting_on"]["barriers"] == [
            {"generation": 0, "iteration": 3, "missing": ["w1"]},
        ]
        net.barriers.sync(
            "w1", {"generation": 0, "iteration": 3, "grads": None}
        )
        parked.join(timeout=5.0)
        assert not parked.is_alive()

        assert net._handle_adjustment_request(
            {"kind": "scale_out", "add": ["w2"]}
        )["accepted"]
        assert net._handle_join("w2") == {"status": "pending"}
        assert net._handle_coordinate("w0", 4)["upload"]
        waiting = net.status()["waiting_on"]
        assert waiting["barriers"] == []
        assert waiting["plan"] == {
            "generation": 1, "unacked": ["w1"], "uploader": "w0",
            "snapshot": False, "unfetched": ["w2"],
        }

        link = memory_link(net.core, "w0")
        ChunkedUploader(link).upload(
            TestJoinOfferLifecycle._snapshot()
        )
        link.close()
        waiting = net.status()["waiting_on"]["plan"]
        assert waiting["snapshot"] is True and waiting["unacked"] == ["w1"]
        net._handle_coordinate("w1", 4)
        assert net.status()["waiting_on"]["plan"] is None
        net.close()
