"""The chunked replication data plane: slicing, resume, fan-out rounds.

A connection reset in the middle of a chunked snapshot upload must
resume from the last acked chunk — never restart from scratch, never
re-execute a chunk handler — identically over the in-memory transport
and loopback TCP.  The uploads here stream into the AM's own intake.
"""

import threading
import time

import numpy as np
import pytest

from repro.coordination.faults import FaultPlan
from repro.coordination.messages import MessageType
from repro.net import (
    ChunkAssembler,
    ChunkedUploader,
    JobSpec,
    NetworkedApplicationMaster,
    StateBlob,
    TcpServer,
    WireError,
    memory_link,
    tcp_link,
)
from repro.net.chunks import decode_state_blob
from repro.net.replication_gate import _fanout_rounds
from repro.observability import MetricRegistry


def sample_state(floats=1024, seed=3):
    rng = np.random.default_rng(seed)
    return {
        "params": {
            "w": rng.random((floats // 2, 2)),
            "b": rng.random(8, dtype=np.float32),
            "empty": np.zeros(0, dtype=np.float16),
        },
        "optimizer": {"lr": 0.05, "velocity": {"w": rng.random(16)}},
        "loader": {"cursor": 40, "epoch": 1},
    }


def assert_states_equal(a, b):
    np.testing.assert_array_equal(a["params"]["w"], b["params"]["w"])
    np.testing.assert_array_equal(a["params"]["b"], b["params"]["b"])
    assert a["params"]["b"].dtype == b["params"]["b"].dtype
    assert a["params"]["empty"].shape == b["params"]["empty"].shape
    np.testing.assert_array_equal(
        a["optimizer"]["velocity"]["w"], b["optimizer"]["velocity"]["w"]
    )
    assert a["loader"] == b["loader"]


class TestStateBlob:
    def test_chunks_cover_blob_exactly_once(self):
        blob = StateBlob.encode(sample_state(), chunk_bytes=100)
        joined = b"".join(bytes(blob.chunk(s)) for s in range(blob.total_chunks))
        assert len(joined) == blob.total_bytes
        assert decode_state_blob(joined)  # whole blob decodes
        assert blob.total_chunks == -(-blob.total_bytes // 100)

    def test_decode_round_trip(self):
        state = sample_state()
        blob = StateBlob.encode(state, chunk_bytes=256)
        joined = bytearray()
        for seq in range(blob.total_chunks):
            joined.extend(bytes(blob.chunk(seq)))
        assert_states_equal(decode_state_blob(joined), state)

    def test_segments_view_live_arrays_without_copying(self):
        state = sample_state()
        blob = StateBlob.encode(state, chunk_bytes=1 << 20)
        before = bytes(blob.chunk(0))
        state["params"]["w"][0, 0] += 1.0
        # The blob's segments are views over the live tensors — the
        # mutation shows through, proving encode took no copy.
        assert bytes(blob.chunk(0)) != before

    def test_truncated_blob_raises(self):
        blob = StateBlob.encode(sample_state(), chunk_bytes=128)
        whole = b"".join(bytes(blob.chunk(s)) for s in range(blob.total_chunks))
        with pytest.raises(WireError):
            decode_state_blob(whole[:-10])


class TestChunkAssembler:
    def make(self, chunk_bytes=64, floats=64):
        blob = StateBlob.encode(sample_state(floats), chunk_bytes=chunk_bytes)
        assembler = ChunkAssembler(
            "t1", blob.total_bytes, blob.total_chunks, chunk_bytes
        )
        return blob, assembler

    def test_out_of_order_assembly_verifies(self):
        blob, assembler = self.make()
        order = list(range(blob.total_chunks))[::-1]
        for seq in order:
            assert assembler.add(seq, blob.chunk(seq), blob.chunk_digest(seq))
        assert assembler.complete
        assert bytes(assembler.finish(blob.digest)) == b"".join(
            bytes(blob.chunk(s)) for s in range(blob.total_chunks)
        )

    def test_duplicates_counted_not_reapplied(self):
        blob, assembler = self.make()
        assert assembler.add(0, blob.chunk(0))
        assert not assembler.add(0, blob.chunk(0))
        assert assembler.duplicates == 1
        assert len(assembler.received) == 1

    def test_corrupt_chunk_digest_raises(self):
        blob, assembler = self.make()
        with pytest.raises(WireError, match="digest"):
            assembler.add(0, blob.chunk(0), "0" * 64)

    def test_wrong_length_chunk_raises(self):
        blob, assembler = self.make()
        with pytest.raises(WireError, match="bytes"):
            assembler.add(0, bytes(blob.chunk(0)) + b"x")

    def test_incomplete_finish_raises(self):
        blob, assembler = self.make()
        assembler.add(0, blob.chunk(0))
        with pytest.raises(WireError, match="incomplete"):
            assembler.finish()

    def test_bad_geometry_raises(self):
        with pytest.raises(WireError, match="chunks"):
            ChunkAssembler("t1", total_bytes=1000, total_chunks=3,
                           chunk_bytes=100)

    def test_whole_blob_digest_mismatch_raises(self):
        blob, assembler = self.make()
        for seq in range(blob.total_chunks):
            assembler.add(seq, blob.chunk(seq))
        with pytest.raises(WireError, match="digest"):
            assembler.finish("f" * 64)


def adjusting_master(joiners=("w2",), metrics=None):
    """An AM mid scale-out of ``["w0"]``: w0 is the elected uploader."""
    spec = JobSpec(iterations=64, coordination_interval=4, chunk_bytes=256)
    net = NetworkedApplicationMaster(spec, ["w0"], metrics=metrics)
    assert net._handle_adjustment_request(
        {"kind": "scale_out", "add": list(joiners)}
    )["accepted"]
    for joiner in joiners:
        net._handle_join(joiner)
    for iteration in range(4, 400, 4):
        if net._handle_coordinate("w0", iteration)["kind"] == "adjust":
            break
    return net


def landed(net, summary):
    """The snapshot ``summary``'s upload journaled, decoded."""
    snapshot = net.state.last_snapshot
    assert snapshot["transfer_id"] == summary["transfer_id"]
    assert snapshot["digest"] == summary["digest"]
    return decode_state_blob(snapshot["blob"])


@pytest.fixture(params=["memory", "tcp"])
def transport(request):
    return request.param


def make_link(transport, core, node_id, fault_plan=None):
    """(link, transport_obj, cleanup) for either side of the seam."""
    if transport == "tcp":
        server = TcpServer(core).start()
        link, tcp_transport = tcp_link(
            server.host, server.port, node_id, fault_plan=fault_plan,
            ack_timeout=0.5, heartbeat_interval=None,
        )
        def cleanup():
            link.close()
            server.close()
        return link, tcp_transport, cleanup
    link = memory_link(core, node_id, fault_plan=fault_plan, ack_timeout=0.5)
    return link, link.transport, link.close


class TestChunkedUploadOverBothTransports:
    def test_pipelined_upload_round_trip(self, transport):
        net = adjusting_master()
        link, _, cleanup = make_link(transport, net.core, "w0")
        try:
            state = sample_state()
            summary = ChunkedUploader(
                link, chunk_bytes=512, window=4
            ).upload(state)
            assert summary["chunks"] > 4
            assert_states_equal(landed(net, summary), state)
            # Exactly-once even with four requests in flight at a time.
            assert net.core.executions[("w0", "state_chunk")] == summary["chunks"]
            assert summary["reply"]["duplicates"] == 0
        finally:
            cleanup()
            net.close()

    def test_reset_mid_upload_resumes_from_last_acked_chunk(self, transport):
        """The reset kills chunk 3 in flight; the resend delivers chunk
        3 and the upload continues — chunks 1-2 are never resent and no
        chunk handler runs twice."""
        net = adjusting_master()
        plan = FaultPlan(connection_resets=(3,))
        link, transport_obj, cleanup = make_link(
            transport, net.core, "w0", fault_plan=plan
        )
        try:
            state = sample_state()
            summary = ChunkedUploader(
                link, chunk_bytes=512, window=1  # serial: faults land on
                # exact chunk indices
            ).upload(state)
            total = summary["chunks"]
            assert total >= 6
            # Every chunk's handler executed exactly once: acked chunks
            # were never retransmitted, the transfer was not restarted.
            assert net.core.executions[("w0", "state_chunk")] == total
            assert net.core.executions[("w0", "state_done")] == 1
            assert summary["reply"]["duplicates"] == 0
            # The fault actually fired and was recovered.
            assert transport_obj.reconnects >= 1
            assert link.resends >= 1
            assert_states_equal(landed(net, summary), state)
        finally:
            cleanup()
            net.close()

    def test_aggressive_duplication_never_reapplies_chunks(self, transport):
        net = adjusting_master()
        plan = FaultPlan(duplicate_every=1)
        link, _, cleanup = make_link(
            transport, net.core, "w0", fault_plan=plan
        )
        try:
            state = sample_state()
            summary = ChunkedUploader(link, chunk_bytes=512).upload(state)
            assert net.core.executions[("w0", "state_chunk")] == summary["chunks"]
            assert net.core.duplicates > 0  # dedup absorbed the copies
            assert summary["reply"]["duplicates"] == 0  # none reached the buffer
            assert_states_equal(landed(net, summary), state)
        finally:
            cleanup()
            net.close()

    def test_done_before_complete_reports_missing(self, transport):
        net = adjusting_master()
        link, _, cleanup = make_link(transport, net.core, "w0")
        try:
            blob = StateBlob.encode(sample_state(), chunk_bytes=512)
            base = blob.describe("t-incomplete")
            payload = dict(
                base, seq=0, digest=blob.chunk_digest(0), data=blob.chunk(0)
            )
            assert link.request(MessageType.STATE_CHUNK, payload)["ok"]
            reply = link.request(MessageType.STATE_DONE, dict(base))
            assert reply["ok"] is False
            assert reply["missing"] == list(range(1, blob.total_chunks))
            assert net.state.last_snapshot is None
        finally:
            cleanup()
            net.close()


class TestFanoutRounds:
    def test_single_source_serializes_then_chains(self):
        rounds = _fanout_rounds(["w0"], ["w2", "w3", "w4"], 1 << 20)
        assert set(rounds) == {"w2", "w3", "w4"}
        # One joiner copies first; chaining then lets the fresh replica
        # help, so the remaining two go in the next round together.
        by_round = sorted(rounds.values())
        assert by_round[0] == 0
        assert by_round.count(0) == 1
        assert max(by_round) >= 1

    def test_multiple_sources_fan_out_concurrently(self):
        rounds = _fanout_rounds(["w0", "w1"], ["w2", "w3"], 1 << 20)
        # Two sources, two joiners, disjoint NIC pairs: one round.
        assert set(rounds.values()) == {0}


class TestMasterChunkProtocol:
    """The AM side: upload gating, round-gated fetches, cleanup."""

    def _upload(self, net, state, transfer_id="t-up", worker="w0"):
        blob = StateBlob.encode(
            state, chunk_bytes=net.spec.chunk_bytes
        )
        base = blob.describe(transfer_id)
        for seq in range(blob.total_chunks):
            reply = net.replication.handle_chunk(worker, dict(
                base, seq=seq, digest=blob.chunk_digest(seq),
                data=blob.chunk(seq),
            ))
            assert reply["ok"], reply
        reply = net.replication.handle_done(worker, dict(base))
        assert reply["ok"], reply
        return blob

    def test_only_the_elected_uploader_may_stream(self):
        net = adjusting_master()
        blob = StateBlob.encode(sample_state(), chunk_bytes=256)
        payload = dict(
            blob.describe("t-x"), seq=0, digest=blob.chunk_digest(0),
            data=blob.chunk(0),
        )
        assert net.replication.handle_chunk("w9", payload) == {
            "ok": False, "reason": "no snapshot expected",
        }

    def test_offers_carry_descriptor_and_round(self):
        net = adjusting_master(joiners=("w2", "w3", "w4"))
        state = sample_state()
        blob = self._upload(net, state)
        for joiner in ("w2", "w3", "w4"):
            offer = net._handle_join(joiner)
            assert offer["status"] == "join"
            descriptor = offer["state_transfer"]
            assert "state" not in offer  # no inline snapshot any more
            assert descriptor["total_chunks"] == blob.total_chunks
            assert descriptor["digest"] == blob.digest
            assert descriptor["round"] >= 0
            # No owner was elected: one owner-less shard, the whole
            # blob, under the digest the AM verified at STATE_DONE.
            [shard] = descriptor["shards"]
            assert (shard["owner"], shard["addr"]) == (None, None)
            assert shard["digest"] == blob.digest
            assert (shard["start_chunk"], shard["end_chunk"]) == (
                0, blob.total_chunks
            )

    def test_fetches_are_gated_by_planner_rounds(self):
        net = adjusting_master(joiners=("w2", "w3", "w4"))
        state = sample_state()
        blob = self._upload(net, state)
        offers = {j: net._handle_join(j) for j in ("w2", "w3", "w4")}
        rounds = {
            j: o["state_transfer"]["round"] for j, o in offers.items()
        }
        first = min(rounds, key=rounds.get)
        later = [j for j in rounds if rounds[j] > rounds[first]]
        assert later, rounds
        transfer_id = offers[first]["state_transfer"]["transfer_id"]
        # A later-round joiner is told to wait while round 0 is copying.
        assert net.replication.handle_fetch(
            later[0], {"transfer_id": transfer_id, "seq": 0}
        ) == {"status": "pending"}
        # Round 0 fetches everything...
        collected = bytearray()
        for seq in range(blob.total_chunks):
            reply = net.replication.handle_fetch(
                first, {"transfer_id": transfer_id, "seq": seq}
            )
            assert reply["ok"]
            collected.extend(bytes(reply["data"]))
        assert_states_equal(decode_state_blob(collected), state)
        # ...but only its completion report opens the next round.
        assert net.replication.handle_fetch(
            later[0], {"transfer_id": transfer_id, "seq": 0}
        ) == {"status": "pending"}
        assert net.replication.handle_fetch(
            first, {"transfer_id": transfer_id, "complete": True}
        ) == {"ok": True}
        reply = net.replication.handle_fetch(
            later[0], {"transfer_id": transfer_id, "seq": 0}
        )
        assert reply["ok"]

    def test_unknown_transfer_is_refused_not_pending(self):
        net = adjusting_master()
        assert net.replication.handle_fetch(
            "w2", {"transfer_id": "no-such", "seq": 0}
        ) == {"ok": False, "reason": "unknown transfer"}

    def test_fetch_rejects_non_joiners_and_bad_seqs(self):
        net = adjusting_master()
        state = sample_state()
        self._upload(net, state)
        offer = net._handle_join("w2")
        transfer_id = offer["state_transfer"]["transfer_id"]
        assert not net.replication.handle_fetch(
            "w9", {"transfer_id": transfer_id, "seq": 0}
        )["ok"]
        assert not net.replication.handle_fetch(
            "w2", {"transfer_id": transfer_id, "seq": 10**6}
        )["ok"]

    def test_minting_a_new_plan_drops_completed_downloads(self):
        net = adjusting_master()
        state = sample_state()
        blob = self._upload(net, state)
        offer = net._handle_join("w2")
        transfer_id = offer["state_transfer"]["transfer_id"]
        for seq in range(blob.total_chunks):
            assert net.replication.handle_fetch(
                "w2", {"transfer_id": transfer_id, "seq": seq}
            )["ok"]
        assert not net.replication.downloads[transfer_id].complete
        assert net.replication.handle_fetch(
            "w2", {"transfer_id": transfer_id, "complete": True}
        )["ok"]
        assert net.replication.downloads[transfer_id].complete
        # Finish the adjustment, then start the next one: the download
        # is fully served and must not outlive its generation.
        net._handle_coordinate("w0", 8)
        assert net._handle_adjustment_request(
            {"kind": "scale_out", "add": ["w5"]}
        )["accepted"]
        net._handle_join("w5")
        for iteration in range(12, 400, 4):
            if net._handle_coordinate("w0", iteration)["kind"] == "adjust":
                break
            if net._handle_coordinate("w2", iteration)["kind"] == "adjust":
                break
        assert transfer_id not in net.replication.downloads

    def test_chunk_metrics_are_recorded(self):
        metrics = MetricRegistry()
        net = adjusting_master(metrics=metrics)
        blob = self._upload(net, sample_state(), transfer_id="t-m")
        snap = metrics.snapshot()
        assert snap["net.chunks.received"] == blob.total_chunks
        assert snap["net.chunks.bytes_received"] == blob.total_bytes
        assert snap["net.transfers.completed"] == 1
        assert "net.chunks.duplicate" not in snap

    def test_state_done_hashes_the_blob_once(self, monkeypatch):
        """The snapshot record carries the digest ``finish`` verified:
        ``STATE_DONE`` reads each byte of the blob once, and a lone
        AM-owned shard takes that digest without another pass."""
        import repro.net.chunks as chunks_module
        import repro.net.replication_gate as gate_module

        net = adjusting_master()
        blob = StateBlob.encode(sample_state(), chunk_bytes=256)
        base = blob.describe("t-once")
        for seq in range(blob.total_chunks):
            assert net.replication.handle_chunk("w0", dict(
                base, seq=seq, digest=blob.chunk_digest(seq),
                data=blob.chunk(seq),
            ))["ok"]
        hashed = []
        real_digest = chunks_module._digest

        def counting_digest(data):
            hashed.append(memoryview(data).nbytes)
            return real_digest(data)

        monkeypatch.setattr(chunks_module, "_digest", counting_digest)
        monkeypatch.setattr(gate_module, "_digest", counting_digest)
        assert net.replication.handle_done("w0", dict(base))["ok"]
        assert hashed == [blob.total_bytes]
        assert net.state.last_snapshot["digest"] == blob.digest

    def test_one_transfer_per_plan(self):
        """The first chunk opens the plan's intake; a chunk of any
        other transfer is refused until the plan is done with."""
        net = adjusting_master()
        blob = StateBlob.encode(sample_state(), chunk_bytes=256)

        def chunk(transfer_id, seq):
            return dict(
                blob.describe(transfer_id), seq=seq,
                digest=blob.chunk_digest(seq), data=blob.chunk(seq),
            )

        assert net.replication.handle_chunk("w0", chunk("t-a", 2))["ok"]
        assert net.replication.handle_chunk("w0", chunk("t-b", 0)) == {
            "ok": False, "reason": "transfer 't-a' in flight",
        }
        assert net.replication.handle_chunk("w0", chunk("t-a", 2))["ok"]
        assert net.metrics.snapshot()["net.chunks.duplicate"] == 1


class TestPipelinedUploadAgainstTheRestartRule:
    """The uploader's window opens at chunk 0: whatever order its
    chunks reach the AM in, the first one opens the plan's intake."""

    def test_chunk_zero_overtaken_by_its_window_is_not_a_restart(self):
        """Reorder seq 0 behind seq 1-3 at the send path — what four
        pipelined uploader threads racing for the send lock can do.
        Every chunk carries the blob's geometry, so the AM opens its
        intake at chunk 1 and the upload completes with no chunk
        refused and none resent."""
        net = adjusting_master()
        link = memory_link(net.core, "w0", ack_timeout=2.0)
        inner = link.transport

        class OvertakenChunkZero:
            """Holds each transfer's chunk 0 until chunks 1-3 went by
            (or, when the sender will not release them first, 0.3 s)."""

            node_id, connected = inner.node_id, True

            def __init__(self):
                self.lock = threading.Lock()
                self.passed = {}  # transfer id -> (seqs gone by, event)
                self.overtaken = False

            def _transfer(self, message):
                with self.lock:
                    return self.passed.setdefault(
                        message.payload["transfer_id"],
                        (set(), threading.Event()),
                    )

            def send(self, message):
                if message.msg_type is not MessageType.STATE_CHUNK:
                    return inner.send(message)
                seqs, overtaken = self._transfer(message)
                if message.payload["seq"] == 0:
                    self.overtaken = overtaken.wait(0.3)
                delivered = inner.send(message)
                seqs.add(message.payload["seq"])
                if {1, 2, 3} <= seqs:
                    overtaken.set()
                return delivered

            def close(self):
                inner.close()

        fault = OvertakenChunkZero()
        link.attach(fault)
        metrics = MetricRegistry()
        state = sample_state()
        try:
            summary = ChunkedUploader(
                link, chunk_bytes=256, window=4, metrics=metrics
            ).upload(state, context={"iteration": 4})
        finally:
            link.close()
        assert fault.overtaken  # chunks 1-3 reached the AM before 0
        assert summary["chunks"] > 4
        assert metrics.snapshot()["net.chunks.sent"] == summary["chunks"]
        assert summary["reply"]["ok"] is True
        assert summary["reply"]["chunks"] == summary["chunks"]
        # The AM holds exactly the bytes that were sent.
        assert summary["digest"] == StateBlob.encode(
            state, chunk_bytes=256
        ).digest
        download = net.replication.downloads[summary["transfer_id"]]
        assert download.total_bytes == summary["payload_bytes"]
        assert net.core.executions[("w0", "state_chunk")] == summary["chunks"]
        assert net.core.executions[("w0", "state_done")] == 1


class TestConcurrentFanout:
    def test_joiners_fetch_concurrently_within_a_round(self):
        """Two joiners whose planner rounds coincide pull the same
        download from separate threads without corruption."""
        spec = JobSpec(iterations=64, coordination_interval=4, chunk_bytes=128)
        net = NetworkedApplicationMaster(spec, ["w0", "w1"])
        assert net._handle_adjustment_request(
            {"kind": "scale_out", "add": ["w2", "w3"]}
        )["accepted"]
        net._handle_join("w2")
        net._handle_join("w3")
        for iteration in range(4, 400, 4):
            if net._handle_coordinate("w0", iteration)["kind"] == "adjust":
                net._handle_coordinate("w1", iteration)
                break
        state = sample_state()
        blob = StateBlob.encode(state, chunk_bytes=128)
        base = blob.describe("t-c")
        for seq in range(blob.total_chunks):
            net.replication.handle_chunk("w0", dict(
                base, seq=seq, digest=blob.chunk_digest(seq),
                data=blob.chunk(seq),
            ))
        net.replication.handle_done("w0", dict(base))
        results, errors = {}, []

        def fetch(joiner):
            try:
                offer = net._handle_join(joiner)
                descriptor = offer["state_transfer"]
                collected = bytearray()
                for seq in range(descriptor["total_chunks"]):
                    deadline = time.monotonic() + 10
                    while True:
                        reply = net.replication.handle_fetch(
                            joiner,
                            {"transfer_id": descriptor["transfer_id"],
                             "seq": seq},
                        )
                        if reply.get("status") != "pending":
                            break
                        assert time.monotonic() < deadline, "round never opened"
                        time.sleep(0.005)
                    assert reply["ok"], reply
                    collected.extend(bytes(reply["data"]))
                results[joiner] = decode_state_blob(collected)
            except Exception as exc:  # surfaced below
                errors.append(exc)

        threads = [
            threading.Thread(target=fetch, args=(j,)) for j in ("w2", "w3")
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=10)
        assert not errors, errors
        for joiner in ("w2", "w3"):
            assert_states_equal(results[joiner], state)
