"""Sharded state migration: stores, fan-in, recovery.

Four layers:

* :class:`ShardStore` — owners freeze a bit-identical full blob and
  serve digest-verified chunks of it over the peer plane, with TTL
  eviction so a dead transfer cannot pin memory forever;
* :class:`ShardedFetcher` re-probes — a queued joiner asks its round
  gate again at once; the AM (and the fakes here) hold each ask before
  answering ``pending``, so no client loop sleeps;
* :class:`ShardedFetcher` — multi-peer fan-in and re-planning a shard
  whose owner died (or diverged, or raised) mid-fetch, driven against
  in-memory fakes so every failure mode is deterministic;
* end-to-end — a ring-enabled elastic job with ``replication_shards``
  set scales out over the memory and TCP transports; the joiners pull
  their shards from the owner peers (never through the AM link) and
  every replica finishes bit-identical.  A star job's joiners pull
  the one owner-less shard from the AM, in round order.
"""

import sys
import threading

import numpy as np
import pytest

from repro.coordination.messages import MessageType
from repro.net import (
    JobSpec,
    RemoteError,
    StateBlob,
    WireError,
)
from repro.net import master_service
from repro.net.chunks import ShardedFetcher, ShardStore, TransferError
from repro.observability import MetricRegistry

from .harness import Harness, wait_for_iteration


def sample_state(floats=4096, seed=7):
    rng = np.random.default_rng(seed)
    return {
        "params": {
            "w": rng.random((floats // 2, 2)),
            "b": rng.random(64, dtype=np.float32),
        },
        "optimizer": {"lr": 0.05, "velocity": {"w": rng.random(128)}},
        "loader": {"cursor": 12, "epoch": 0},
    }


def assert_states_equal(a, b):
    np.testing.assert_array_equal(a["params"]["w"], b["params"]["w"])
    np.testing.assert_array_equal(a["params"]["b"], b["params"]["b"])
    np.testing.assert_array_equal(
        a["optimizer"]["velocity"]["w"], b["optimizer"]["velocity"]["w"]
    )
    assert a["loader"] == b["loader"]


class FakeClock:
    def __init__(self):
        self.now = 1000.0

    def __call__(self):
        return self.now


class TestShardStore:
    def test_serves_digest_verified_chunks_of_the_frozen_blob(self):
        blob = StateBlob.encode(sample_state(), chunk_bytes=512)
        store = ShardStore()
        frozen = store.register("t1", blob)
        assert frozen == blob.total_bytes
        assert store.holds("t1")
        joined = bytearray()
        for seq in range(blob.total_chunks):
            reply = store.handle_fetch("j", {"transfer_id": "t1", "seq": seq})
            assert reply["ok"], reply
            assert reply["digest"] == blob.chunk_digest(seq)
            joined.extend(bytes(reply["data"]))
        assert bytes(joined) == blob.tobytes()
        assert store.served == blob.total_chunks

    def test_unknown_transfer_and_bad_seq_are_refused(self):
        blob = StateBlob.encode(sample_state(), chunk_bytes=512)
        store = ShardStore()
        store.register("t1", blob)
        assert not store.handle_fetch("j", {"transfer_id": "x", "seq": 0})["ok"]
        for seq in (-1, blob.total_chunks, None, "0"):
            reply = store.handle_fetch("j", {"transfer_id": "t1", "seq": seq})
            assert not reply["ok"], (seq, reply)

    def test_idle_entries_are_evicted_on_the_ttl(self):
        clock = FakeClock()
        metrics = MetricRegistry()
        blob = StateBlob.encode(sample_state(), chunk_bytes=512)
        store = ShardStore(metrics=metrics, ttl=10.0, clock=clock)
        store.register("t1", blob)
        clock.now += 9.0
        assert store.handle_fetch("j", {"transfer_id": "t1", "seq": 0})["ok"]
        clock.now += 10.1  # idle past the TTL since the last serve
        reply = store.handle_fetch("j", {"transfer_id": "t1", "seq": 1})
        assert not reply["ok"]
        assert store.evicted == 1
        assert metrics.snapshot()["net.shards.evicted"] == 1.0
        assert not store.holds("t1")

    def test_release_drops_the_frozen_copy(self):
        blob = StateBlob.encode(sample_state(), chunk_bytes=512)
        store = ShardStore()
        store.register("t1", blob)
        store.release("t1")
        assert not store.holds("t1")

    def test_on_serve_hook_sees_the_running_count(self):
        blob = StateBlob.encode(sample_state(), chunk_bytes=512)
        counts = []
        store = ShardStore(on_serve=counts.append)
        store.register("t1", blob)
        for seq in range(3):
            store.handle_fetch("j", {"transfer_id": "t1", "seq": seq})
        assert counts == [0, 1, 2]


class FakeLink:
    """A ReliableLink stand-in: dispatches requests to a handler."""

    def __init__(self, handler, node_id="joiner"):
        self.handler = handler
        self.node_id = node_id
        self.requests = 0
        self.closed = False

    def request(self, msg_type, payload=None):
        self.requests += 1
        return self.handler(msg_type, dict(payload or {}))

    def close(self):
        self.closed = True


def am_owned_descriptor(blob, transfer_id="t1"):
    """What a star join offer carries: one owner-less whole-blob shard."""
    descriptor = blob.describe(transfer_id)
    descriptor["shards"] = [
        dict(shard, owner=None, addr=None) for shard in blob.shard_plan(1)
    ]
    return descriptor


def am_serving(blob):
    """An AM handler that opens the round, takes completion reports and
    serves ``blob``'s chunks; ``completions`` records the reports."""
    completions = []

    def handler(msg_type, payload):
        assert msg_type is MessageType.STATE_FETCH
        if payload.get("probe"):
            return {"ok": True, "open": True}
        if payload.get("complete"):
            completions.append(payload["transfer_id"])
            return {"ok": True}
        seq = payload["seq"]
        return {
            "ok": True, "seq": seq, "data": blob.chunk(seq),
            "digest": blob.chunk_digest(seq),
        }

    handler.completions = completions
    return handler


#: the fakes' hold before a ``pending`` answer.
HOLD = 0.01


def held_pending():
    """A ``pending`` answer given the way the AM gives one: after a
    hold (short here), never instantly."""
    threading.Event().wait(HOLD)
    return {"status": "pending"}


class TestFetcherReprobe:
    """The pending wait is the AM's hold: the fetcher asks again at once."""

    def test_pending_rounds_resolve_by_asking_again(self):
        blob = StateBlob.encode(sample_state(), chunk_bytes=2048)
        pending_left = [3]
        serving = am_serving(blob)

        def handler(msg_type, payload):
            assert msg_type is MessageType.STATE_FETCH
            if pending_left[0] > 0:
                pending_left[0] -= 1
                return held_pending()
            return serving(msg_type, payload)

        link = FakeLink(handler)
        fetcher = ShardedFetcher(link, window=1, timeout=5.0)
        state = fetcher.fetch(am_owned_descriptor(blob))
        assert_states_equal(state, sample_state())
        assert pending_left[0] == 0
        # every pending answer cost exactly one more ask: the chunks,
        # the completion report and the three re-asks
        assert link.requests == blob.total_chunks + 1 + 3


def make_sharded_world(owners=("w0", "w1"), chunk_bytes=1024,
                       state=None, shard_count=None, am_blob=None):
    """An AM-side descriptor plus per-owner ShardStores, all in-process.

    Returns ``(descriptor, stores, am_handler)`` where ``descriptor``
    is what a join offer would carry, ``stores[owner]`` holds that
    owner's frozen blob, and ``am_handler`` answers probe/complete and
    serves the AM's own full copy as the last-resort source.
    """
    state = state if state is not None else sample_state()
    blob = StateBlob.encode(state, chunk_bytes=chunk_bytes)
    am_blob = am_blob if am_blob is not None else blob
    shards = blob.shard_plan(shard_count or len(owners))
    for shard in shards:
        shard["owner"] = owners[shard["index"] % len(owners)]
        shard["addr"] = f"mem://{shard['owner']}"
    stores = {}
    for owner in owners:
        store = ShardStore()
        store.register("t1", blob)
        stores[owner] = store
    descriptor = blob.describe("t1")
    descriptor["shards"] = shards
    return descriptor, stores, am_serving(am_blob)


def peer_connector(stores, dead=(), die_after=None, fault=ConnectionError):
    """connect(addr) -> FakeLink onto the owner's ShardStore.

    Owners in ``dead`` refuse the connection; ``die_after[owner]``
    makes the owner's link raise ``fault`` after that many served
    chunks — the in-process analogue of ``--shard-die-after``'s hard
    exit (or, with ``RemoteError``, of the owner's handler raising).
    """
    def connect(addr):
        owner = addr.split("://", 1)[1]
        if owner in dead:
            raise ConnectionError(f"{owner} is dead")
        store = stores[owner]
        limit = (die_after or {}).get(owner)

        def handler(msg_type, payload):
            if limit is not None and store.served >= limit:
                raise fault(f"{owner} failed mid-fetch")
            return store.handle_fetch("joiner", payload)

        return FakeLink(handler, node_id=owner)

    return connect


class TestShardedFetcher:
    def test_fan_in_from_all_owners_is_bit_identical(self):
        state = sample_state()
        descriptor, stores, am = make_sharded_world(state=state)
        fetcher = ShardedFetcher(
            FakeLink(am), connect=peer_connector(stores), timeout=5.0,
            metrics=MetricRegistry(),
        )
        fetched = fetcher.fetch(descriptor)
        assert_states_equal(fetched, state)
        # Every chunk came off the owner peers, none off the AM link.
        assert stores["w0"].served > 0
        assert stores["w1"].served > 0
        assert sum(s.served for s in stores.values()) == (
            descriptor["total_chunks"]
        )
        assert fetcher.stats["net.shards.fetched"] == len(
            descriptor["shards"]
        )
        assert am.completions == ["t1"]

    def test_owner_death_mid_fetch_replans_onto_the_survivor(self):
        state = sample_state()
        descriptor, stores, am = make_sharded_world(state=state)
        # w0 serves exactly one chunk, then every request explodes.
        connect = peer_connector(stores, die_after={"w0": 1})
        fetcher = ShardedFetcher(
            FakeLink(am), connect=connect,
            window=1, timeout=5.0,
        )
        fetched = fetcher.fetch(descriptor)
        assert_states_equal(fetched, state)
        assert fetcher.stats.get("net.shards.replans", 0) >= 1
        # The survivor holds the FULL frozen blob, so it covered the
        # dead owner's shard too.
        assert stores["w1"].served >= descriptor["total_chunks"] - 1

    def test_many_shard_loops_count_every_shard_once(self):
        """One loop per shard, all at once, with a short switch interval:
        every shard is fetched and counted once, and each of the dead
        owner's shards is replanned exactly once."""
        state = sample_state()
        descriptor, stores, am = make_sharded_world(
            owners=("w0", "w1", "w2"), chunk_bytes=256, state=state,
            shard_count=24,
        )
        shards = descriptor["shards"]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            fetcher = ShardedFetcher(
                FakeLink(am), connect=peer_connector(stores, dead={"w0"}),
                window=2, timeout=10.0,
            )
            fetched = fetcher.fetch(descriptor)
        finally:
            sys.setswitchinterval(interval)
        assert_states_equal(fetched, state)
        assert len(shards) == 24
        assert fetcher.stats["net.shards.fetched"] == len(shards)
        assert fetcher.stats["net.shards.replans"] == sum(
            1 for shard in shards if shard["owner"] == "w0"
        )
        assert am.completions == ["t1"]

    def test_owner_handler_error_replans_onto_the_survivor(self):
        """An owner whose handler raises (``RemoteError`` on the joiner's
        link) is re-planned like a dead one; the join succeeds and is
        reported complete exactly once."""
        state = sample_state()
        descriptor, stores, am = make_sharded_world(state=state)
        connect = peer_connector(
            stores, die_after={"w0": 1}, fault=RemoteError
        )
        fetcher = ShardedFetcher(
            FakeLink(am), connect=connect,
            window=1, timeout=5.0,
        )
        fetched = fetcher.fetch(descriptor)
        assert_states_equal(fetched, state)
        assert fetcher.stats.get("net.shards.replans", 0) >= 1
        assert am.completions == ["t1"]

    @pytest.mark.parametrize("owners", [("w0", "w1"), ()])
    def test_blob_failing_its_digest_reports_no_completion(self, owners):
        """Completion is reported only after the assembled blob
        verifies — with owners (every shard passes, the whole blob does
        not) and with the one AM-owned shard (which is the whole blob)."""
        state = sample_state()
        if owners:
            descriptor, stores, am = make_sharded_world(state=state)
            descriptor["digest"] = "0" * 64
            connect = peer_connector(stores)
        else:
            blob = StateBlob.encode(state, chunk_bytes=1024)
            descriptor = am_owned_descriptor(blob)
            descriptor["digest"] = descriptor["shards"][0]["digest"] = (
                "0" * 64
            )
            am, connect = am_serving(blob), None
        fetcher = ShardedFetcher(
            FakeLink(am), connect=connect, timeout=5.0,
        )
        with pytest.raises(WireError):
            fetcher.fetch(descriptor)
        assert am.completions == []

    def test_type_error_from_close_propagates(self):
        """Only ``OSError`` from a peer's ``close`` is swallowed; a
        programming error surfaces and no completion is reported."""
        descriptor, stores, am = make_sharded_world()
        connect = peer_connector(stores)

        def broken_close():
            raise TypeError("close() takes no arguments")

        def connect_with_broken_close(addr):
            link = connect(addr)
            link.close = broken_close
            return link

        fetcher = ShardedFetcher(
            FakeLink(am), connect=connect_with_broken_close, timeout=5.0,
        )
        with pytest.raises(TypeError):
            fetcher.fetch(descriptor)
        assert am.completions == []

    def test_owner_less_shard_is_a_planned_am_source(self):
        """A star offer's one shard comes off the AM link as planned:
        no peer is dialled and nothing counts as a re-plan."""
        state = sample_state()
        blob = StateBlob.encode(state, chunk_bytes=1024)
        am = am_serving(blob)
        link = FakeLink(am)

        def no_peers(addr):
            raise AssertionError(f"dialled {addr}")

        fetcher = ShardedFetcher(
            link, connect=no_peers, window=2, timeout=5.0,
        )
        fetched = fetcher.fetch(am_owned_descriptor(blob))
        assert_states_equal(fetched, state)
        assert fetcher.stats.get("net.shards.replans", 0) == 0
        assert fetcher.stats["net.shards.fetched"] == 1
        assert am.completions == ["t1"]
        # one request per chunk (the AM gates them itself, so no probe)
        # and one completion report
        assert link.requests == blob.total_chunks + 1

    def test_am_owned_join_hashes_each_byte_twice(self, monkeypatch):
        """Per-chunk digests on arrival plus one whole-blob check — the
        lone shard's digest check is that check, not an extra pass."""
        import repro.net.chunks as chunks_module

        blob = StateBlob.encode(sample_state(), chunk_bytes=1024)
        digests = [blob.chunk_digest(s) for s in range(blob.total_chunks)]
        descriptor = am_owned_descriptor(blob)

        def am(msg_type, payload):
            if payload.get("probe") or payload.get("complete"):
                return {"ok": True}
            seq = payload["seq"]
            return {"ok": True, "seq": seq, "data": blob.chunk(seq),
                    "digest": digests[seq]}

        hashed = []
        real_digest = chunks_module._digest

        def counting_digest(data):
            hashed.append(memoryview(data).nbytes)
            return real_digest(data)

        monkeypatch.setattr(chunks_module, "_digest", counting_digest)
        ShardedFetcher(FakeLink(am)).fetch(descriptor)
        assert sum(hashed) == 2 * blob.total_bytes

    def test_all_owners_dead_falls_back_to_the_am_full_copy(self):
        state = sample_state()
        descriptor, stores, am = make_sharded_world(state=state)
        connect = peer_connector(stores, dead=("w0", "w1"))
        am_link = FakeLink(am)
        fetcher = ShardedFetcher(
            am_link, connect=connect, timeout=5.0,
        )
        fetched = fetcher.fetch(descriptor)
        assert_states_equal(fetched, state)
        assert sum(s.served for s in stores.values()) == 0
        assert fetcher.stats["net.shards.replans"] == len(
            descriptor["shards"]
        )

    def test_no_peer_route_fetches_everything_from_the_am(self):
        state = sample_state()
        descriptor, stores, am = make_sharded_world(state=state)
        fetcher = ShardedFetcher(
            FakeLink(am), connect=None, timeout=5.0,
        )
        fetched = fetcher.fetch(descriptor)
        assert_states_equal(fetched, state)
        assert sum(s.served for s in stores.values()) == 0

    def test_divergent_owner_replica_fails_digest_and_replans(self):
        """The plan digests come from the UPLOADED blob; an owner whose
        frozen copy differs (a divergent replica) must be caught by the
        per-shard digest and re-planned, never silently adopted."""
        state = sample_state()
        blob = StateBlob.encode(state, chunk_bytes=1024)
        descriptor, stores, am = make_sharded_world(
            state=state, am_blob=blob
        )
        # Corrupt w0's frozen copy in place: same geometry, wrong bytes.
        entry = stores["w0"]._entries["t1"]
        poisoned = bytearray(entry.data)
        poisoned[0] ^= 0xFF
        entry.data = bytes(poisoned)
        entry._chunk_digests.clear()
        fetcher = ShardedFetcher(
            FakeLink(am), connect=peer_connector(stores),
            window=1, timeout=5.0,
        )
        fetched = fetcher.fetch(descriptor)
        assert_states_equal(fetched, state)
        assert fetcher.stats.get("net.shards.replans", 0) >= 1

    def test_round_gate_pending_then_open(self):
        state = sample_state()
        descriptor, stores, inner_am = make_sharded_world(state=state)
        gate = [2]

        def am_handler(msg_type, payload):
            if payload.get("probe") and gate[0] > 0:
                gate[0] -= 1
                return held_pending()
            return inner_am(msg_type, payload)

        link = FakeLink(am_handler)
        fetcher = ShardedFetcher(
            link, connect=peer_connector(stores), timeout=5.0,
        )
        fetched = fetcher.fetch(descriptor)
        assert_states_equal(fetched, state)
        assert gate[0] == 0
        # two held pendings, the probe that opened, the report
        assert link.requests == 4

    def test_round_gate_refusal_raises(self):
        descriptor, stores, _ = make_sharded_world()

        def am_handler(msg_type, payload):
            return {"ok": False, "reason": "not a planned joiner"}

        fetcher = ShardedFetcher(
            FakeLink(am_handler), connect=peer_connector(stores), timeout=1.0,
        )
        with pytest.raises(TransferError):
            fetcher.fetch(descriptor)


@pytest.fixture(params=["memory", "tcp"])
def transport(request):
    return request.param


class TestShardedElasticJob:
    def test_sharded_scale_out_is_bit_identical(self, transport, monkeypatch):
        """The tentpole acceptance criterion: with ``replication_shards``
        set, a scale-out's joiners fan in their shards from the owner
        peers — the AM never serves a chunk — and every replica (old and
        new, on both transports) finishes with the same digest.  Each
        owner encodes its snapshot once: the uploader (w0, an owner too)
        streams the blob it froze."""
        encodes = []
        encode = StateBlob.encode.__func__

        def counting_encode(cls, state, *args, **kwargs):
            encodes.append(state)
            return encode(cls, state, *args, **kwargs)

        monkeypatch.setattr(StateBlob, "encode", classmethod(counting_encode))
        spec = JobSpec(
            iterations=16, coordination_interval=4, iteration_sleep=0.01,
            allreduce_timeout=10.0, sync_ack_timeout=1.0,
            chunk_bytes=1024, replication_shards=2,
        )
        harness = Harness(transport, spec, ["w0", "w1"], mesh=True)
        try:
            harness.start_worker("w0")
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
            harness.join_all()

            status = driver.request(MessageType.STATUS)
            assert status["complete"]
            digests = status["digests"]
            assert len(digests) == 4
            assert len(set(digests.values())) == 1, digests

            snap = harness.master.metrics.snapshot()
            assert snap.get("net.shards.planned", 0) >= 2
            assert snap.get("net.shards.joins_completed", 0) == 2
            # The owners served the chunks peer-side; the AM's own
            # chunk-serving counter never moved.
            assert snap.get("net.chunks.served", 0) == 0
            served = sum(
                harness.agents[w]._shard_store.served
                for w in ("w0", "w1")
                if harness.agents[w]._shard_store is not None
            )
            assert served > 0
            assert len(encodes) == 2  # one per owner, none to upload
        finally:
            harness.close()

    def test_round_one_joiner_probes_once_and_is_never_pending(
        self, transport, monkeypatch
    ):
        """Two joiners, two owners: the planner puts one joiner in
        round 1.  Its round probe lands while round 0 is still copying,
        the AM holds it, and the round-0 completion report answers it —
        one probe, no ``pending`` anywhere in the fetch."""
        # A hold long enough that a loaded host still finishes round 0
        # inside it, and still below the suite's 0.5 s ack timeout.
        monkeypatch.setattr(master_service, "HOLD_SECONDS", 0.4)
        spec = JobSpec(
            iterations=16, coordination_interval=4, iteration_sleep=0.01,
            allreduce_timeout=10.0, sync_ack_timeout=1.0,
            chunk_bytes=1024, replication_shards=2,
        )
        harness = Harness(transport, spec, ["w0", "w1"], mesh=True)
        answers = []
        handler = harness.master.core.handler

        def recording(message):
            reply = handler(message)
            answers.append((message.sender, message.msg_type,
                            dict(message.payload), reply))
            return reply

        harness.master.core.handler = recording
        try:
            harness.start_worker("w0")
            harness.start_worker("w1")
            driver = harness.link("driver", ack_timeout=2.0)
            wait_for_iteration(driver, 4)
            assert driver.request(
                MessageType.ADJUSTMENT_REQUEST,
                {"kind": "scale_out", "add": ["w2", "w3"]},
            )["accepted"]
            harness.start_worker("w2")
            harness.start_worker("w3")
            harness.join_all()
            assert harness.master.status()["complete"]
        finally:
            harness.close()
        rounds = {
            sender: reply["state_transfer"]["round"]
            for sender, kind, _, reply in answers
            if kind is MessageType.JOIN and reply.get("status") == "join"
        }
        assert sorted(rounds.values()) == [0, 1], rounds
        late = next(w for w, r in rounds.items() if r == 1)
        fetches = [
            (payload, reply) for sender, kind, payload, reply in answers
            if kind is MessageType.STATE_FETCH and sender == late
        ]
        assert [p for p, _ in fetches if p.get("probe")] == [
            {"transfer_id": "shard/g1", "probe": True}
        ]
        assert [
            reply for sender, kind, _, reply in answers
            if kind is MessageType.STATE_FETCH
            and reply.get("status") == "pending"
        ] == []
