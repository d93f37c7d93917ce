"""Property-based tests: exactly-once delivery on both net transports.

Randomized drop / duplicate / reset / delayed-duplicate (reorder)
schedules are replayed against the §V-D recipe.  Whatever the schedule,
every request the client considers answered was executed exactly once by
the server, and the reply it got is the reply of *its* execution.
"""

import threading

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.coordination.faults import FaultPlan
from repro.coordination.messages import Message, MessageType
from repro.net import (
    ChunkedUploader,
    JobSpec,
    MemoryPeerHost,
    NetworkedApplicationMaster,
    RingDegraded,
    RingMailbox,
    RingNode,
    ServerCore,
    TcpServer,
    memory_link,
    ring_reference_average,
    tcp_link,
)
from repro.net.chunks import decode_state_blob


def counting_core():
    """Echo server that stamps each reply with its execution number."""
    core = ServerCore(
        handler=lambda message: {
            "i": message.payload["i"],
            "execution": core.handled + 1,
        }
    )
    return core


schedules = st.fixed_dictionaries(
    {
        # drop_every=1 would drop every send including every resend —
        # no recipe can deliver over a channel that never delivers.
        "drop_every": st.sampled_from([0, 2, 3, 4, 5]),
        "duplicate_every": st.integers(0, 5),
        "resets": st.lists(st.integers(1, 40), max_size=4, unique=True),
        "requests": st.integers(1, 12),
    }
)


class TestExactlyOnceInMemory:
    @given(schedule=schedules)
    @settings(max_examples=60, deadline=None)
    def test_every_request_executes_once(self, schedule):
        core = counting_core()
        plan = FaultPlan(
            drop_every=schedule["drop_every"],
            duplicate_every=schedule["duplicate_every"],
            connection_resets=tuple(schedule["resets"]),
        )
        link = memory_link(
            core, "w0", fault_plan=plan, ack_timeout=0.02, max_attempts=20
        )
        for i in range(schedule["requests"]):
            reply = link.request(MessageType.ACK, {"i": i})
            # The reply answers THIS request, not a stale one.
            assert reply["i"] == i
        # Exactly-once: executions equal logical requests, regardless of
        # how many retransmissions or duplicates the schedule produced.
        assert core.executions[("w0", "ack")] == schedule["requests"]
        assert core.handled == schedule["requests"]

    @given(
        stash=st.lists(st.booleans(), min_size=2, max_size=12),
    )
    @settings(max_examples=40, deadline=None)
    def test_reordered_duplicates_are_absorbed(self, stash):
        """Duplicates delivered *after later messages* (reordering) are
        still deduplicated: the recipe keys on msg_id, not arrival
        order."""
        core = counting_core()
        link = memory_link(core, "w0")

        class ReorderingTransport:
            """Wraps the real transport; optionally holds back a
            duplicate of each send and injects it after the next one."""

            def __init__(self, inner):
                self.inner = inner
                self.node_id = inner.node_id
                self.pending: "list[Message]" = []
                self.index = 0

            def send(self, message):
                delivered = self.inner.send(message)
                held, self.pending = self.pending, []
                for old in held:  # the out-of-order duplicate
                    self.inner.send(old.duplicate())
                if self.index < len(stash) and stash[self.index]:
                    self.pending.append(message)
                self.index += 1
                return delivered

            def close(self):
                self.inner.close()

            @property
            def connected(self):
                return self.inner.connected

        link.attach(ReorderingTransport(link.transport))
        for i in range(len(stash)):
            assert link.request(MessageType.ACK, {"i": i})["i"] == i
        assert core.executions[("w0", "ack")] == len(stash)
        assert core.duplicates == sum(stash[:-1])


class TestExactlyOnceOverTcp:
    @given(schedule=schedules)
    @settings(max_examples=6, deadline=None)
    def test_same_property_over_loopback_sockets(self, schedule):
        """The identical property, over real sockets (fewer examples:
        each one pays for a listener and a handshake)."""
        core = counting_core()
        server = TcpServer(core).start()
        plan = FaultPlan(
            drop_every=schedule["drop_every"],
            duplicate_every=schedule["duplicate_every"],
            connection_resets=tuple(schedule["resets"]),
        )
        link, _transport = tcp_link(
            server.host, server.port, "w0",
            fault_plan=plan, ack_timeout=0.2, max_attempts=20,
            heartbeat_interval=None,
        )
        try:
            for i in range(schedule["requests"]):
                assert link.request(MessageType.ACK, {"i": i})["i"] == i
            assert core.executions[("w0", "ack")] == schedule["requests"]
        finally:
            link.close()
            server.close()


def chunk_master():
    """The AM's own upload intake, mid scale-out: w0 is the uploader."""
    net = NetworkedApplicationMaster(
        JobSpec(iterations=64, coordination_interval=4), ["w0"]
    )
    assert net._handle_adjustment_request(
        {"kind": "scale_out", "add": ["w2"]}
    )["accepted"]
    net._handle_join("w2")
    for iteration in range(4, 400, 4):
        if net._handle_coordinate("w0", iteration)["kind"] == "adjust":
            return net
    raise AssertionError("no adjust directive")


chunk_schedules = st.fixed_dictionaries(
    {
        "drop_every": st.sampled_from([0, 2, 3, 4, 5]),
        "duplicate_every": st.integers(0, 5),
        "resets": st.lists(st.integers(1, 60), max_size=4, unique=True),
        "chunk_bytes": st.sampled_from([64, 256, 1024]),
        "window": st.sampled_from([1, 2, 4]),
        "floats": st.integers(1, 300),
    }
)


def assert_chunked_upload_exactly_once(net, link, schedule):
    """Whatever the schedule: every chunk handler ran exactly once, no
    duplicate ever reached the assembly buffer, and the journaled blob
    is byte-identical (digest-verified) to what was sent."""
    state = {
        "params": {"w": np.arange(schedule["floats"], dtype=np.float64)},
        "optimizer": {"lr": 0.1},
        "loader": {"cursor": 2},
    }
    uploader = ChunkedUploader(
        link, chunk_bytes=schedule["chunk_bytes"], window=schedule["window"]
    )
    summary = uploader.upload(state)
    assert net.core.executions[("w0", "state_chunk")] == summary["chunks"]
    assert net.core.executions[("w0", "state_done")] == 1
    assert summary["reply"]["duplicates"] == 0
    snapshot = net.state.last_snapshot
    assert snapshot["digest"] == summary["digest"]
    decoded = decode_state_blob(snapshot["blob"])
    np.testing.assert_array_equal(
        decoded["params"]["w"], state["params"]["w"]
    )


class TestChunkedTransferProperties:
    """PR-4: the chunked replication data plane inherits exactly-once.

    Chunks are ordinary reliable requests, so the §V-D recipe's
    guarantee must lift to whole transfers: resume after resets, dedup
    of duplicated chunks, and a digest-verified byte-identical blob —
    on both transports, under any schedule.
    """

    @given(schedule=chunk_schedules)
    @settings(max_examples=40, deadline=None)
    def test_transfer_survives_any_schedule_in_memory(self, schedule):
        net = chunk_master()
        plan = FaultPlan(
            drop_every=schedule["drop_every"],
            duplicate_every=schedule["duplicate_every"],
            connection_resets=tuple(schedule["resets"]),
        )
        link = memory_link(
            net.core, "w0", fault_plan=plan, ack_timeout=0.02, max_attempts=20
        )
        try:
            assert_chunked_upload_exactly_once(net, link, schedule)
        finally:
            link.close()
            net.close()

    @given(schedule=chunk_schedules)
    @settings(max_examples=4, deadline=None)
    def test_transfer_survives_any_schedule_over_tcp(self, schedule):
        net = chunk_master()
        server = TcpServer(net.core).start()
        plan = FaultPlan(
            drop_every=schedule["drop_every"],
            duplicate_every=schedule["duplicate_every"],
            connection_resets=tuple(schedule["resets"]),
        )
        link, _transport = tcp_link(
            server.host, server.port, "w0",
            fault_plan=plan, ack_timeout=0.2, max_attempts=20,
            heartbeat_interval=None,
        )
        try:
            assert_chunked_upload_exactly_once(net, link, schedule)
        finally:
            link.close()
            server.close()
            net.close()


ring_schedules = st.fixed_dictionaries(
    {
        "drop_every": st.sampled_from([0, 2, 3, 4, 5]),
        "duplicate_every": st.integers(0, 5),
        "resets": st.lists(st.integers(1, 40), max_size=3, unique=True),
        "members": st.integers(2, 4),
        "bucket_bytes": st.sampled_from([64, 256, 4096]),
        "elements": st.integers(1, 120),
        "seed": st.integers(0, 2**16),
    }
)


class TestRingAllreduceProperties:
    """PR-5: the ring gradient plane inherits exactly-once too.

    Segments are ordinary reliable requests between peers, so under any
    randomized drop/duplicate/reset schedule every rank either finishes
    with the *bit-exact* reference mean or raises
    :class:`RingDegraded` — never a silently wrong result — and no
    duplicate segment is ever executed twice by a peer core.
    """

    @given(schedule=ring_schedules)
    @settings(max_examples=25, deadline=None)
    def test_exact_mean_or_explicit_degradation(self, schedule):
        rng = np.random.default_rng(schedule["seed"])
        workers = [f"w{i}" for i in range(schedule["members"])]
        grads = {
            w: {
                "a": rng.standard_normal(schedule["elements"]),
                "b": rng.standard_normal((3, 2)),
            }
            for w in workers
        }
        host = MemoryPeerHost()
        # The chaos plan afflicts one member's outbound peer links.
        plan = FaultPlan(
            drop_every=schedule["drop_every"],
            duplicate_every=schedule["duplicate_every"],
            connection_resets=tuple(schedule["resets"]),
        )
        nodes, cores, addrs = {}, {}, {}
        for worker in workers:
            mailbox = RingMailbox()
            core = cores[worker] = ServerCore(
                mailbox.handle, node_id=f"{worker}/peer"
            )
            addrs[worker] = host.serve(core, worker)
            faulty = plan if worker == workers[0] else None
            connect = (
                lambda addr, w=worker, p=faulty: host.connect(
                    addr, node_id=w, fault_plan=p,
                    ack_timeout=0.02, max_attempts=20,
                )
            )
            nodes[worker] = RingNode(
                worker, mailbox, connect,
                bucket_bytes=schedule["bucket_bytes"], step_timeout=5.0,
            )
        ring = {
            "epoch": 0, "order": workers, "peers": addrs, "active_from": 0,
        }
        results, errors = {}, {}

        def run(worker):
            nodes[worker].install(ring)
            try:
                results[worker] = nodes[worker].allreduce(
                    0, 0, grads[worker]
                )
            except RingDegraded as exc:
                errors[worker] = exc

        threads = [
            threading.Thread(target=run, args=(w,), daemon=True)
            for w in workers
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30.0)
        try:
            assert all(not t.is_alive() for t in threads), "ring hung"
            assert set(results) | set(errors) == set(workers)
            reference = ring_reference_average([grads[w] for w in workers])
            for worker, result in results.items():
                for name in reference:
                    assert result[name].tobytes() == (
                        reference[name].tobytes()
                    ), (worker, name)
            # Exactly-once on every peer core: each executed segment ran
            # once; whatever the schedule duplicated was dropped by
            # dedup, not executed again.
            for core in cores.values():
                assert core.handled == sum(core.executions.values())
        finally:
            for node in nodes.values():
                node.close()
            host.close()
