"""Transport-seam tests: ReliableLink, ServerCore, InMemoryTransport.

The connection lifecycle the memory transport shares with TCP and shm
(round trip, drops, resets, spans) is in ``test_lifecycle.py``.
"""

import threading
import time

import pytest

from repro.coordination.faults import FaultPlan
from repro.coordination.messages import MessageType
from repro.net import (
    InMemoryTransport,
    RemoteError,
    RequestTimeout,
    ServerCore,
    Transport,
    TransportFaults,
    memory_link,
)


def echo_core(**kwargs):
    return ServerCore(
        handler=lambda message: {"echo": dict(message.payload)}, **kwargs
    )


class TestTransportProtocol:
    def test_in_memory_transport_satisfies_protocol(self):
        transport = InMemoryTransport("w0", echo_core(), on_reply=lambda *a: None)
        assert isinstance(transport, Transport)


class TestReliableLink:
    def test_duplicates_absorbed_without_reexecution(self):
        core = echo_core()
        link = memory_link(
            core, "w0", fault_plan=FaultPlan(duplicate_every=1)
        )
        for i in range(5):
            link.request(MessageType.ACK, {"i": i})
        assert core.duplicates == 5
        assert core.executions[("w0", "ack")] == 5

    def test_remote_error_propagates(self):
        def explode(message):
            raise ValueError("handler went boom")

        link = memory_link(ServerCore(handler=explode), "w0")
        with pytest.raises(RemoteError, match="handler went boom"):
            link.request(MessageType.ACK)

    def test_timeout_when_everything_dropped(self):
        link = memory_link(
            echo_core(), "w0", fault_plan=FaultPlan(drop_every=1),
            ack_timeout=0.01, max_attempts=3,
        )
        with pytest.raises(RequestTimeout):
            link.request(MessageType.ACK)

    def test_the_callers_payload_is_copied_once_and_never_mutated(self):
        from repro.coordination.messages import MessageFactory

        seen = []
        core = ServerCore(handler=lambda m: seen.append(m.payload) or {})
        link = memory_link(core, "w0")
        payload = {"x": 1}
        link.request(MessageType.ACK, payload)
        assert payload == {"x": 1}  # no trace context left in it
        (delivered,) = seen
        assert delivered is not payload and delivered == {"x": 1}
        # The one copy is the link's: the factory takes what it is given.
        message = MessageFactory(epoch=0).make(MessageType.ACK, "w0", payload)
        assert message.payload is payload

    def test_per_sender_dedup_keys_do_not_collide(self):
        """Two clients' message ids could coincide (the epoch nonce
        makes it unlikely, not impossible); the server must still treat
        their requests as distinct because it keys on the sender too."""
        core = echo_core()
        link_a = memory_link(core, "a")
        link_b = memory_link(core, "b")
        assert link_a.request(MessageType.ACK, {"who": "a"})["echo"]["who"] == "a"
        assert link_b.request(MessageType.ACK, {"who": "b"})["echo"]["who"] == "b"
        assert core.duplicates == 0
        assert core.executions == {("a", "ack"): 1, ("b", "ack"): 1}


class TestPayloadAccounting:
    def test_unobserved_link_and_core_never_walk_the_payload(
        self, monkeypatch
    ):
        """``payload_nbytes`` feeds the ``net.send`` / ``net.recv`` tags
        and byte counters only: with neither a tracer nor a registry
        attached, nobody reads it, so nobody computes it."""
        from repro.net import transport
        from repro.observability import MetricRegistry

        walks = []
        real = transport.payload_nbytes
        monkeypatch.setattr(
            transport, "payload_nbytes",
            lambda obj: walks.append(obj) or real(obj),
        )
        link = memory_link(echo_core(), "w0")
        link.request(MessageType.ACK, {"data": b"12345678"})
        assert walks == []
        # Attached, both ends count exactly what they did before.
        metrics = MetricRegistry()
        link = memory_link(echo_core(metrics=metrics), "w1", metrics=metrics)
        link.request(MessageType.ACK, {"data": b"12345678"})
        assert len(walks) == 2
        snapshot = metrics.snapshot()
        assert snapshot["net.payload_bytes_sent"] == 8
        assert snapshot["net.payload_bytes_received"] == 8


class TestTransportFaults:
    def test_injected_delay_applies(self):
        faults = TransportFaults(delays={1: 0.01, 3: 0.02})
        first = faults.next_send()
        assert first.delay == 0.01 and not first.reset
        assert faults.next_send().delay == 0.0
        assert faults.next_send().delay == 0.02
        assert faults.delays_injected == 2

    def test_from_plan_ignores_fault_free_plans(self):
        assert TransportFaults.from_plan(FaultPlan()) is None
        assert TransportFaults.from_plan(None) is None
        faults = TransportFaults.from_plan(FaultPlan(
            net_delays={2: 0.1}, connection_resets=(4,), drop_every=3,
        ))
        assert faults.delays == {2: 0.1}
        assert faults.resets == frozenset({4})
        assert (faults.drop_every, faults.duplicate_every) == (3, 0)

    def test_loss_stage_numbers_its_own_arrivals(self):
        faults = TransportFaults.from_plan(
            FaultPlan(drop_every=3, duplicate_every=2)
        )
        assert [faults.copies() for _ in range(6)] == [1, 2, 0, 2, 1, 0]
        assert (faults.arrived, faults.dropped, faults.duplicated) == (6, 2, 2)
        assert faults.sends == 0  # delays and resets count separately


class TestFaultNumbering:
    def test_mixed_plan_hits_the_same_sends(self):
        """Which send each fault of a mixed plan lands on.  Delays and
        resets index every send; drops and duplicates index only the
        sends that reached the loss stage (not reset, redial done, link
        open).  A replay on a redial is part of the redial, not a send."""
        from repro.observability import Tracer

        core = echo_core()
        seen = []
        dispatch = core.dispatch

        def recording(message):
            seen.append((message.msg_id & 0xFFFFF, message.post))
            return dispatch(message)

        core.dispatch = recording
        tracer = Tracer(process="test")
        plan = FaultPlan(
            drop_every=3, duplicate_every=4,
            net_delays={3: 0.001, 7: 0.002}, connection_resets=(2, 13),
        )
        link = memory_link(
            core, "w0", fault_plan=plan, ack_timeout=0.02, max_attempts=10,
            tracer=tracer,
        )
        for i in range(4):
            link.post(MessageType.ACK, {"i": i})
            link.post(MessageType.ACK, {"i": i})
            link.request(MessageType.ACK, {"i": i})
        transport = link.transport
        T, F = True, False
        assert seen == [
            (1, T), (1, T), (2, T), (3, F), (3, F), (4, T), (5, T), (6, F),
            (6, F), (7, T), (8, T), (7, T), (8, T), (9, F), (10, T), (11, T),
            (11, T), (12, F),
        ]
        sends = [
            (e["args"]["msg_id"] & 0xFFFFF, e["args"]["delivered"])
            for e in tracer.to_events() if e["name"] == "net.send"
        ]
        assert sends == [
            (1, T), (2, F), (2, T), (3, F), (3, T), (4, T), (5, F), (5, T),
            (6, T), (7, F), (7, T), (8, T), (9, F), (9, F), (9, T), (10, T),
            (11, F), (11, T), (12, T),
        ]
        faults = transport._faults
        assert (faults.sends, faults.resets_injected, faults.delays_injected) \
            == (19, 2, 2)
        lost = sum(not delivered for _, delivered in sends)
        assert lost - faults.resets_injected == 5  # dropped
        assert core.duplicates - transport.post_replays == 3  # duplicated
        assert (link.resends, transport.reconnects, transport.post_replays) \
            == (7, 2, 3)


class TestServerCore:
    def test_concurrent_duplicate_waits_for_original(self):
        release = threading.Event()

        def slow(message):
            release.wait(2.0)
            return {"done": True}

        core = ServerCore(handler=slow, reply_wait=5.0)
        from repro.coordination.messages import MessageFactory

        message = MessageFactory().make(MessageType.ACK, "w0", {})
        replies = []
        threads = [
            threading.Thread(
                target=lambda: replies.append(core.dispatch(message))
            )
            for _ in range(2)
        ]
        threads[0].start()
        threads[1].start()
        release.set()
        for thread in threads:
            thread.join(timeout=5.0)
        assert replies == [{"done": True}, {"done": True}]
        assert core.executions[("w0", "ack")] == 1
        assert core.duplicates == 1


class TestPostPath:
    """A post is deduplicated like a request but keeps no reply state."""

    def test_duplicate_post_never_parks_a_reader(self):
        from repro.coordination.messages import MessageFactory

        entered, release, returned = (threading.Event() for _ in range(3))
        calls = []

        def blocking(message):
            calls.append(message.msg_id)
            entered.set()
            release.wait(10.0)
            return {}

        def dispatch_duplicate():
            core.dispatch(message)
            returned.set()

        core = ServerCore(handler=blocking)
        message = MessageFactory().make(
            MessageType.RING_SEGMENT, "w0", {}, post=True
        )
        original = threading.Thread(target=core.dispatch, args=(message,))
        original.start()
        try:
            assert entered.wait(5.0)
            duplicate = threading.Thread(target=dispatch_duplicate)
            duplicate.start()
            # The original is still inside its handler: a duplicate that
            # waited for its reply would still be parked here.
            assert returned.wait(5.0), "the duplicate post waited"
            assert not release.is_set() and original.is_alive()
        finally:
            release.set()
            original.join(5.0)
        duplicate.join(5.0)
        assert calls == [message.msg_id]
        assert core.duplicates == 1
        assert core.executions == {("w0", "ring_segment"): 1}

    def test_only_requests_are_cached(self):
        core = echo_core()
        link = memory_link(core, "w0")
        posts = 5
        for i in range(posts):
            link.post(MessageType.ACK, {"i": i})
        reply = link.request(MessageType.ACK, {"i": posts})
        cached = [p for p in core._seen.values() if p is not None]
        assert [pending.payload for pending in cached] == [reply]
        assert len(core._seen) == posts + 1  # posts are seen, not cached
        # Every message still ages out of the dedup window.
        assert len(core._retired) == posts + 1
        assert core.handled == posts + 1

    @pytest.mark.parametrize("plan", [
        FaultPlan(duplicate_every=2),
        FaultPlan(duplicate_every=3, connection_resets=(2, 5, 9)),
        FaultPlan(drop_every=4, duplicate_every=2, connection_resets=(3,)),
    ])
    def test_handled_matches_executions_under_faults(self, plan):
        core = echo_core()
        link = memory_link(
            core, "w0", fault_plan=plan, ack_timeout=0.02, max_attempts=10,
        )
        for i in range(6):
            link.post(MessageType.RING_SEGMENT, {"i": i})
            link.post(MessageType.RING_SEGMENT, {"i": i})
            link.request(MessageType.ACK, {"i": i})
        assert core.duplicates > 0
        assert core.handled == sum(core.executions.values())
        assert core.executions == {
            ("w0", "ring_segment"): 12, ("w0", "ack"): 6,
        }
        assert len(core._seen) == 18
        assert sum(p is not None for p in core._seen.values()) == 6

    def test_observed_post_and_duplicate_book_as_before(self):
        from repro.coordination.messages import MessageFactory
        from repro.observability import MetricRegistry, Tracer

        tracer, metrics = Tracer(process="test"), MetricRegistry()
        core = echo_core(tracer=tracer, metrics=metrics, node_id="peer")
        message = MessageFactory(epoch=0).make(
            MessageType.RING_SEGMENT, "w0", {"data": b"12345678"}, post=True
        )
        core.dispatch(message)
        core.dispatch(message)
        recvs = [
            e["args"] for e in tracer.to_events() if e["name"] == "net.recv"
        ]
        assert recvs == [
            {
                "sender": "w0", "type": "ring_segment", "msg_id": 1,
                "duplicate": duplicate, "payload_bytes": 8, "post": True,
            }
            for duplicate in (False, True)
        ]
        snapshot = metrics.snapshot()
        assert (
            snapshot["net.requests"], snapshot["net.request_duplicates"],
            snapshot["net.payload_bytes_received"],
        ) == (1, 1, 8)
        assert (core.handled, core.duplicates, core.post_errors) == (1, 1, 0)


class TestIncarnations:
    def test_restarted_sender_is_not_misread_as_duplicate(self):
        """A worker restarted with the same worker id (the self-healing
        recovery model) allocates ids from a fresh epoch, so its first
        requests execute instead of being answered from the reply cache
        of an unrelated earlier message."""
        core = echo_core()
        first = memory_link(core, "w0")
        assert first.request(MessageType.ACK, {"inc": 1})["echo"]["inc"] == 1
        first.close()
        second = memory_link(core, "w0")
        assert second.request(MessageType.ACK, {"inc": 2})["echo"]["inc"] == 2
        assert core.duplicates == 0
        assert core.executions[("w0", "ack")] == 2

    def test_factory_epochs_disjoint_across_incarnations(self):
        from repro.coordination.messages import MessageFactory

        a = MessageFactory()
        b = MessageFactory()
        ids_a = {a.make(MessageType.ACK, "w0", {}).msg_id for _ in range(50)}
        ids_b = {b.make(MessageType.ACK, "w0", {}).msg_id for _ in range(50)}
        assert not ids_a & ids_b

    def test_epoch_zero_keeps_small_deterministic_ids(self):
        from repro.coordination.messages import MessageFactory

        factory = MessageFactory(epoch=0)
        assert factory.make(MessageType.ACK, "w0", {}).msg_id == 1
        assert factory.make(MessageType.ACK, "w0", {}).msg_id == 2


class TestDedupWindow:
    def test_reply_cache_evicts_after_ttl(self):
        """The dedup window is bounded: entries older than dedup_ttl are
        evicted, so a long-running server does not keep every
        (sender, msg_id) forever."""
        core = echo_core(dedup_ttl=0.02)
        link = memory_link(core, "w0")
        link.request(MessageType.ACK, {"i": 0})
        time.sleep(0.05)
        link.request(MessageType.ACK, {"i": 1})
        assert core.evicted >= 1
        assert len(core._seen) == 1  # only the fresh reply is cached

    def test_ttl_none_disables_eviction(self):
        core = echo_core(dedup_ttl=None)
        link = memory_link(core, "w0")
        for i in range(3):
            link.request(MessageType.ACK, {"i": i})
        assert core.evicted == 0
        assert len(core._seen) == 3

    def test_entries_inside_ttl_still_dedup(self):
        core = echo_core(dedup_ttl=60.0)
        link = memory_link(
            core, "w0", fault_plan=FaultPlan(duplicate_every=1)
        )
        for i in range(4):
            link.request(MessageType.ACK, {"i": i})
        assert core.duplicates == 4
        assert core.executions[("w0", "ack")] == 4
