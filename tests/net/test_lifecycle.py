"""One connection lifecycle, three pipes.

Every behaviour the shared connection core (``repro.net.connection``)
owns is asserted once here, parametrised over the memory, TCP and shm
transports: round trip, exactly-once under drops + duplicates, reset →
redial → retransmit, refusal after close, server close, injected delay,
the lifecycle spans, and the one-way message (``post``): exactly-once
under faults, replay after a real connection death, confirmation only
by a reply on the same pipe, bounded writes.  The second half kills a
*real* server process under a live link: the reader must take the whole
connection down on every pipe, and the next send must redial.

Transport-specific behaviour (heartbeat bookkeeping, handshake
rejection, ring geometry, segment cleanup) stays in ``test_tcp.py`` /
``test_shm.py`` / ``test_transport.py``.
"""

import glob
import os
import signal
import socket
import subprocess
import sys
import tempfile
import textwrap
import threading
import time
import uuid

import numpy as np
import pytest

from repro.coordination.faults import FaultPlan
from repro.coordination.messages import MessageType
from repro.net import (
    MemoryPeerHost,
    RequestTimeout,
    RingDegraded,
    RingMailbox,
    RingNode,
    ServerCore,
    ShmServer,
    TcpServer,
    TransportClosed,
    shm_link,
    tcp_link,
)
from repro.net import wire
from repro.net.connection import hang_up
from repro.net.shm import SHM_NAME_PREFIX
from repro.observability import MetricRegistry, Tracer

SOCKET_BACKED = ("tcp", "shm")


def shm_segments():
    return set(glob.glob(f"/dev/shm/{SHM_NAME_PREFIX}*"))


class Endpoint:
    """A served ``ServerCore`` plus a way to dial it, per transport."""

    def __init__(self, kind, tracer=None):
        self.kind = kind
        self.seen = []
        self.core = ServerCore(handler=self._handle, tracer=tracer)
        self.server = None
        if kind == "memory":
            # The memory pipe has no listener; the peer host's registry
            # plays the server (closing it severs the issued links).
            self.host = MemoryPeerHost()
            self.addr = self.host.serve(self.core, "srv")
        elif kind == "tcp":
            self.server = TcpServer(self.core, tracer=tracer).start()
        else:
            self.server = ShmServer(self.core, tracer=tracer).start()

    def _handle(self, message):
        self.seen.append(message.payload.get("i"))
        return {"echo": dict(message.payload)}

    def link(self, node_id="w0", **options):
        """A connected ``ReliableLink`` (fault_plan / ack_timeout / ...)."""
        if self.kind == "memory":
            return self.host.connect(self.addr, node_id, **options)
        if self.kind == "tcp":
            link, _ = tcp_link(
                self.server.host, self.server.port, node_id,
                heartbeat_interval=None, **options,
            )
        else:
            link, _ = shm_link(self.server.path, node_id, **options)
        return link

    def close(self):
        (self.server or self.host).close()


@pytest.fixture(params=["memory", "tcp", "shm"])
def kind(request):
    return request.param


@pytest.fixture
def endpoint(kind):
    before = shm_segments()
    built = Endpoint(kind)
    yield built
    built.close()
    # No pipe may leave a segment behind, whatever the test did to it.
    assert wait_until(lambda: not shm_segments() - before, timeout=2.0)


class TestLifecycle:
    def test_round_trip(self, endpoint):
        link = endpoint.link()
        try:
            assert link.request(MessageType.ACK, {"x": 1}) == {"echo": {"x": 1}}
            assert link.transport.connected
            assert link.transport.reconnects == 0
            if endpoint.server is not None:
                assert link.transport.server_node == "am"
                assert endpoint.server.connections_accepted == 1
        finally:
            link.close()

    def test_exactly_once_under_drops_and_duplicates(self, endpoint):
        plan = FaultPlan.for_link(drop_every=3, duplicate_every=4)
        link = endpoint.link(fault_plan=plan, ack_timeout=0.2)
        try:
            for i in range(12):
                assert link.request(MessageType.ACK, {"i": i})["echo"] == {
                    "i": i
                }
            # The drop schedule hit real sends and the resend path ran ...
            assert link.transport._faults.dropped >= 4
            assert link.resends >= 4
            # ... the duplicates reached the server and were absorbed ...
            assert endpoint.core.duplicates >= 1
            # ... and the handler saw each message exactly once, in order.
            assert endpoint.seen == list(range(12))
            assert endpoint.core.executions[("w0", "ack")] == 12
        finally:
            link.close()

    def test_reset_redials_and_retransmits(self, endpoint):
        plan = FaultPlan(connection_resets=(2,))
        link = endpoint.link(fault_plan=plan, ack_timeout=0.2)
        try:
            for i in range(4):
                assert link.request(MessageType.ACK, {"i": i})["echo"] == {
                    "i": i
                }
            assert link.transport.reconnects == 1
            assert link.resends >= 1
            # Exactly-once despite the lost in-flight message.
            assert endpoint.core.executions[("w0", "ack")] == 4
            if endpoint.server is not None:
                assert endpoint.server.connections_accepted == 2
        finally:
            link.close()

    def test_closed_transport_refuses_sends(self, endpoint):
        link = endpoint.link()
        assert link.request(MessageType.ACK, {"i": 0})["echo"] == {"i": 0}
        link.close()
        assert not link.transport.connected
        with pytest.raises(RequestTimeout):
            link.request(MessageType.ACK, ack_timeout=0.01)
        assert endpoint.seen == [0]

    def test_closed_server_handles_nothing_more(self, endpoint):
        """Once ``close()`` has returned, no request reaches the handler
        — not even one the shm pipe finds in its ring behind the hangup."""
        link = endpoint.link(ack_timeout=0.05, max_attempts=2)
        try:
            link.request(MessageType.ACK, {"i": 0})
            endpoint.close()
            handled = endpoint.core.handled
            for _ in range(3):
                with pytest.raises((RequestTimeout, TransportClosed)):
                    link.request(MessageType.ACK, {"after": "close"})
                with pytest.raises((RequestTimeout, TransportClosed)):
                    link.post(MessageType.ACK, {"after": "close"})
            time.sleep(0.1)
            assert endpoint.core.handled == handled
            assert endpoint.seen == [0]
        finally:
            link.close()

    def test_server_close_unblocks_client(self, endpoint):
        link = endpoint.link(ack_timeout=0.2, max_attempts=2)
        try:
            link.request(MessageType.ACK, {})
            endpoint.close()
            started = time.monotonic()
            with pytest.raises((RequestTimeout, TransportClosed)):
                link.request(MessageType.ACK, {"after": "close"})
            assert time.monotonic() - started < 5.0
            assert not link.transport.connected
        finally:
            link.close()

    def test_injected_delay_applies(self, endpoint):
        plan = FaultPlan(net_delays={2: 0.15})
        link = endpoint.link(fault_plan=plan)
        try:
            timings = []
            for i in range(3):
                started = time.monotonic()
                link.request(MessageType.ACK, {"i": i})
                timings.append(time.monotonic() - started)
            assert timings[1] >= 0.15
            assert link.transport._faults.delays_injected == 1
        finally:
            link.close()

    def test_injected_delay_does_not_outlive_close(self, endpoint):
        plan = FaultPlan(net_delays={1: 30.0})
        link = endpoint.link(
            fault_plan=plan, ack_timeout=0.05, max_attempts=2
        )
        outcome = []

        def doomed():
            try:
                link.request(MessageType.ACK, {"i": 0})
            except RequestTimeout:
                outcome.append("timeout")

        thread = threading.Thread(target=doomed, daemon=True)
        thread.start()
        time.sleep(0.1)  # let the send enter its 30 s delay
        started = time.monotonic()
        link.close()
        thread.join(timeout=5.0)
        assert not thread.is_alive(), "close() did not interrupt the delay"
        assert time.monotonic() - started < 2.0
        assert outcome == ["timeout"]
        assert endpoint.seen == []

    def test_close_does_not_wait_for_a_parked_sender(self, endpoint):
        """close() must return while a request is still parked in a slow
        handler — on the memory pipe the sender's own thread is inside
        that handler, holding the send lock."""
        release = threading.Event()
        endpoint.core.handler = lambda m: {"released": release.wait(10.0)}
        link = endpoint.link(ack_timeout=5.0, max_attempts=1)
        outcome = []

        def parked():
            try:
                outcome.append(link.request(MessageType.ACK, {}))
            except RequestTimeout:
                outcome.append("timeout")

        thread = threading.Thread(target=parked, daemon=True)
        thread.start()
        time.sleep(0.1)  # let the request reach the handler
        started = time.monotonic()
        link.close()
        assert time.monotonic() - started < 1.0
        release.set()
        # close() woke the parked request: it ends now, not after its
        # ack_timeout, and never as an empty reply.
        thread.join(timeout=1.0)
        assert not thread.is_alive()
        assert len(outcome) == 1
        assert outcome[0] in ("timeout", {"released": True})

    def test_lifecycle_spans(self, kind):
        tracer = Tracer(process="test")
        endpoint = Endpoint(kind, tracer=tracer)
        try:
            link = endpoint.link(
                fault_plan=FaultPlan(connection_resets=(1,)),
                ack_timeout=0.1, tracer=tracer,
            )
            try:
                link.request(MessageType.ACK, {"x": 1})
            finally:
                link.close()
        finally:
            endpoint.close()
        events = tracer.to_events()
        names = {event["name"] for event in events}
        assert {"net.send", "net.recv", "net.reconnect"} <= names
        (redial,) = [e for e in events if e["name"] == "net.reconnect"]
        assert redial["args"]["ok"] is True and redial["args"]["attempts"] == 1
        if kind in SOCKET_BACKED:
            accepts = [e for e in events if e["name"] == "net.accept"]
            assert len(accepts) == 2  # the first dial and the redial
            assert all(e["args"]["peer"] == "w0" for e in accepts)
            assert (kind == "shm") == all(
                e["args"].get("transport") == "shm" for e in accepts
            )


class TestPosts:
    """``ReliableLink.post``: dispatched exactly like a request, never
    answered; confirmed by a later reply on the same pipe; replayed on a
    new one until then."""

    def test_post_is_dispatched_and_unanswered(self, kind):
        tracer, metrics = Tracer(process="test"), MetricRegistry()
        endpoint = Endpoint(kind, tracer=tracer)
        try:
            link = endpoint.link(tracer=tracer, metrics=metrics)
            try:
                assert link.post(MessageType.ACK, {"i": 0}) is None
                assert wait_until(lambda: endpoint.seen == [0])
                assert link.request(MessageType.ACK, {"i": 1})["echo"] == {
                    "i": 1
                }
                # The reply confirmed the post: nothing left to replay.
                assert link.transport._posted == {}
            finally:
                link.close()
        finally:
            endpoint.close()
        assert endpoint.core.executions[("w0", "ack")] == 2
        assert endpoint.core.handled == 2
        assert metrics.counter("net.posts").value == 1
        events = tracer.to_events()
        for name in ("net.send", "net.recv"):
            flags = [
                e["args"].get("post", False) for e in events
                if e["name"] == name
            ]
            assert flags == [True, False], name
        if endpoint.server is not None:
            # One reply on the wire, for the one request.
            assert link.transport.frames_sent == 2

    def test_exactly_once_under_drops_duplicates_and_resets(self, endpoint):
        plan = FaultPlan(
            drop_every=3, duplicate_every=4, connection_resets=(5, 11)
        )
        link = endpoint.link(fault_plan=plan, ack_timeout=0.2)
        posts = 20
        try:
            for i in range(posts):
                link.post(MessageType.ACK, {"i": i})
            link.request(MessageType.ACK, {"i": posts})
            assert link.transport._posted == {}
            assert link.transport._faults.dropped >= 4
            assert link.transport.reconnects == 2
        finally:
            link.close()
        assert endpoint.core.executions[("w0", "ack")] == posts + 1
        assert endpoint.core.duplicates > 0
        # In order, and the confirming request after every post.
        assert endpoint.seen == list(range(posts + 1))

    def test_concurrent_posters_and_requesters_share_one_link(self, endpoint):
        """More senders than cores on one link, the reader confirming
        under them: nothing executed twice, nothing left unconfirmed."""
        link = endpoint.link(
            fault_plan=FaultPlan(duplicate_every=7, connection_resets=(40,)),
            ack_timeout=0.5,
        )
        senders, each = 6, 40
        errors = []

        def sender(lane):
            try:
                for i in range(each):
                    if i % 5 == 4:
                        link.request(MessageType.ACK, {"i": (lane, i)})
                    else:
                        link.post(MessageType.ACK, {"i": (lane, i)})
            except Exception as exc:  # surfaced below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [
                threading.Thread(target=sender, args=(lane,), daemon=True)
                for lane in range(senders)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30.0)
            assert all(not t.is_alive() for t in threads)
            assert not errors, errors
            link.request(MessageType.ACK, {"i": "last"})
            assert link.transport._posted == {}
        finally:
            sys.setswitchinterval(interval)
            link.close()
        assert endpoint.core.executions[("w0", "ack")] == senders * each + 1
        for lane in range(senders):  # per sender, in its own order
            mine = [i[1] for i in endpoint.seen[:-1] if i[0] == lane]
            assert mine == list(range(each))

    def test_failed_post_is_counted_not_swallowed(self, kind):
        tracer, metrics = Tracer(process="test"), MetricRegistry()
        endpoint = Endpoint(kind, tracer=tracer)
        endpoint.core.metrics = metrics

        def handler(message):
            raise ValueError("no such bucket")

        endpoint.core.handler = handler
        try:
            link = endpoint.link()
            try:
                link.post(MessageType.ACK, {"i": 0})
                assert wait_until(lambda: endpoint.core.post_errors == 1)
            finally:
                link.close()
        finally:
            endpoint.close()
        assert metrics.counter("net.post_errors").value == 1
        (failed,) = [
            e for e in tracer.to_events() if e["name"] == "net.post_error"
        ]
        assert "no such bucket" in failed["args"]["error"]
        assert failed["args"]["sender"] == "w0"

    def test_a_post_no_transport_takes_raises(self, endpoint):
        link = endpoint.link(max_attempts=3)
        link.close()
        started = time.monotonic()
        with pytest.raises(RequestTimeout):
            link.post(MessageType.ACK, {"i": 0})
        assert time.monotonic() - started < 1.0
        assert endpoint.seen == []

    def test_a_reply_confirms_only_what_its_own_pipe_carried(self, endpoint):
        link = endpoint.link()
        transport = link.transport
        try:
            link.post(MessageType.ACK, {"i": 0})
            (first,) = transport._posted
            earlier = transport._pipe
            transport._drop_connection()
            assert transport._marks == {}
            link.post(MessageType.ACK, {"i": 1})  # redial: replays post 0
            assert transport.post_replays == 1
            assert list(transport._posted) == [first, first + 1]
            # A request last written on the current pipe, behind both ...
            with transport._posts_lock:
                transport._marks[999] = (transport._pipe, first + 1)
            # ... whose reply straggles in off the *earlier* pipe.
            transport._deliver_reply(999, {}, None, earlier)
            assert list(transport._posted) == [first, first + 1]
            with transport._posts_lock:
                transport._marks[999] = (transport._pipe, first + 1)
            transport._deliver_reply(999, {}, None, transport._pipe)
            assert transport._posted == {} and transport._marks == {}
        finally:
            link.close()
        assert wait_until(lambda: endpoint.seen == [0, 1])
        assert endpoint.core.executions[("w0", "ack")] == 2


@pytest.fixture(params=SOCKET_BACKED)
def socket_endpoint(request):
    before = shm_segments()
    built = Endpoint(request.param)
    yield built
    built.close()
    assert wait_until(lambda: not shm_segments() - before, timeout=2.0)


class TestPostsAcrossConnectionDeath:
    def test_posts_behind_a_dead_connection_are_replayed_in_order(
        self, socket_endpoint
    ):
        """The *server* side kills the connection with posts still
        unread behind a parked handler: the redial replays them,
        original ids, before the confirming request."""
        endpoint = socket_endpoint
        parked, release = threading.Event(), threading.Event()
        record = endpoint.core.handler

        def handler(message):
            if message.payload.get("i") == 0:
                parked.set()
                release.wait(10.0)
            return record(message)

        endpoint.core.handler = handler
        metrics = MetricRegistry()
        link = endpoint.link(ack_timeout=0.2, metrics=metrics)
        transport = link.transport
        try:
            for i in range(3):
                link.post(MessageType.ACK, {"i": i})
            assert parked.wait(5.0)
            with endpoint.server._conn_lock:
                connections = list(endpoint.server._connections)
            for conn in connections:
                hang_up(conn)
            assert wait_until(lambda: not transport.connected)
            release.set()
            reply = link.request(MessageType.ACK, {"i": 3})
            assert reply["echo"] == {"i": 3}
            assert transport.reconnects == 1
            assert transport.post_replays == 3
            assert metrics.counter("net.post_replays").value == 3
            assert transport._posted == {}
        finally:
            release.set()
            link.close()
        # Executed once each, in order; the request returned after them.
        assert endpoint.seen == [0, 1, 2, 3]
        assert endpoint.core.executions[("w0", "ack")] == 4
        assert endpoint.core.duplicates >= 1  # post 0 had been dispatched


class TestPoisonedFrames:
    """A frame whose header names an array numpy cannot rebuild (dtype
    ``object``) is a wire violation like any other: whoever reads it
    drops the connection, quietly, and the link heals by redialling."""

    @staticmethod
    def poison_next_header(monkeypatch):
        real, spent = wire._dtype_name, []

        def once(dtype):
            if spent:
                return real(dtype)
            spent.append(dtype)
            return "object"

        monkeypatch.setattr(wire, "_dtype_name", once)
        return spent

    def test_poisoned_reply_drops_the_pipe_and_the_next_request_redials(
        self, socket_endpoint, monkeypatch
    ):
        endpoint = socket_endpoint
        endpoint.core.handler = lambda message: {"grad": np.arange(4.0)}
        link = endpoint.link(ack_timeout=0.3, max_attempts=1)
        transport = link.transport
        try:
            spent = self.poison_next_header(monkeypatch)
            with pytest.raises(RequestTimeout):
                link.request(MessageType.STATUS, {})
            assert spent, "the reply never carried the poisoned header"
            # The reader met the frame, and took the whole pipe with it.
            assert wait_until(lambda: not transport.connected)
            reply = link.request(MessageType.STATUS, {})
            np.testing.assert_array_equal(reply["grad"], np.arange(4.0))
            assert transport.connected
            assert transport.reconnects == 1
            assert endpoint.server.connections_accepted == 2
        finally:
            link.close()

    def test_poisoned_request_ends_the_connection_quietly_and_is_counted(
        self, socket_endpoint, monkeypatch
    ):
        endpoint = socket_endpoint
        link = endpoint.link(ack_timeout=0.3)
        try:
            self.poison_next_header(monkeypatch)
            reply = link.request(MessageType.STATUS, {"i": np.arange(3)})
            np.testing.assert_array_equal(reply["echo"]["i"], np.arange(3))
            assert endpoint.server.wire_errors == 1
            assert link.transport.reconnects == 1
            assert endpoint.core.executions[("w0", "status")] == 1
        finally:
            link.close()


class DeafPeer:
    """A TCP peer that accepts, welcomes — and never reads again."""

    def __init__(self):
        self.listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        # Inherited by accepted sockets: the sender hits a full pipe
        # after a few hundred kilobytes instead of a few megabytes.
        self.listener.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
        self.listener.bind(("127.0.0.1", 0))
        self.listener.listen(16)
        self.port = self.listener.getsockname()[1]
        self.accepted = []
        threading.Thread(target=self._accept, daemon=True).start()

    def _accept(self):
        while True:
            try:
                conn, _ = self.listener.accept()
            except OSError:
                return
            self.accepted.append(conn)
            wire.read_frame(conn)  # the hello
            wire.write_frame(conn, wire.welcome_frame("deaf"))

    def close(self):
        hang_up(self.listener)
        for conn in self.accepted:
            hang_up(conn)


def threads_in_sendmsg():
    frames = sys._current_frames()
    stuck = []
    for thread in threading.enumerate():
        frame = frames.get(thread.ident)
        while frame is not None:
            if frame.f_code.co_name == "sendmsg_gather":
                stuck.append(thread.name)
            frame = frame.f_back
    return stuck


class TestBoundedWrites:
    def test_post_to_a_deaf_peer_returns_or_raises_in_time(self):
        peer = DeafPeer()
        link, transport = tcp_link(
            "127.0.0.1", peer.port, "w0", heartbeat_interval=None,
            ack_timeout=0.2, max_attempts=3, max_reconnect_attempts=2,
        )
        horizon = 3 * 0.2
        blob = bytes(1 << 20)
        outcomes = []
        try:
            for i in range(8):
                started = time.monotonic()
                try:
                    link.post(MessageType.ACK, {"i": i, "blob": blob})
                    outcomes.append("taken")
                except RequestTimeout:
                    outcomes.append("lost")
                assert time.monotonic() - started < horizon + 1.0, outcomes
            # The pipe did fill: some post was lost and said so.
            assert "lost" in outcomes
            started = time.monotonic()
            with pytest.raises(RequestTimeout):
                link.request(MessageType.ACK, {"i": -1})
            assert time.monotonic() - started < horizon + 1.0
        finally:
            link.close()
            peer.close()
        assert threads_in_sendmsg() == []

    def test_allreduce_past_a_deaf_successor_degrades_in_time(self):
        peer = DeafPeer()
        links = []

        def connect(addr):
            link, _ = tcp_link(
                "127.0.0.1", peer.port, "w0", heartbeat_interval=None,
                ack_timeout=0.1, max_attempts=3, max_reconnect_attempts=2,
            )
            links.append(link)
            return link

        step_timeout, horizon = 0.5, 3 * 0.1
        node = RingNode(
            "w0", RingMailbox(), connect, bucket_bytes=64 * 1024, window=1,
            step_timeout=step_timeout,
        )
        node.install({
            "epoch": 0, "order": ["w0", "w1"], "active_from": 0,
            "peers": {"w0": "tcp://unused:1", "w1": "tcp://deaf:1"},
        })
        grads = {"w": np.ones(64 * 1024)}  # 4 buckets per partition
        started = time.monotonic()
        try:
            with pytest.raises(RingDegraded):
                node.allreduce(0, 0, grads)
            elapsed = time.monotonic() - started
            assert elapsed < step_timeout + horizon + 1.0
            assert node._suspects == {"w1"}
        finally:
            node.close()
            peer.close()
        assert node._links == {}
        assert all(not link.transport.connected for link in links)
        assert threads_in_sendmsg() == []


# -- a real server process dying under a live link ------------------------------


SERVER_SCRIPT = textwrap.dedent("""
    import sys, time
    from repro.net import ServerCore, ShmServer, TcpServer

    kind, address = sys.argv[1], sys.argv[2]
    core = ServerCore(handler=lambda m: {"pong": True})
    if kind == "tcp":
        server = TcpServer(core, port=int(address)).start()
        address = server.port
    else:
        server = ShmServer(core, path=address).start()
    print("READY", address, flush=True)
    time.sleep(120)
""")


class ServerProcess:
    """``SERVER_SCRIPT`` as a child process that can be SIGKILLed."""

    def __init__(self, kind, address):
        env = dict(os.environ)
        src_root = os.path.join(os.path.dirname(__file__), "..", "..", "src")
        env["PYTHONPATH"] = os.path.abspath(src_root)
        self.kind = kind
        # Rebinding a TCP port can race the killed process's teardown.
        for _ in range(50):
            self.process = subprocess.Popen(
                [sys.executable, "-c", SERVER_SCRIPT, kind, str(address)],
                env=env, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                text=True,
            )
            line = self.process.stdout.readline()
            if line.startswith("READY"):
                self.address = line.split()[1]
                return
            self.process.wait(timeout=10.0)
            time.sleep(0.1)
        raise AssertionError(f"{kind} server never came up on {address}")

    def link(self, **options):
        if self.kind == "tcp":
            return tcp_link(
                "127.0.0.1", int(self.address), "w0",
                heartbeat_interval=None, **options,
            )
        return shm_link(self.address, "w0", **options)

    def kill(self):
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGKILL)
        self.process.wait(timeout=10.0)
        self.process.stdout.close()


def wait_until(predicate, timeout=5.0):
    deadline = time.monotonic() + timeout
    while not predicate() and time.monotonic() < deadline:
        time.sleep(0.02)
    return predicate()


@pytest.fixture(params=SOCKET_BACKED)
def server_process(request):
    address = 0 if request.param == "tcp" else os.path.join(
        tempfile.gettempdir(), f"elan-life-{uuid.uuid4().hex[:8]}.sock"
    )
    before = shm_segments()
    started = [ServerProcess(request.param, address)]
    yield started
    for process in started:
        process.kill()
    if request.param == "shm":
        try:
            os.unlink(address)
        except FileNotFoundError:
            pass
    assert wait_until(lambda: not shm_segments() - before)


class TestServerDeath:
    def test_restart_on_same_address_heals_the_link(self, server_process):
        """SIGKILL the server, bring a new one up on the same address:
        the reader saw the death, so the very next request redials."""
        first = server_process[0]
        link, transport = first.link(ack_timeout=0.5)
        try:
            assert link.request(MessageType.ACK) == {"pong": True}
            first.kill()
            assert wait_until(lambda: not transport.connected), (
                "the reader never noticed the server's death"
            )
            server_process.append(ServerProcess(first.kind, first.address))
            assert link.request(MessageType.ACK) == {"pong": True}
            assert transport.reconnects == 1
            assert transport.connected
        finally:
            link.close()

    def test_death_without_restart_leaves_nothing_behind(self, server_process):
        first = server_process[0]
        before = shm_segments()
        link, transport = first.link(ack_timeout=0.1, max_attempts=2)
        try:
            assert link.request(MessageType.ACK) == {"pong": True}
            first.kill()
            assert wait_until(lambda: not transport.connected)
            with pytest.raises(RequestTimeout):
                link.request(MessageType.ACK)
            assert not transport.connected
            assert transport.reconnects == 0
            # The dead link's segments are gone *now*, not at close().
            assert not shm_segments() - before
        finally:
            link.close()
