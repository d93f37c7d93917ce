"""TCP transport tests: handshake rejection, heartbeat, raw socket errors.

The connection lifecycle TCP shares with the memory and shm transports
(round trip, drops, resets, refusal after close) is in
``test_lifecycle.py``.
"""

import socket
import time

import pytest

from repro.coordination.messages import MessageType
from repro.net import ServerCore, TcpServer, tcp_link
from repro.net import wire
from repro.net.tcp import TcpTransport


@pytest.fixture
def server():
    core = ServerCore(handler=lambda m: {"echo": dict(m.payload)})
    tcp = TcpServer(core).start()
    yield tcp
    tcp.close()


class TestHandshake:
    def test_version_mismatch_is_rejected(self, server):
        sock = socket.create_connection((server.host, server.port))
        try:
            hello = wire.hello_frame("w0")
            hello["version"] = wire.PROTOCOL_VERSION + 1
            wire.write_frame(sock, hello)
            answer = wire.read_frame(sock)
            assert answer["kind"] == "reject"
            assert "version mismatch" in answer["reason"]
            # The server closes after rejecting.
            assert wire.read_frame(sock) is None
        finally:
            sock.close()
        assert server.handshakes_rejected == 1
        assert server.connections_accepted == 0

    def test_client_raises_on_rejection(self, server):
        transport = TcpTransport(
            server.host, server.port, "w0", on_reply=lambda *a: None,
            heartbeat_interval=None,
        )
        # Sabotage the advertised version to provoke the reject path.
        real = wire.hello_frame
        try:
            wire.hello_frame = lambda node: {**real(node), "version": 999}
            with pytest.raises(wire.WireError, match="rejected"):
                transport.connect()
        finally:
            wire.hello_frame = real
            transport.close()


    def test_hello_without_lean_is_welcomed_without_it(self, server):
        """A version-2 hello names no format — there is nothing to
        negotiate — and the welcome names none back.  Lean frames are
        simply part of the protocol: one whose head disagrees with its
        own length is a violation the server ends the connection over."""
        sock = socket.create_connection((server.host, server.port))
        try:
            wire.write_frame(sock, wire.hello_frame("w0"))
            welcome = wire.read_frame(sock)
            assert welcome["kind"] == "welcome"
            assert not {"codec", "bin", "lean"} & set(welcome)
            sock.sendall(wire._LENGTH.pack(
                wire.BINARY_FLAG | wire.LEAN_FLAG | 59
            ) + bytes(59))
            assert wire.read_frame(sock) is None  # hung up on
        finally:
            sock.close()
        assert server.wire_errors == 1


class TestSocketOptions:
    def test_nodelay_on_both_ends_and_binary_frames_still_counted(
        self, server, monkeypatch
    ):
        """Two requests overlapping on one link (the ring pump beside a
        probe, windowed chunk fetches, a heartbeat) must not stall on
        Nagle x delayed ACK; and an unobserved TCP link counts its
        frames and their bytes — the binary one's raw array included —
        without walking any payload."""
        import numpy as np

        from repro.net import transport as seam

        walks = []
        for module in (wire, seam):
            monkeypatch.setattr(
                module, "payload_nbytes", lambda obj: walks.append(obj) or 0
            )
        link, transport = tcp_link(
            server.host, server.port, "w0", heartbeat_interval=None
        )
        try:
            link.request(MessageType.ACK, {"x": 1})
            link.request(MessageType.ACK, {"data": np.arange(4.0)})
            with server._conn_lock:
                accepted = list(server._connections)
            assert len(accepted) == 1
            for sock in (transport._pipe.sock, accepted[0]):
                assert sock.getsockopt(
                    socket.IPPROTO_TCP, socket.TCP_NODELAY
                ) != 0
            assert transport.frames_sent == 2
            assert transport.bytes_sent > np.arange(4.0).nbytes
            assert walks == []
        finally:
            link.close()


class TestHeartbeat:
    def test_keepalive_acked(self, server):
        link, transport = tcp_link(
            server.host, server.port, "w0", heartbeat_interval=0.05
        )
        try:
            deadline = time.monotonic() + 2.0
            while transport.heartbeats_acked < 2:
                assert time.monotonic() < deadline, "no heartbeat acks"
                time.sleep(0.02)
            assert server.heartbeats_received >= 2
            assert transport.last_heartbeat_rtt is not None
            assert "w0" in server.last_seen
        finally:
            link.close()


class TestReconnect:
    def test_server_restart_mid_session(self):
        """A server that goes away entirely: the client's reconnect
        backoff keeps retrying until a new listener is up on the port."""
        core = ServerCore(handler=lambda m: {"pong": True})
        first = TcpServer(core).start()
        port = first.port
        link, transport = tcp_link(
            "127.0.0.1", port, "w0", ack_timeout=0.5,
            heartbeat_interval=None,
        )
        try:
            assert link.request(MessageType.ACK) == {"pong": True}
            first.close()
            # Rebinding the port races the old connection's teardown
            # (it sits in FIN_WAIT until the client notices the EOF).
            second = None
            for _ in range(100):
                try:
                    second = TcpServer(core, port=port).start()
                    break
                except OSError:
                    time.sleep(0.05)
            assert second is not None, "port never became free"
            try:
                assert link.request(MessageType.ACK) == {"pong": True}
                assert transport.reconnects >= 1
            finally:
                second.close()
        finally:
            link.close()

class TestRawSocketErrors:
    def test_write_oserror_is_lost_send_not_crash(self, server):
        """A real broken pipe / ECONNRESET during the socket write must
        surface as a lost send the timeout-resend recovers — never as an
        exception out of ReliableLink.request."""
        link, transport = tcp_link(
            server.host, server.port, "w0", ack_timeout=0.5,
            heartbeat_interval=None,
        )
        try:
            real_write = transport._write_message
            failures = []

            def broken_pipe_once(message):
                if not failures:
                    failures.append(True)
                    transport._drop_connection()
                    raise OSError(32, "Broken pipe")
                return real_write(message)

            transport._write_message = broken_pipe_once
            assert link.request(MessageType.ACK, {"x": 1})["echo"] == {"x": 1}
            assert failures, "the injected write failure never fired"
            assert link.resends >= 1
            assert transport.reconnects >= 1
        finally:
            link.close()

    def test_peer_shutdown_mid_session_recovers(self, server):
        """Shut the socket's write half down under the transport: the
        next request must reconnect and succeed rather than raise."""
        link, transport = tcp_link(
            server.host, server.port, "w0", ack_timeout=0.5,
            heartbeat_interval=None,
        )
        try:
            assert link.request(MessageType.ACK, {"i": 0})["echo"]["i"] == 0
            transport._pipe.sock.shutdown(socket.SHUT_RDWR)
            assert link.request(MessageType.ACK, {"i": 1})["echo"]["i"] == 1
            assert transport.reconnects >= 1
        finally:
            link.close()


class TestHeartbeatBookkeeping:
    def test_acked_timestamps_are_pruned(self, server):
        """Every acked heartbeat's timestamp is popped; the map only
        ever holds the in-flight few, not one entry per beat."""
        link, transport = tcp_link(
            server.host, server.port, "w0", heartbeat_interval=0.03
        )
        try:
            deadline = time.monotonic() + 3.0
            while transport.heartbeats_acked < 5:
                assert time.monotonic() < deadline, "heartbeats not acked"
                time.sleep(0.02)
            assert len(transport._heartbeat_sent_at) <= 2
        finally:
            link.close()

    def test_drop_connection_clears_inflight_heartbeats(self, server):
        link, transport = tcp_link(
            server.host, server.port, "w0", heartbeat_interval=None
        )
        try:
            transport._heartbeat_sent_at[1] = time.perf_counter()
            transport._drop_connection()
            assert transport._heartbeat_sent_at == {}
        finally:
            link.close()
