"""Length-prefixed TCP transport: the socket pipe, client and server.

The socket layer under the :class:`~repro.net.transport.Transport` seam.
The connection lifecycle itself — dial, handshake, drop, backoff redial,
fault injection, reader hand-off, accept loop, dispatch-and-reply — is
:mod:`repro.net.connection`'s, shared with the shm and memory
transports.  What is TCP's own lives here: :class:`SocketPipe` (frames
over a stream socket), the client's dial + ``hello``, its list of
candidate AM endpoints, and the keep-alive:
:class:`TcpTransport` exchanges ``heartbeat``/``heartbeat_ack`` frames
on an idle link so half-dead connections are noticed before a request
needs them.  :class:`TcpServer` is the shared server on an ``AF_INET``
listener.
"""

from __future__ import annotations

import socket
import time
import typing

from ..coordination.faults import ExponentialBackoff, FaultPlan
from ..coordination.messages import Message
from . import wire
from .connection import (
    CONNECT_TIMEOUT,
    Connection,
    ConnectionServer,
    FramePipe,
    hang_up,
)
from .transport import ReliableLink, ServerCore

#: Default cadence of client keep-alive heartbeats (seconds).
HEARTBEAT_INTERVAL = 0.5


class SocketPipe(FramePipe):
    """A handshaken stream socket carrying length-prefixed frames."""

    #: Every frame body is read into a buffer of its own.
    borrowed = False

    def __init__(self, sock: socket.socket, node: str):
        super().__init__(node)
        # Every frame leaves in one ``sendmsg``/``sendall``, so Nagle has
        # nothing to coalesce — but two requests overlapping on one link
        # stall ≈ 40 ms on Nagle × delayed ACK without this.
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.sock = sock

    def _put(self, buffers: list, total: int, timeout: float) -> int:
        wire.sendmsg_gather(self.sock, buffers, timeout)
        return total

    def read(self) -> "dict | Message | None":
        return wire.read_frame(self.sock, self.node)

    @staticmethod
    def count(metrics, nbytes: int) -> None:
        metrics.counter("net.wire_bytes_sent").inc(nbytes)

    def close(self) -> None:
        hang_up(self.sock)


class TcpTransport(Connection):
    """One reconnecting TCP client connection (satisfies ``Transport``)."""

    def __init__(
        self,
        host: str,
        port: int,
        node_id: str,
        on_reply: typing.Callable[[int, dict], None],
        fault_plan: "FaultPlan | None" = None,
        backoff: "ExponentialBackoff | None" = None,
        tracer: "typing.Any | None" = None,
        heartbeat_interval: "float | None" = HEARTBEAT_INTERVAL,
        max_reconnect_attempts: int = 8,
        metrics: "typing.Any | None" = None,
        endpoints: "typing.Sequence[tuple[str, int]] | None" = None,
    ):
        super().__init__(
            node_id, on_reply,
            endpoints=(
                [(str(h), int(p)) for h, p in endpoints]
                if endpoints else [(host, port)]
            ),
            backoff=backoff or ExponentialBackoff(base=0.005, max_delay=0.25),
            fault_plan=fault_plan, tracer=tracer,
            metrics=metrics, max_reconnect_attempts=max_reconnect_attempts,
            heartbeat_interval=heartbeat_interval,
        )
        self.host, self.port = self.endpoints[0]
        self._heartbeat_seq = 0
        self._heartbeat_sent_at: "dict[int, float]" = {}
        self.heartbeats_acked = 0
        self.last_heartbeat_rtt: "float | None" = None

    def _open_pipe(self, endpoint: "tuple[str, int]") -> SocketPipe:
        #: The endpoint last dialled.
        self.host, self.port = endpoint
        sock = socket.create_connection(
            endpoint, timeout=CONNECT_TIMEOUT
        )
        # The dial's timeout covers the handshake too: a peer that
        # accepts and never answers must not park the dialler.
        self._handshake(sock, wire.hello_frame(self.node_id))
        sock.settimeout(None)
        return SocketPipe(sock, self.node_id)

    # -- keep-alive ------------------------------------------------------------

    def _beat(self) -> None:
        """One ``heartbeat`` frame; its ack comes back via ``_on_frame``."""
        with self._send_lock:
            pipe = self._pipe
            if pipe is None:
                return  # reconnect is the sender's job
            self._heartbeat_seq += 1
            self._heartbeat_sent_at[self._heartbeat_seq] = time.perf_counter()
            try:
                pipe.write(
                    wire.heartbeat_frame(self.node_id, self._heartbeat_seq)
                )
            except OSError:
                self._drop_connection(pipe)

    def _on_frame(self, frame: dict) -> None:
        if frame.get("kind") == "heartbeat_ack":
            self.heartbeats_acked += 1
            sent_at = self._heartbeat_sent_at.pop(frame.get("seq"), None)
            if sent_at is not None:
                self.last_heartbeat_rtt = time.perf_counter() - sent_at

    def _on_drop(self) -> None:
        # In-flight heartbeats died with the connection; their acks
        # will never arrive, so their timestamps must not linger.
        self._heartbeat_sent_at.clear()


class TcpServer(ConnectionServer):
    """A :class:`ConnectionServer` on an AF_INET listener."""

    def __init__(
        self,
        core: ServerCore,
        host: str = "127.0.0.1",
        port: int = 0,
        tracer: "typing.Any | None" = None,
        metrics: "typing.Any | None" = None,
    ):
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        listener.bind((host, port))
        listener.listen(64)
        super().__init__(core, listener, tracer=tracer, metrics=metrics)
        self.host, self.port = listener.getsockname()[:2]

    @property
    def address(self) -> typing.Tuple[str, int]:
        """The (host, port) the server is listening on."""
        return self.host, self.port

    def _open_pipe(self, conn, hello, node) -> SocketPipe:
        return SocketPipe(conn, node)


def reserve_port(host: str = "127.0.0.1") -> "tuple[socket.socket, int]":
    """Reserve a loopback port without listening on it.

    Returns ``(sock, port)``: the socket is *bound but not listening*,
    so clients dialing the port get ``ECONNREFUSED`` (and rotate to
    another endpoint) until the holder closes the socket and a real
    server binds it.  This is how failover tests pre-advertise a
    standby AM endpoint before the standby exists.
    """
    sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
    sock.bind((host, 0))
    return sock, sock.getsockname()[1]


def tcp_link(
    host: str,
    port: int,
    node_id: str,
    fault_plan: "FaultPlan | None" = None,
    ack_timeout: float = 1.0,
    max_attempts: int = 10,
    tracer: "typing.Any | None" = None,
    heartbeat_interval: "float | None" = HEARTBEAT_INTERVAL,
    metrics: "typing.Any | None" = None,
    endpoints: "typing.Sequence[tuple[str, int]] | None" = None,
    connect_attempts: int = 1,
    max_reconnect_attempts: int = 8,
) -> "tuple":
    """A connected reliable TCP client; returns ``(link, transport)``.

    ``endpoints`` lists every candidate AM address (primary first;
    overrides ``host``/``port``); ``connect_attempts`` bounds the
    initial dial's retry-with-rotation loop.
    ``max_reconnect_attempts`` bounds each *mid-run* redial cycle —
    links to an AM keep the default (it may be failing over), links to
    a peer should use a small budget (a refused peer is simply dead).
    """
    link = ReliableLink(
        node_id, ack_timeout=ack_timeout, max_attempts=max_attempts,
        tracer=tracer, metrics=metrics,
    )
    transport = TcpTransport(
        host, port, node_id, on_reply=link.on_reply,
        fault_plan=fault_plan, tracer=tracer,
        heartbeat_interval=heartbeat_interval, metrics=metrics, endpoints=endpoints,
        max_reconnect_attempts=max_reconnect_attempts,
    )
    transport.dial(connect_attempts)
    return link.attach(transport), transport
