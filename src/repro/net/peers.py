"""The worker-peer mesh: lightweight per-worker servers + links.

Every :class:`~repro.net.agent.WorkerAgent` in a ring-enabled job runs
one peer server (a plain :class:`~repro.net.transport.ServerCore`
behind the shared dedup/resend recipe) and dials its ring successor
through a :class:`~repro.net.transport.ReliableLink` — so the gradient
plane inherits exactly the control plane's exactly-once guarantees:
timeout-resend on the sender, ``(sender, msg_id)`` dedup on the
receiver, reconnect-and-retransmit across connection resets (the one
:mod:`repro.net.connection` lifecycle, whichever host carries it), and
the zero-copy binary frame path over TCP.

A :class:`PeerHost` abstracts where peers live:

* :class:`MemoryPeerHost` — one shared registry per job; addresses are
  ``mem://<worker>`` and connecting builds an
  :func:`~repro.net.transport.memory_link` to the registered core.
  Threads-in-one-process tests use this.
* :class:`TcpPeerHost` — each ``serve`` starts a
  :class:`~repro.net.tcp.TcpServer` on an ephemeral loopback port
  (the listener registry is :class:`SocketPeerHost`'s, shared with shm);
  addresses are ``tcp://host:port`` and connecting dials a
  :func:`~repro.net.tcp.tcp_link` (no heartbeat thread — ring traffic
  is its own liveness signal).
* :class:`~repro.net.shm.ShmPeerHost` — each ``serve`` starts a
  shared-memory ring-buffer server bootstrapped over a Unix socket;
  addresses are ``shm://<uds-path>`` and connecting to a ``tcp://``
  peer transparently falls back to the TCP link (remote peers).

Addresses travel through the AM: a worker advertises its address in the
``JOIN`` payload and the AM distributes the full ring (order + peer
addresses + activation boundary) with the commit directive — see
:mod:`repro.net.master_service`.  :func:`peer_scheme` is the one place
address schemes are recognized; hosts dispatch on it instead of
string-matching prefixes.
"""

from __future__ import annotations

import threading
import typing

from .transport import ServerCore, TransportClosed, memory_link

#: Address schemes a peer mesh can advertise.
PEER_SCHEMES = ("mem", "tcp", "shm")


def peer_scheme(addr: str) -> str:
    """The scheme of a peer address (``mem`` | ``tcp`` | ``shm``).

    The single scheme-recognition point: hosts dispatch on this instead
    of each string-matching ``addr.startswith(...)``, so a new scheme
    lands in exactly one place.  Unknown schemes raise ``ValueError``.
    """
    scheme, sep, rest = addr.partition("://")
    if not sep or scheme not in PEER_SCHEMES:
        raise ValueError(f"unknown peer address scheme: {addr!r}")
    if not rest:
        raise ValueError(f"peer address names no endpoint: {addr!r}")
    return scheme


class PeerHost(typing.Protocol):
    """Where a worker serves its peer endpoint and dials others."""

    def serve(self, core: ServerCore, worker_id: str) -> str:
        """Start serving ``core``; returns the advertised address."""

    def connect(self, addr: str, node_id: str, **kwargs):
        """A :class:`ReliableLink` to the peer at ``addr``."""

    def release(self, addr: str) -> None:
        """Stop serving ``addr`` (worker shutdown)."""

    def close(self) -> None:
        """Tear down every endpoint this host started."""


class MemoryPeerHost:
    """In-process peer mesh: one shared instance per (test) job."""

    def __init__(self):
        self._registry: "dict[str, ServerCore]" = {}
        #: links handed out per address — release/close sever them, so
        #: in-process lifecycle matches TCP/SHM (where closing the
        #: server kills the connection).
        self._issued: "dict[str, list]" = {}
        self._lock = threading.Lock()
        self._closed = False

    def serve(self, core: ServerCore, worker_id: str) -> str:
        addr = f"mem://{worker_id}"
        with self._lock:
            if self._closed:
                raise TransportClosed("peer host is closed")
            # A restarted worker re-registers under the same address.
            self._registry[addr] = core
        return addr

    def connect(
        self,
        addr: str,
        node_id: str,
        fault_plan=None,
        ack_timeout: float = 0.5,
        max_attempts: int = 10,
        tracer=None,
        metrics=None,
    ):
        if peer_scheme(addr) != "mem":
            raise ValueError(
                f"MemoryPeerHost cannot connect to {addr!r} "
                f"(only mem:// addresses live in this registry)"
            )
        with self._lock:
            if self._closed:
                raise TransportClosed("peer host is closed")
            core = self._registry.get(addr)
        if core is None:
            raise TransportClosed(f"no peer serving {addr!r}")
        link = memory_link(
            core, node_id, fault_plan=fault_plan, ack_timeout=ack_timeout,
            max_attempts=max_attempts, tracer=tracer, metrics=metrics,
        )
        # Re-check under the lock: a concurrent release/close may have
        # retired (or replaced) the core while the link was being built
        # — handing that link out would pin a server that is gone.
        with self._lock:
            if self._closed or self._registry.get(addr) is not core:
                link.close()
                raise TransportClosed(
                    f"peer at {addr!r} released during connect"
                )
            self._issued.setdefault(addr, []).append(link)
        return link

    def release(self, addr: str) -> None:
        # Idempotent, including under concurrent close: pop tolerates a
        # missing key and a cleared registry alike.
        with self._lock:
            self._registry.pop(addr, None)
            links = self._issued.pop(addr, [])
        for link in links:
            link.close()

    def close(self) -> None:
        with self._lock:
            self._closed = True
            self._registry.clear()
            issued, self._issued = self._issued, {}
        for links in issued.values():
            for link in links:
                link.close()


class SocketPeerHost:
    """The serve/release/close registry of the socket-backed hosts.

    One listener (a :class:`~repro.net.connection.ConnectionServer`)
    per served worker, keyed by its advertised address.  Subclasses say
    how to start one (``_start_server(core)`` → ``(address, server)``)
    and how to dial one (``_dial(addr, node_id, **link_options)``;
    OSError: nobody is serving it).
    """

    def __init__(self):
        self._servers: "dict[str, typing.Any]" = {}
        self._lock = threading.Lock()

    def serve(self, core: ServerCore, worker_id: str) -> str:
        addr, server = self._start_server(core)
        with self._lock:
            self._servers[addr] = server
        return addr

    def connect(
        self,
        addr: str,
        node_id: str,
        fault_plan=None,
        ack_timeout: float = 0.5,
        max_attempts: int = 10,
        tracer=None,
        metrics=None,
    ):
        try:
            return self._dial(
                addr, node_id, fault_plan=fault_plan,
                ack_timeout=ack_timeout, max_attempts=max_attempts,
                tracer=tracer, metrics=metrics,
            )
        except OSError as exc:
            # A released/dead endpoint raises the same TransportClosed
            # every PeerHost raises — callers see one lifecycle error.
            raise TransportClosed(f"no peer serving {addr!r}: {exc}") from exc

    def release(self, addr: str) -> None:
        with self._lock:
            server = self._servers.pop(addr, None)
        if server is not None:
            server.close()

    def close(self) -> None:
        with self._lock:
            servers, self._servers = list(self._servers.values()), {}
        for server in servers:
            server.close()


def dial_tcp_peer(addr: str, node_id: str, **link_options):
    """The ``tcp://`` peer link (also ShmPeerHost's remote fallback)."""
    from .tcp import tcp_link

    if peer_scheme(addr) != "tcp":
        raise ValueError(
            f"TcpPeerHost cannot connect to {addr!r} "
            f"(only tcp:// peers are dialable from here)"
        )
    host, port = parse_peer_addr(addr)
    link, _transport = tcp_link(
        host, port, node_id,
        # Segment traffic is constant while the ring is healthy; a
        # keep-alive thread per peer link would be pure overhead.
        heartbeat_interval=None,
        # A refused peer is dead, not failing over: burn two redial
        # attempts, not a multi-second backoff cycle per send.
        max_reconnect_attempts=2,
        **link_options,
    )
    return link


class TcpPeerHost(SocketPeerHost):
    """Loopback-TCP peer mesh: one ephemeral listener per worker."""

    def __init__(self, host: str = "127.0.0.1"):
        super().__init__()
        self.host = host

    def _start_server(self, core: ServerCore):
        from .tcp import TcpServer

        server = TcpServer(
            core, host=self.host, port=0, tracer=core.tracer,
            metrics=core.metrics,
        ).start()
        return f"tcp://{server.host}:{server.port}", server

    _dial = staticmethod(dial_tcp_peer)


def parse_peer_addr(addr: str) -> "tuple[str, int]":
    """``tcp://host:port`` -> ``(host, port)``, validated.

    Rejects missing/empty hosts, non-numeric ports and ports outside
    1–65535 — a malformed address from a corrupt ring payload must fail
    here, loudly, not inside a connect timeout.
    """
    if peer_scheme(addr) != "tcp":
        raise ValueError(f"not a tcp peer address: {addr!r}")
    host, _, port = addr[len("tcp://"):].rpartition(":")
    if not host or not port.isdigit():
        raise ValueError(f"malformed tcp peer address: {addr!r}")
    port_number = int(port)
    if not 1 <= port_number <= 65535:
        raise ValueError(f"tcp peer port out of range: {addr!r}")
    return host, port_number
