"""Shared-memory peer transport: ring-buffer links for co-located workers.

Co-located workers exchanging ring buckets over loopback TCP pay the
full serialization + kernel socket copy tax on every segment.  This
module moves that traffic into ``multiprocessing.shared_memory``: each
link is a pair of single-producer/single-consumer ring buffers (one per
direction) carrying the **existing binary frame format** — ndarray
payloads are memcpy'd once into the shared segment and the receiver
rebuilds them as ``np.frombuffer`` views directly over it.  Zero
serialization, zero socket copies; the only data movement left is the
one write into shared memory.

Connection bootstrap rides a tiny Unix-domain-socket handshake (the
same ``hello``/``welcome`` frames as TCP): the connector creates the
two segments, names them in its hello, and the server attaches.  The
UDS then stays open as the link's **doorbell**: after publishing a
record the producer sends one byte, so the consumer blocks in
``select()`` exactly like a TCP reader instead of spin-polling the ring
— bulk data never touches the socket, only wakeups do.  EOF on the
doorbell doubles as the liveness signal.  Reliability is unchanged:
:class:`ShmTransport` / :class:`ShmServer` are the shared
:mod:`repro.net.connection` lifecycle over a :class:`ShmPipe`, so
:class:`~repro.net.transport.ReliableLink` /
:class:`~repro.net.transport.ServerCore` provide exactly-once, dedup
and resend on top, and :class:`~repro.coordination.faults.FaultPlan`
faults (drops, duplicates, delays, resets) inject through the same
fault stage as TCP.

Crash cleanup: segments are registered with multiprocessing's resource
tracker in *both* processes, so a SIGKILL'd worker's tracker unlinks
them; clean paths unlink eagerly (either side may win — double unlinks
are tolerated) and unregister so no tracker warns at exit.  The ring
layout and cleanup guarantees are documented in docs/PROTOCOL.md
("The shm:// peer transport").
"""

from __future__ import annotations

import os
import select
import socket
import struct
import tempfile
import threading
import time
import typing
import uuid

import numpy as np

from ..coordination.faults import ExponentialBackoff, FaultPlan
from ..coordination.messages import Message
from . import wire
from .connection import (
    CONNECT_TIMEOUT,
    WRITE_TIMEOUT,
    Connection,
    ConnectionServer,
    FramePipe,
    hang_up,
)
from .peers import SocketPeerHost, dial_tcp_peer, peer_scheme
from .transport import ReliableLink, ServerCore

#: Default per-direction ring capacity.  It bounds the largest frame a
#: peer link ships (half of it: ring buckets are small, but
#: degraded-path ``RING_FETCH`` replies and state chunks carry much
#: more) and the backlog a slow consumer may queue.  It does not bound
#: the pages a link touches: a drained ring rewinds to offset 0, so a
#: steady link stays within its largest backlog.
DEFAULT_SHM_CAPACITY = 16 * 1024 * 1024

#: Shared-memory segment name prefix — also what the leak checks (CI,
#: chaos tests) grep ``/dev/shm`` for.
SHM_NAME_PREFIX = "elanshm_"

#: Ring header: head (u64, producer-owned), tail (u64, consumer-owned),
#: closed flag (u8, either side).  Both counters are absolute
#: (monotonic), so ``head - tail`` is the used byte count without any
#: wrap ambiguity; aligned 8-byte loads/stores are atomic on every
#: platform CPython runs on.
_HEADER_BYTES = 64
_HEAD = struct.Struct("<Q")
_RECORD = struct.Struct("<I")
#: Record-length sentinel: "no record here — skip to the next ring lap".
_SKIP = 0xFFFFFFFF


#: Segments this process already told its resource tracker to forget.
#: Attaching registers a name just like creating does, so a process
#: holding both ends of a pair (tests, loopback rings) would otherwise
#: unregister the same name twice and the tracker would log a KeyError.
_unregistered: "set[str]" = set()
_unregistered_lock = threading.Lock()


def _tracker_call(action: str, name: str) -> None:
    """Raw best-effort resource_tracker register/unregister of a segment.

    A tracker that died or cannot be spawned raises ``OSError``, an
    over-long message ``ValueError``; anything else is a bug and
    propagates.
    """
    from multiprocessing import resource_tracker

    try:
        getattr(resource_tracker, action)(
            "/" + name.lstrip("/"), "shared_memory"
        )
    except (OSError, ValueError):
        pass


def _unregister_segment(name: str) -> None:
    """Drop a segment from this process's resource tracker, once."""
    with _unregistered_lock:
        if name in _unregistered:
            return
        _unregistered.add(name)
    _tracker_call("unregister", name)


class ShmRing:
    """One direction of a link: an SPSC byte ring in shared memory.

    Records are ``[u32 length][frame bytes]`` and **never wrap**: a
    record that does not fit in the space before the end of the buffer
    is preceded by a :data:`_SKIP` marker and starts at the next lap —
    so the consumer always sees each frame as one contiguous region and
    can hand out ``np.frombuffer`` views into it with no reassembly.
    The consumer owns a frame's region until :meth:`advance`; the
    producer cannot overwrite it before then.  A drained ring (head ==
    tail) takes the same skip to offset 0 as soon as the record fits
    before the current position, so records reuse the lap's first,
    already-faulted pages instead of marching through the segment.
    """

    def __init__(self, name: "str | None" = None, capacity: int = DEFAULT_SHM_CAPACITY):
        from multiprocessing import shared_memory

        self.capacity = int(capacity)
        if name is None:
            self.name = SHM_NAME_PREFIX + uuid.uuid4().hex[:12]
            self._shm = shared_memory.SharedMemory(
                name=self.name, create=True,
                size=_HEADER_BYTES + self.capacity,
            )
            self.created = True
        else:
            self.name = name
            self._shm = shared_memory.SharedMemory(name=name)
            self.capacity = self._shm.size - _HEADER_BYTES
            self.created = False
        self._buf = self._shm.buf
        self._data = self._buf[_HEADER_BYTES:_HEADER_BYTES + self.capacity]
        self._pending: "int | None" = None
        self._gone = False

    # -- cursor accessors ------------------------------------------------------

    @property
    def _head(self) -> int:
        return _HEAD.unpack_from(self._buf, 0)[0]

    @_head.setter
    def _head(self, value: int) -> None:
        _HEAD.pack_into(self._buf, 0, value)

    @property
    def _tail(self) -> int:
        return _HEAD.unpack_from(self._buf, 8)[0]

    @_tail.setter
    def _tail(self, value: int) -> None:
        _HEAD.pack_into(self._buf, 8, value)

    @property
    def closed(self) -> bool:
        return self._gone or self._buf[16] != 0

    def mark_closed(self) -> None:
        """Signal the other side; both directions observe one flag each."""
        if not self._gone:
            self._buf[16] = 1

    # -- producer side ---------------------------------------------------------

    def write(
        self, buffers: typing.Sequence, timeout: float = WRITE_TIMEOUT
    ) -> int:
        """Append one record built from ``buffers``; returns bytes written.

        Blocks (spin-then-sleep) while the ring is full; returns 0 if
        the ring closed or the wait timed out — the transport reports
        the send as lost and the reliability layer resends.
        """
        try:
            return self._write(buffers, timeout)
        except (TypeError, ValueError):
            # close() released the buffers under a concurrent writer.
            if self._gone:
                return 0
            raise

    def _write(self, buffers: typing.Sequence, timeout: float) -> int:
        views = [wire._flat_view(buffer) for buffer in buffers]
        length = sum(view.nbytes for view in views)
        record = _RECORD.size + length
        # Half the capacity, not all of it: a no-wrap record must fit in
        # the space before the lap end *plus* a fresh lap in the worst
        # alignment, and only record <= capacity/2 guarantees that at
        # every position.  Anything bigger could park the producer at an
        # unsatisfiable offset forever — fail loudly instead.
        if record > self.capacity // 2:
            raise wire.WireError(
                f"frame of {length} bytes exceeds half the shm ring "
                f"capacity ({self.capacity}); raise the link's capacity"
            )
        deadline = time.monotonic() + timeout
        spins = 0
        while True:
            if self.closed:
                return 0
            head, tail = self._head, self._tail
            pos = head % self.capacity
            room_to_end = self.capacity - pos
            # A drained ring rewinds early (see the class docstring).
            # Only the producer moves head, so head == tail holds until
            # this write publishes.
            lap_end = record > room_to_end or (head == tail and record <= pos)
            # The skip marker (when needed) consumes the rest of the lap.
            need = room_to_end + record if lap_end else record
            if self.capacity - (head - tail) >= need:
                break
            spins += 1
            if spins > 100:
                time.sleep(0.0002)
            if time.monotonic() >= deadline:
                return 0
        if lap_end:
            if room_to_end >= _RECORD.size:
                _RECORD.pack_into(self._data, pos, _SKIP)
            head += room_to_end
            pos = 0
        _RECORD.pack_into(self._data, pos, length)
        offset = pos + _RECORD.size
        for view in views:
            n = view.nbytes
            self._data[offset:offset + n] = view
            offset += n
        # Publish after the payload is fully in place: the consumer only
        # reads bytes below head.
        self._head = head + record
        return record

    # -- consumer side ---------------------------------------------------------

    def read(self, timeout: float = 0.2) -> "memoryview | None":
        """The next record's payload as a view into the ring, or None.

        The view stays valid until :meth:`advance` — process (or copy)
        before advancing.  Returns None on timeout or when the ring is
        closed and drained.
        """
        try:
            return self._read(timeout)
        except (TypeError, ValueError):
            # close() released the buffers under a concurrent reader.
            if self._gone:
                return None
            raise

    def _read(self, timeout: float) -> "memoryview | None":
        if self._pending is not None:
            raise RuntimeError("previous record not advanced")
        deadline = time.monotonic() + timeout
        spins = 0
        while True:
            head, tail = self._head, self._tail
            if head != tail:
                break
            if self.closed:
                return None
            spins += 1
            if spins > 100:
                time.sleep(0.0002)
            if time.monotonic() >= deadline:
                return None
        pos = tail % self.capacity
        room_to_end = self.capacity - pos
        if room_to_end < _RECORD.size:
            # Lap remainder too small even for a marker: implicit skip.
            tail += room_to_end
            pos = 0
        else:
            (length,) = _RECORD.unpack_from(self._data, pos)
            if length == _SKIP:
                tail += room_to_end
                pos = 0
            else:
                self._pending = tail + _RECORD.size + length
                return self._data[pos + _RECORD.size:pos + _RECORD.size + length]
        (length,) = _RECORD.unpack_from(self._data, pos)
        self._pending = tail + _RECORD.size + length
        return self._data[pos + _RECORD.size:pos + _RECORD.size + length]

    def advance(self) -> None:
        """Release the last :meth:`read` record back to the producer."""
        if self._pending is not None:
            self._tail = self._pending
            self._pending = None

    # -- lifecycle -------------------------------------------------------------

    def close(self, unlink: bool = False) -> None:
        """Detach; with ``unlink`` also remove the segment name.

        Either side may unlink first — ``FileNotFoundError`` is the
        normal outcome for the second closer (and for a crash where the
        dead process's resource tracker won the race).
        """
        if self._gone:
            return
        self.mark_closed()
        self._gone = True
        self._pending = None
        self._data.release()
        self._buf = None
        try:
            self._shm.close()
        except BufferError:
            # A record view somebody still holds pins the mapping, and
            # an mmap cannot be closed under an export.  Let go of it:
            # the last view unmaps it.  Closed again, the segment only
            # shuts its descriptor — nothing is left for its finaliser
            # to fail at.
            self._shm._mmap = None
            self._shm.close()
        except OSError:  # pragma: no cover - platform noise
            pass
        if unlink:
            # A successful unlink unregisters internally, consuming this
            # process's tracker entry.  If the other end of a
            # same-process pair already consumed it, restore the entry
            # first so the internal unregister has one to eat; if the
            # remote side won the unlink race, eat ours by hand.  All
            # under the lock: both ends of a same-process pair react to
            # one hangup at once, and interleaved they unregister twice.
            with _unregistered_lock:
                reregister = self.name in _unregistered
                _unregistered.add(self.name)
                if reregister:
                    _tracker_call("register", self.name)
                try:
                    self._shm.unlink()
                except FileNotFoundError:
                    _tracker_call("unregister", self.name)
        else:
            _unregister_segment(self.name)


# -- frames over a ring ---------------------------------------------------------


def decode_shm_frame(
    view: memoryview, lean_sender: "str | None" = None
) -> "dict | Message":
    """Parse one ring record: :func:`wire.parse_frame` over the record's
    bytes, which the frame must consume exactly.

    Array segments come back as ``np.frombuffer`` views **into the
    ring** — valid until the caller advances the ring, so handlers
    retaining data must copy (the ring mailbox does: the message says
    ``borrowed``).
    """
    if view.nbytes < wire._LENGTH.size:
        raise wire.WireError("shm record shorter than a frame prefix")
    (length,) = wire._LENGTH.unpack_from(view, 0)
    record = wire.ByteCursor(view[wire._LENGTH.size:], "shm record")
    frame = wire.parse_frame(
        length, record.take, record.take, lean_sender, borrowed=True
    )
    record.finish()
    return frame


def _own_arrays(obj):
    """Deep-copy ndarrays out of ring-backed views (reply retention)."""
    if isinstance(obj, np.ndarray):
        return np.array(obj)
    if isinstance(obj, memoryview):
        return bytes(obj)
    if isinstance(obj, dict):
        return {key: _own_arrays(value) for key, value in obj.items()}
    if isinstance(obj, list):
        return [_own_arrays(item) for item in obj]
    return obj


def _ring_doorbell(sock: socket.socket) -> None:
    """One wakeup byte after a publish (best effort, never blocks).

    A full socket buffer means the consumer already has unread wakeups
    queued — dropping this one is harmless.
    """
    try:
        sock.send(b"\x01", socket.MSG_DONTWAIT)
    except (BlockingIOError, OSError):
        pass


def _await_doorbell(sock: socket.socket, timeout: float = 0.2) -> bool:
    """Block until the peer rings (or ``timeout``); False when the peer
    is gone.  Drains queued wakeup bytes; EOF means the peer died.

    No missed-wakeup race: the byte a producer sends before we enter
    ``select`` stays queued in the socket buffer, so the select returns
    immediately.
    """
    try:
        ready, _, _ = select.select([sock], [], [], timeout)
    except (OSError, ValueError):
        return False
    if not ready:
        return True
    try:
        return sock.recv(4096, socket.MSG_DONTWAIT) != b""
    except BlockingIOError:
        return True
    except OSError:
        return False


# -- the pipe, the client transport, the server -------------------------------


class ShmPipe(FramePipe):
    """A ring pair plus the Unix socket that bootstrapped it.

    Frames travel as ring records; after the handshake the socket is
    only the doorbell (wakeup bytes, never frames) and, through EOF, the
    liveness signal.
    """

    def __init__(self, sock: socket.socket, in_ring: ShmRing,
                 out_ring: ShmRing, node: str):
        super().__init__(node)
        self.sock = sock
        self.in_ring = in_ring
        self.out_ring = out_ring

    def _put(self, buffers: list, total: int, timeout: float) -> int:
        n = self.out_ring.write(buffers, timeout)
        if n == 0:
            raise OSError("shm ring closed or full under the send")
        _ring_doorbell(self.sock)
        return n

    def read(self) -> "dict | Message | None":
        peer_gone = False
        while True:
            view = self.in_ring.read(timeout=0)
            if view is not None:
                return decode_shm_frame(view, self.node)
            # A dead peer's in-flight records are still drained above
            # before the hangup ends the connection.
            if self.in_ring.closed or peer_gone:
                return None
            peer_gone = not _await_doorbell(self.sock)

    def release(self) -> None:
        self.in_ring.advance()

    # Replies outlive the ring slot (the requesting thread reads them
    # later): the reader copies arrays out before releasing it.
    own = staticmethod(_own_arrays)

    @staticmethod
    def count(metrics, nbytes: int) -> None:
        metrics.counter("net.shm.bytes_sent").inc(nbytes)
        metrics.counter("net.shm.frames_sent").inc()

    def close(self) -> None:
        """Unlink both segments (which marks them closed, so a peer
        spinning on a full ring stops too), then hang up.

        Both ends unlink: if the client crashed between creating and
        unlinking, the server (or the client's resource tracker)
        removes the name — never both successfully.
        """
        self.in_ring.close(unlink=True)
        self.out_ring.close(unlink=True)
        hang_up(self.sock)


class ShmTransport(Connection):
    """One shared-memory connection (satisfies ``Transport``).

    The shared :class:`~repro.net.connection.Connection` lifecycle over
    a :class:`ShmPipe` — the same fault stage and drop-and-redial
    semantics as TCP (a reset, or the server's death seen on the
    doorbell, tears the segment pair down; the next send bootstraps a
    fresh pair over the UDS) — so a chaos schedule replays identically
    over memory, TCP and SHM.
    """

    _reconnect_metric = "net.shm.reconnects"

    def __init__(
        self,
        path: str,
        node_id: str,
        on_reply: typing.Callable[[int, dict], None],
        fault_plan: "FaultPlan | None" = None,
        backoff: "ExponentialBackoff | None" = None,
        tracer: "typing.Any | None" = None,
        capacity: int = DEFAULT_SHM_CAPACITY,
        max_reconnect_attempts: int = 2,
        metrics: "typing.Any | None" = None,
    ):
        super().__init__(
            node_id, on_reply, endpoints=[path],
            backoff=backoff or ExponentialBackoff(base=0.005, max_delay=0.25),
            fault_plan=fault_plan, tracer=tracer,
            metrics=metrics, max_reconnect_attempts=max_reconnect_attempts,
        )
        self.path = path
        self.capacity = capacity

    def _open_pipe(self, path: str) -> ShmPipe:
        """Dial the UDS, hand over fresh segments, handshake."""
        sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        sock.settimeout(CONNECT_TIMEOUT)
        rings: "list[ShmRing]" = []
        try:
            sock.connect(path)
            rings = [ShmRing(capacity=self.capacity) for _ in range(2)]
            hello = wire.hello_frame(self.node_id)
            hello["shm"] = {"c2s": rings[0].name, "s2c": rings[1].name}
            self._handshake(sock, hello)
            sock.settimeout(None)
        except BaseException:
            sock.close()
            for ring in rings:
                ring.close(unlink=True)
            raise
        return ShmPipe(sock, rings[1], rings[0], self.node_id)


class ShmServer(ConnectionServer):
    """A :class:`ConnectionServer` on an AF_UNIX listener; each accepted
    connection attaches the segment pair its ``hello`` names."""

    _accept_tags = {"transport": "shm"}

    def __init__(
        self,
        core: ServerCore,
        path: "str | None" = None,
        tracer: "typing.Any | None" = None,
        metrics: "typing.Any | None" = None,
    ):
        self.path = path or os.path.join(
            tempfile.gettempdir(),
            f"elan-peer-{os.getpid()}-{uuid.uuid4().hex[:8]}.sock",
        )
        listener = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        try:
            listener.bind(self.path)
        except OSError:
            self._unlink_path()  # a dead predecessor's socket file
            listener.bind(self.path)
        listener.listen(16)
        super().__init__(core, listener, tracer=tracer, metrics=metrics)

    def _open_pipe(self, conn, hello, node) -> ShmPipe:
        names = hello.get("shm")
        if not isinstance(names, dict):
            raise wire.WireError("shm hello names no segments")
        rings: "list[ShmRing]" = []
        try:
            for key in ("c2s", "s2c"):
                rings.append(ShmRing(name=str(names[key])))
        except (KeyError, FileNotFoundError) as exc:
            for ring in rings:
                ring.close(unlink=True)
            raise wire.WireError(f"bad shm bootstrap: {exc}") from exc
        return ShmPipe(conn, rings[0], rings[1], node)

    def _unlink_path(self) -> None:
        try:
            os.unlink(self.path)
        except FileNotFoundError:
            pass

    def close(self) -> None:
        super().close()
        self._unlink_path()


def shm_link(
    path: str,
    node_id: str,
    fault_plan: "FaultPlan | None" = None,
    ack_timeout: float = 0.5,
    max_attempts: int = 10,
    tracer: "typing.Any | None" = None,
    metrics: "typing.Any | None" = None,
    capacity: int = DEFAULT_SHM_CAPACITY,
    max_reconnect_attempts: int = 2,
) -> "tuple":
    """A connected reliable shm client; returns ``(link, transport)``."""
    link = ReliableLink(
        node_id, ack_timeout=ack_timeout, max_attempts=max_attempts,
        tracer=tracer, metrics=metrics,
    )
    transport = ShmTransport(
        path, node_id, on_reply=link.on_reply,
        fault_plan=fault_plan, tracer=tracer, metrics=metrics,
        capacity=capacity, max_reconnect_attempts=max_reconnect_attempts,
    )
    transport.connect()
    return link.attach(transport), transport


class ShmPeerHost(SocketPeerHost):
    """Shared-memory peer mesh with TCP fallback for remote peers.

    ``serve`` starts one :class:`ShmServer` per worker; addresses are
    ``shm://<uds-path>``.  ``connect`` dispatches on the address scheme:
    ``shm://`` dials the ring-buffer link, ``tcp://`` (a peer on
    another host, or one that opted out) falls back to exactly the
    :class:`~repro.net.peers.TcpPeerHost` link — so mixed meshes
    degrade per-link, never per-job.
    """

    def __init__(self, capacity: int = DEFAULT_SHM_CAPACITY):
        super().__init__()
        self.capacity = capacity

    def _start_server(self, core: ServerCore):
        server = ShmServer(
            core, tracer=core.tracer, metrics=core.metrics
        ).start()
        return f"shm://{server.path}", server

    def _dial(self, addr: str, node_id: str, **link_options):
        scheme = peer_scheme(addr)
        if scheme == "tcp":
            return dial_tcp_peer(addr, node_id, **link_options)
        if scheme != "shm":
            raise ValueError(
                f"ShmPeerHost cannot connect to {addr!r} "
                f"(scheme {scheme!r} has no shm or tcp path)"
            )
        link, _transport = shm_link(
            addr[len("shm://"):], node_id, capacity=self.capacity,
            **link_options,
        )
        return link
