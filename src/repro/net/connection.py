"""The one connection lifecycle under the memory, TCP and shm transports.

The "reconnecting sockets" third of §V-D's recipe, written once.
:class:`Connection` is the client state machine (dial → hello/welcome →
up → drop → backoff redial → closed) and owns the one fault stage
(:class:`TransportFaults`), the send lock, the traced redial with
endpoint rotation, the reader's hand-off to ``on_reply`` and the
optional heartbeat thread;
:class:`ConnectionServer` owns the accept loop, the handshake, the
dispatch-and-reply path and ``close``.  What differs per transport is a
*pipe* (:class:`FramePipe`) and how to open it: a socket
(:mod:`repro.net.tcp`), a shm ring pair with a doorbell
(:mod:`repro.net.shm`) or a direct ``ServerCore.dispatch`` call
(:class:`repro.net.transport.DirectPipe`).  State diagram:
docs/PROTOCOL.md, "Connection lifecycle".
"""

from __future__ import annotations

import dataclasses
import socket
import threading
import time
import typing

from ..coordination.faults import ExponentialBackoff, FaultPlan
from ..coordination.messages import Message, MessageType
from . import wire
from .wire import TRACE_CTX_KEY

#: How long one frame may wait for its pipe to take it (a full socket
#: buffer, a full shm ring) before the write gives up and the
#: connection is dropped.  A link bounds its own sends tighter, by its
#: ack timeout (:meth:`ReliableLink.attach`); this is the bound for
#: everything else — replies, heartbeats, a bare ``Connection``.
WRITE_TIMEOUT = 10.0

#: How long one dial — connect plus handshake — may take before it
#: fails and the connection's reconnect loop backs off.
CONNECT_TIMEOUT = 5.0


# -- deterministic fault injection -------------------------------------------


@dataclasses.dataclass(frozen=True)
class FaultAction:
    """What the fault schedule dictates for one send."""

    delay: float = 0.0
    reset: bool = False


_NO_FAULT = FaultAction()


class TransportFaults:
    """Stateful consumer of a :class:`FaultPlan`'s network faults: the
    one fault stage between a connection and its pipe.

    Two counters number the sends, so a schedule replays identically
    on every pipe: delays and resets index *every* send
    (:meth:`next_send`); drops and duplicates index only the sends that
    reach the loss stage — not reset, redial done, link still open
    (:meth:`copies`).
    """

    #: Drop / duplicate each n-th send that reaches the loss stage
    #: (0: never); :meth:`from_plan` takes them from the plan.
    drop_every = 0
    duplicate_every = 0

    def __init__(
        self,
        delays: "typing.Mapping[int, float] | None" = None,
        resets: typing.Iterable[int] = (),
    ):
        self.delays = dict(delays or {})
        self.resets = frozenset(resets)
        self.sends = 0
        self.delays_injected = 0
        self.resets_injected = 0
        #: Sends that reached the loss stage, and what it did to them.
        self.arrived = 0
        self.dropped = 0
        self.duplicated = 0

    @classmethod
    def from_plan(cls, plan: "FaultPlan | None") -> "TransportFaults | None":
        """The plan's network-fault schedule (None if it has none)."""
        if plan is None or not plan.has_transport_faults:
            return None
        faults = cls(delays=plan.net_delays, resets=plan.connection_resets)
        faults.drop_every = plan.drop_every
        faults.duplicate_every = plan.duplicate_every
        return faults

    def next_send(self) -> FaultAction:
        """Advance the send counter and report this send's faults."""
        self.sends += 1
        delay = float(self.delays.get(self.sends, 0.0))
        reset = self.sends in self.resets
        if delay:
            self.delays_injected += 1
        if reset:
            self.resets_injected += 1
        return FaultAction(delay=delay, reset=reset)

    def copies(self) -> int:
        """Advance the loss counter: how many times this send is written
        — 0 (dropped), 1, or 2 (duplicated)."""
        self.arrived += 1
        if self.drop_every and self.arrived % self.drop_every == 0:
            self.dropped += 1
            return 0
        if self.duplicate_every and self.arrived % self.duplicate_every == 0:
            self.duplicated += 1
            return 2
        return 1


# -- the pipe seam -------------------------------------------------------------


#: The messages that always travel as lean frames, and their encoders.
_LEAN_MESSAGES = {
    MessageType.RING_SEGMENT: wire.lean_segment_buffers,
    MessageType.SYNC: wire.lean_sync_buffers,
}


class FramePipe:
    """One *handshaken* byte path; base of the socket and shm pipes.

    ``write(frame, timeout)`` returns the bytes moved, or raises
    ``OSError`` when the peer has not taken the frame in ``timeout``
    seconds (the frame may be torn: the caller drops the connection);
    ``read()`` blocks for the next frame — a dict (a lean mean reply
    too), or the ``Message`` itself for a lean ring segment or SYNC —
    None once the peer is gone (its arrays
    may alias the pipe's buffers until ``release()``; ``own(payload)``
    makes it outlive that); ``count(metrics, n)`` books ``n`` written
    bytes; ``close()`` wakes anyone blocked on the pipe and frees it.
    A subclass moves buffers: ``_put(buffers, total, timeout)``.
    """

    #: Whether arrays in a frame just read alias memory the pipe reuses
    #: after ``release()`` (:attr:`Message.borrowed`).
    borrowed = True

    def __init__(self, node: str):
        #: The node the handshake's ``hello`` named: the client.  Lean
        #: frames carry no sender; both ends take it from here.
        self.node = node

    def send(self, message: Message, timeout: float = WRITE_TIMEOUT) -> int:
        """Client → server: one protocol message as a frame — a lean
        frame for a ring segment or a SYNC, a ``msg`` frame for anything
        else."""
        lean = _LEAN_MESSAGES.get(message.msg_type)
        if lean is not None:
            return self._put(*lean(message, self.node), timeout)
        return self.write(wire.message_frame(message), timeout)

    def answer(self, message: Message, reply: dict, ctx: dict) -> int:
        """Server → client: the reply to ``message``, stamped with the
        transmission context ``ctx`` — a lean frame for a SYNC's mean, a
        ``reply`` frame for anything else (errors included)."""
        if message.msg_type is MessageType.SYNC and "__error__" not in reply:
            return self._put(
                *wire.lean_mean_buffers(message.msg_id, reply, ctx),
                WRITE_TIMEOUT,
            )
        return self.write(
            wire.reply_frame(ctx["node"], message.msg_id, reply, ctx=ctx)
        )

    def write(self, frame: dict, timeout: float = WRITE_TIMEOUT) -> int:
        return self._put(*wire.frame_buffers(frame), timeout)

    @staticmethod
    def own(payload: dict) -> dict:
        """``payload``, safe to keep after ``release()``."""
        return payload

    def release(self) -> None:
        """The last ``read`` frame is no longer referenced."""


def hang_up(sock: socket.socket) -> None:
    """``shutdown`` then ``close``: ``close`` alone does not wake a
    thread blocked in ``accept``/``recv`` on the socket, and the kernel
    keeps the endpoint alive until it wakes."""
    try:
        sock.shutdown(socket.SHUT_RDWR)
    except OSError:
        pass
    try:
        sock.close()
    except OSError:
        pass


def transmission_ctx(core, t_recv: float) -> dict:
    """The server's context for one reply *transmission*: stamped as
    the reply leaves, never on the payload ``ServerCore`` caches, so a
    retransmission served from the cache carries fresh timestamps."""
    return {
        "node": getattr(core, "node_id", "am"),
        "epoch": getattr(core, "epoch", 0),
        "recv": t_recv,
        "sent": time.perf_counter(),
    }


def _spawn(name: str, target, *args) -> threading.Thread:
    thread = threading.Thread(
        target=target, args=args, name=name, daemon=True
    )
    thread.start()
    return thread


# -- client side ---------------------------------------------------------------


class Connection:
    """One reconnecting client connection (satisfies ``Transport``).

    A failed or reset send marks the link down — the *whole* pipe is
    closed, whoever noticed (sender, reader or heartbeat) — and the next
    send pays a bounded-backoff redial, re-handshaking from scratch,
    before any further traffic flows; ``ReliableLink`` only ever sees
    "send and wait for the reply".  Subclasses implement
    ``_open_pipe(endpoint)``: dial, handshake, return the live pipe.

    One-way messages (``message.post``) get no reply, so nothing tells
    the sender that one written to a pipe that later died ever arrived.
    The connection therefore keeps every post it wrote — the message
    itself, not a copy — until a *later reply on the same pipe* confirms
    it: the server answers one connection in order, so the reply to a
    request proves every frame written before that request was
    dispatched.  A new pipe starts by replaying what is still
    unconfirmed, original msg_ids, in order, before any newer frame; the
    server's dedup makes the replay idempotent.
    """

    server_node: "str | None" = None
    #: Fencing epoch from the most recent welcome; a change across a
    #: reconnect means a successor AM answered and the agent must
    #: re-enroll.
    server_epoch: "int | None" = None
    #: Counter bumped on every successful redial (None: not exported).
    _reconnect_metric: "str | None" = None
    #: Bound on one frame's wait for the pipe (``ReliableLink.attach``
    #: lowers it to the link's ack timeout).
    write_timeout = WRITE_TIMEOUT

    def __init__(self, node_id: str, on_reply, endpoints: list,
                 backoff: ExponentialBackoff,
                 fault_plan: "FaultPlan | None" = None, tracer=None,
                 metrics=None, max_reconnect_attempts: int = 8,
                 heartbeat_interval: "float | None" = None):
        self.node_id = node_id
        #: Candidate endpoints, primary first.  A failed dial rotates to
        #: the next one, so a worker given the standby AM's address
        #: keeps retrying *somewhere* useful while the primary is dead.
        self.endpoints = endpoints
        self._endpoint_index = 0
        self.endpoint_rotations = 0
        self.tracer = tracer
        self.metrics = metrics
        self.bytes_sent = 0
        self.frames_sent = 0
        self.reconnects = 0
        #: Posts written again on a new pipe because no reply had
        #: confirmed them on the old one.
        self.post_replays = 0
        #: msg_id -> post, written on the current pipe and unconfirmed,
        #: in first-write order.
        self._posted: "dict[int, Message]" = {}
        #: request msg_id -> (pipe it was last written on, the newest
        #: unconfirmed post at that moment): what its reply confirms.
        self._marks: "dict[int, tuple]" = {}
        #: Guards the two maps above — not the send lock: the reader
        #: confirms, and a reader queued behind a sender blocked on a
        #: full pipe would stop draining the replies that unblock it.
        self._posts_lock = threading.Lock()
        self._on_reply = on_reply
        self._faults = TransportFaults.from_plan(fault_plan)
        self._backoff = backoff
        self._max_reconnect_attempts = max_reconnect_attempts
        self._pipe: "typing.Any | None" = None
        #: Serializes senders (pipelined chunk uploads use a small
        #: thread window) so the deterministic fault schedule sees one
        #: send at a time; re-entrant because a send redials under it.
        self._send_lock = threading.RLock()
        self._closed = threading.Event()
        self._heartbeat_interval = heartbeat_interval
        self._heartbeat_thread: "threading.Thread | None" = None

    def _beat(self) -> None:
        """Hook: one keep-alive, every ``heartbeat_interval`` seconds."""

    def _on_frame(self, frame: dict) -> None:
        """Hook: an inbound frame that is not a reply."""

    def _on_drop(self) -> None:
        """Hook: the pipe just went away (under the send lock)."""

    # -- connection management -------------------------------------------------

    @property
    def connected(self) -> bool:
        """True while a handshaken pipe is up."""
        return self._pipe is not None and not self._closed.is_set()

    def connect(self) -> None:
        """Dial the current endpoint and handshake; raises on rejection."""
        with self._send_lock:
            if self._closed.is_set():
                raise wire.WireError("transport is closed")
            if self._pipe is not None:
                return
            pipe = self._pipe = self._open_pipe(
                self.endpoints[self._endpoint_index]
            )
            if hasattr(pipe, "read"):
                _spawn(f"net-read-{self.node_id}", self._read_loop, pipe)
            self._replay_posts()
            if self._heartbeat_interval and self._heartbeat_thread is None:
                self._heartbeat_thread = _spawn(
                    f"net-hb-{self.node_id}", self._heartbeat_loop
                )

    def _handshake(self, sock: socket.socket, hello: dict) -> dict:
        """hello → welcome on a fresh socket (closed on any failure)."""
        try:
            wire.write_frame(sock, hello)
            answer = wire.read_frame(sock)
            if answer is None or answer.get("kind") == "reject":
                reason = (answer or {}).get("reason", "connection closed")
                raise wire.WireError(f"handshake rejected: {reason}")
            if answer.get("kind") != "welcome":
                raise wire.WireError(
                    f"expected welcome, got {answer.get('kind')!r}"
                )
        except BaseException:
            sock.close()
            raise
        self.server_node = answer.get("node")
        if answer.get("epoch") is not None:
            self.server_epoch = int(answer["epoch"])
        return answer

    def dial(self, attempts: int = 1) -> int:
        """Connect with bounded retries, rotating endpoints on refusal.

        A worker launched while the AM is restarting backs off and
        retries instead of dying on the first ``ECONNREFUSED``.  Returns
        the attempts used; raises the last error when all fail.
        """
        last_error: Exception = wire.WireError("transport is closed")
        for attempt in range(max(1, attempts)):
            if self._closed.is_set():
                break
            try:
                self.connect()
                return attempt + 1
            except (OSError, wire.WireError) as exc:
                last_error = exc
                if len(self.endpoints) > 1:
                    self._endpoint_index = (
                        (self._endpoint_index + 1) % len(self.endpoints)
                    )
                    self.endpoint_rotations += 1
                self._backoff.wait(attempt)
        raise last_error

    def _reconnect(self) -> None:
        """Bounded-backoff redial; traced as ``net.reconnect``."""
        span = None
        if self.tracer is not None:
            span = self.tracer.begin(
                "net.reconnect", track=self.node_id, cat="net"
            )
        replayed = self.post_replays
        try:
            attempts = self.dial(self._max_reconnect_attempts)
        except (OSError, wire.WireError):
            if self.tracer is not None:
                self.tracer.end(
                    span, attempts=self._max_reconnect_attempts, ok=False
                )
            raise
        self.reconnects += 1
        if self.metrics is not None and self._reconnect_metric:
            self.metrics.counter(self._reconnect_metric).inc()
        if self.tracer is not None:
            self.tracer.end(
                span, attempts=attempts, ok=True,
                replayed=self.post_replays - replayed,
            )

    def _drop_connection(self, only: "typing.Any | None" = None) -> None:
        """Close the whole pipe (``only``: just if it is still this one).

        Under the send lock to the end, so a ``close()`` that finds the
        pipe already gone has waited for whoever is still closing it:
        when ``close()`` returns, nothing of the link is left behind.
        """
        with self._send_lock:
            pipe = self._pipe
            if pipe is None or (only is not None and pipe is not only):
                return
            self._pipe = None
            with self._posts_lock:
                self._marks.clear()
            self._on_drop()
            pipe.close()

    def close(self) -> None:
        """Tear the connection down for good."""
        self._closed.set()
        self._drop_connection()

    # -- sending ---------------------------------------------------------------

    def send(self, message: Message) -> bool:
        """One delivery attempt; False when the send is known-lost.

        The fault stage first: a scheduled reset kills the connection
        with the in-flight message, a delay holds it, a drop loses it, a
        duplicate writes it twice.  A failed redial or a real pipe error
        is a lost send too; the reliability layer's timeout-resend turns
        any of them into a retransmission, and the next attempt pays the
        reconnect.  A message no frame can carry raises
        :class:`~repro.net.wire.WireError`: no resend would help.
        """
        if self._closed.is_set():
            return False
        with self._send_lock:
            faults = self._faults
            action = faults.next_send() if faults is not None else _NO_FAULT
            if action.reset:
                self._drop_connection()
                return False
            try:
                if self._pipe is None:
                    self._reconnect()
            except (OSError, wire.WireError):
                return False
            if action.delay:
                # On the closed event, not the clock: closing the link
                # mid-delay returns at once.
                self._closed.wait(action.delay)
            if self._closed.is_set():
                return False
            copies = faults.copies() if faults is not None else 1
            try:
                for _ in range(copies):
                    self._write_message(message)
            except wire.WireError:
                raise  # (an OSError too) the message, not the pipe
            except OSError:
                return False  # _write_message dropped the connection
            return copies > 0

    def _write_message(self, message: Message) -> None:
        """Hand one message to the pipe, or die trying."""
        pipe = self._pipe
        if pipe is None:
            raise OSError("not connected")
        if not message.post and self._posted:
            # Before the write: the memory pipe answers inside it.  A
            # retransmission on the same pipe keeps its first mark — the
            # reply may be to that first copy.
            with self._posts_lock:
                if self._posted:
                    self._marks.setdefault(
                        message.msg_id, (pipe, next(reversed(self._posted)))
                    )
        try:
            n = pipe.send(message, self.write_timeout)
        except wire.WireError:
            raise  # no frame can carry it; the pipe is fine
        except OSError:
            self._drop_connection(pipe)
            raise
        if message.post:
            with self._posts_lock:
                self._posted.setdefault(message.msg_id, message)
        self.frames_sent += 1
        if n:
            self.bytes_sent += n
            if self.metrics is not None:
                pipe.count(self.metrics, n)

    def _replay_posts(self) -> None:
        """Write the unconfirmed posts on the pipe just opened.

        Straight to the pipe, not through the fault stage: a replay is
        part of the redial, and a redial that cannot finish it fails as
        a whole (the pipe is dropped; the send that paid for it is
        lost and retried).
        """
        with self._posts_lock:
            posts = list(self._posted.values())
        for message in posts:
            self._write_message(message)
        if posts:
            self.post_replays += len(posts)
            if self.metrics is not None:
                self.metrics.counter("net.post_replays").inc(len(posts))

    def _confirm_posts(self, in_reply_to: int, pipe) -> None:
        """A reply landed on ``pipe``: every post written on it before
        that request is dispatched.  A reply read off an earlier pipe
        confirms nothing — its marks died with that pipe."""
        with self._posts_lock:
            written_on, newest = self._marks.pop(in_reply_to, (None, None))
            if written_on is not pipe or newest not in self._posted:
                return
            for msg_id in list(self._posted):
                del self._posted[msg_id]
                if msg_id == newest:
                    break
            if not self._posted:
                self._marks.clear()

    # -- receiving -------------------------------------------------------------

    def _deliver_reply(
        self, in_reply_to: int, payload: dict, ctx, pipe
    ) -> None:
        """Hand one reply (the caller's own dict), read off ``pipe``, to
        the link; the transmission context rides in as a payload key the
        link pops before anyone else looks."""
        if self._marks:
            self._confirm_posts(in_reply_to, pipe)
        if isinstance(ctx, dict):
            payload[TRACE_CTX_KEY] = ctx
        self._on_reply(in_reply_to, payload)

    def _read_loop(self, pipe) -> None:
        try:
            while not self._closed.is_set():
                frame = pipe.read()
                if frame is None:
                    break
                try:
                    if not isinstance(frame, dict):
                        raise wire.WireError("a lean frame towards a client")
                    if frame.get("kind") == "reply":
                        self._deliver_reply(
                            int(frame["in_reply_to"]),
                            pipe.own(frame.get("payload") or {}),
                            frame.get("ctx"), pipe,
                        )
                    else:
                        self._on_frame(frame)
                finally:
                    pipe.release()
        except (OSError, wire.WireError):
            pass
        finally:
            # EOF, an error, or a death nobody foresaw: the peer is gone
            # or this reader is.  If this is still the current pipe,
            # drop all of it — `connected` goes False, nothing lingers
            # for a send to land in, and the next send redials.
            self._drop_connection(pipe)

    def _heartbeat_loop(self) -> None:
        while not self._closed.wait(self._heartbeat_interval):
            self._beat()


# -- server side ---------------------------------------------------------------


class ConnectionServer:
    """Accepts connections and feeds messages to a shared ServerCore.

    One thread per connection reads frames and runs the handler on it,
    so dedup and reply caching are identical to the in-memory path.
    Subclasses build the listener and implement ``_open_pipe(conn,
    hello, node)``: the pipe a validated ``hello`` from ``node`` asks
    for (WireError: reject).
    """

    #: Extra ``net.accept`` tags naming the transport.
    _accept_tags: "dict[str, str]" = {}

    def __init__(self, core, listener, tracer=None, metrics=None):
        self.core = core
        self.tracer = tracer
        self.metrics = metrics
        self.bytes_sent = 0
        self._listener = listener
        self._closed = threading.Event()
        self._accept_thread: "threading.Thread | None" = None
        self._connections: "set[socket.socket]" = set()
        self._conn_lock = threading.Lock()
        self.connections_accepted = 0
        self.handshakes_rejected = 0
        #: Connections ended by a frame that broke the wire format.
        self.wire_errors = 0
        self.heartbeats_received = 0
        self.last_seen: "dict[str, float]" = {}

    def start(self):
        """Begin accepting connections."""
        self._accept_thread = _spawn("net-accept", self._accept_loop)
        return self

    def _accept_loop(self) -> None:
        while not self._closed.is_set():
            try:
                conn, _addr = self._listener.accept()
            except OSError:
                break
            with self._conn_lock:
                self._connections.add(conn)
            _spawn("net-serve", self._serve_connection, conn)

    def _serve_connection(self, conn: socket.socket) -> None:
        pipe = None
        try:
            try:
                hello = wire.read_frame(conn)
                node = wire.check_handshake(hello)
                pipe = self._open_pipe(conn, hello, node)
            except wire.WireError as exc:
                self.handshakes_rejected += 1
                wire.write_frame(conn, wire.reject_frame(str(exc)))
                return
            wire.write_frame(conn, wire.welcome_frame(
                self.core.node_id, epoch=getattr(self.core, "epoch", None)
            ))
            self.connections_accepted += 1
            if self.tracer is not None:
                self.tracer.instant(
                    "net.accept", track=self.core.node_id, cat="net",
                    peer=node, **self._accept_tags,
                )
            while True:
                frame = pipe.read()
                # Closed is checked *after* the read: the shm pipe still
                # drains records written behind a hangup, and a server
                # that close() has returned from must answer none.
                if frame is None or self._closed.is_set():
                    break
                self._handle_frame(pipe, frame)
        except wire.WireError:
            self.wire_errors += 1  # the finally hangs up; the client redials
        except OSError:
            pass
        finally:
            with self._conn_lock:
                self._connections.discard(conn)
            (pipe or conn).close()

    def _handle_frame(self, pipe, frame: "dict | Message") -> None:
        try:
            t_recv = time.perf_counter()
            if isinstance(frame, Message):
                message = frame  # a lean frame: the pipe parsed it
            elif frame.get("kind") == "heartbeat":
                self.heartbeats_received += 1
                node = frame.get("node", "?")
                self.last_seen[node] = t_recv
                # Heartbeats are a liveness signal for the lease layer
                # too: a worker blocked in a long barrier sends no
                # messages but is still very much alive.
                if self.core.on_activity is not None:
                    self.core.on_activity(node)
                pipe.write(wire.heartbeat_ack_frame(frame.get("seq", 0)))
                return
            elif frame.get("kind") == "msg":
                message = wire.decode_message(frame, borrowed=pipe.borrowed)
            else:
                raise wire.WireError(
                    f"unexpected frame kind {frame.get('kind')!r}"
                )
            self.last_seen[message.sender] = t_recv
            # Dispatch while the frame's views are live (handlers copy
            # what they keep); the slot is released only after it ran.
            reply = self.core.dispatch(message)
        finally:
            pipe.release()
        if message.post:
            return  # one-way: dispatched exactly like a request, unanswered
        # If the connection died while the handler ran, this write
        # raises and ends the connection; the reply stays in the core's
        # cache for the retransmission to collect.
        n = pipe.answer(message, reply, transmission_ctx(self.core, t_recv))
        self.bytes_sent += n
        if self.metrics is not None:
            pipe.count(self.metrics, n)

    def close(self) -> None:
        """Stop accepting, hang up every connection, free the address."""
        self._closed.set()
        hang_up(self._listener)
        with self._conn_lock:
            connections, self._connections = self._connections, set()
        for conn in connections:
            hang_up(conn)
        if self._accept_thread is not None:
            self._accept_thread.join(timeout=2.0)
