"""The transport seam: one protocol, one connection core, one recipe.

The paper's §V-D fault-tolerance recipe — unique message IDs, receiver
dedup, sender timeout-resend — is transport-independent, so this module
pins it to a small :class:`Transport` protocol and implements the recipe
*once*:

* :class:`ReliableLink` is the only resend loop, used unchanged over
  the in-memory, TCP and shm transports;
* :class:`ServerCore` is the only dedup filter (one window keyed by
  ``(sender, msg_id)``) and caches each reply so a retransmission is
  answered without re-executing the handler — exactly-once execution,
  at-least-once delivery.

:class:`InMemoryTransport` keeps the whole stack in-process (fast tests,
deterministic chaos), :class:`repro.net.tcp.TcpTransport` runs it over
real sockets; both are the one :class:`~repro.net.connection.Connection`
lifecycle over different pipes and consume the same deterministic
:class:`~repro.coordination.faults.FaultPlan` via
:class:`TransportFaults`, so a chaos schedule replays identically on
either side of the seam.
"""

from __future__ import annotations

import collections
import threading
import time
import typing

from ..coordination.faults import ExponentialBackoff, FaultPlan
from ..coordination.messages import Message, MessageFactory, MessageType
from ..observability.fleet import clock_sample
from .connection import (
    TRACE_CTX_KEY,
    Connection,
    FaultAction,  # noqa: F401 - re-exported
    TransportFaults,  # noqa: F401 - re-exported
    transmission_ctx,
)
from .wire import payload_nbytes


class TransportClosed(ConnectionError):
    """The transport is permanently down; no retry can help."""


class RemoteError(RuntimeError):
    """The server's handler raised; the error text crossed the wire."""


class RetryableError(RemoteError):
    """A structured, *recoverable* server-side rejection.

    Raised when the reply carries ``__retry__`` alongside ``__error__``:
    the server is telling this client that the request hit a condition
    the client can resolve itself — a superseded AM epoch (re-enroll
    with the successor), a stale sync barrier (repair the mean from a
    peer), a superseded generation.  ``reason`` holds the machine-
    readable tag; the human text stays in ``args[0]``.
    """

    def __init__(self, message: str, reason: str):
        super().__init__(message)
        self.reason = reason


class RequestTimeout(TimeoutError):
    """Every resend attempt of one request went unacknowledged."""


@typing.runtime_checkable
class Transport(typing.Protocol):
    """What a control-plane transport must offer.

    Every :class:`~repro.net.connection.Connection` (memory, TCP, shm)
    satisfies this structurally: fire-and-forget ``send`` of one
    :class:`~repro.coordination.messages.Message` (False = known-lost;
    True promises nothing — acknowledgement is the reliability layer's
    job), a liveness flag, and teardown.
    """

    node_id: str

    def send(self, message: Message) -> bool:
        """Attempt one delivery; False if the send is known to be lost."""
        ...

    def close(self) -> None:
        """Tear the transport down; subsequent sends fail."""
        ...

    @property
    def connected(self) -> bool:
        """Liveness of the underlying link."""
        ...


# -- client side: the single resend code path ---------------------------------


class _ReplySlot:
    """One outstanding request's rendezvous with its reply."""

    __slots__ = ("event", "payload")

    def __init__(self):
        self.event = threading.Event()
        self.payload: "dict | None" = None


class ReliableLink:
    """Request/reply with timeout-resend over any :class:`Transport`.

    Every request is a uniquely-identified
    :class:`~repro.coordination.messages.Message`; retransmissions reuse
    the ID (so the server can dedup).  :meth:`_deliver` is the one
    resend loop: a request is acknowledged by its reply arriving within
    ``ack_timeout``, a post by the transport taking it; every
    re-attempt is counted in :attr:`resends` — abandoned sends' too —
    and spaced by ``backoff`` (anything with ``wait(attempt)``) when
    one is given.
    """

    def __init__(
        self,
        node_id: str,
        transport: "Transport | None" = None,
        ack_timeout: float = 1.0,
        max_attempts: int = 8,
        backoff: "ExponentialBackoff | None" = None,
        tracer: "typing.Any | None" = None,
        metrics: "typing.Any | None" = None,
    ):
        if max_attempts < 1:
            raise ValueError(f"max_attempts must be >= 1, got {max_attempts}")
        self.node_id = node_id
        self.transport = transport
        self.ack_timeout = ack_timeout
        self.max_attempts = max_attempts
        self.backoff = backoff
        self.tracer = tracer
        self.metrics = metrics
        #: Retransmissions performed, including those of abandoned sends.
        self.resends = 0
        self._factory = MessageFactory()
        self._slots: "dict[int, _ReplySlot]" = {}
        self._slots_lock = threading.Lock()
        #: extra trace-context fields stamped on every request (the
        #: worker agent fills in the job id once it learns it).
        self.trace_context: "dict[str, typing.Any]" = {}
        #: msg_id -> perf_counter time of its latest transmission; kept
        #: only while a tracer or registry observes the link.
        self._send_times: "dict[int, float]" = {}
        self._closed = False

    # -- wiring ----------------------------------------------------------------

    def attach(self, transport: Transport) -> "ReliableLink":
        """Bind the transport (which needed ``on_reply`` to exist first).

        One attempt is bounded by ``ack_timeout`` whether it waits for
        the reply or for the pipe to take the frame.
        """
        self.transport = transport
        transport.write_timeout = self.ack_timeout
        return self

    def on_reply(self, in_reply_to: int, payload: dict) -> None:
        """Inbound-reply hook the transport calls from its read path."""
        ctx = payload.pop(TRACE_CTX_KEY, None)
        if isinstance(ctx, dict):
            self._fold_clock_sample(in_reply_to, ctx)
        with self._slots_lock:
            slot = self._slots.get(in_reply_to)
        if slot is not None:
            slot.payload = payload
            slot.event.set()

    def _fold_clock_sample(self, in_reply_to: int, ctx: dict) -> None:
        """One NTP quadruple from a reply's transmission context, kept
        as a ``net.clock_sample`` instant — the trace is the one record
        of clock offsets (the fleet merger reads them back)."""
        t0 = self._send_times.get(in_reply_to)
        t1, t2 = ctx.get("recv"), ctx.get("sent")
        if t0 is None or t1 is None or t2 is None:
            return
        offset, rtt = clock_sample(
            t0, float(t1), float(t2), time.perf_counter()
        )
        if self.metrics is not None:
            self.metrics.counter("net.clock_samples").inc()
        if self.tracer is not None:
            self.tracer.instant(
                "net.clock_sample", track=self.node_id, cat="net",
                peer=ctx.get("node"), offset=offset, rtt=rtt,
            )

    # -- the request path ------------------------------------------------------

    def request(
        self,
        msg_type: MessageType,
        payload: "dict | None" = None,
        ack_timeout: "float | None" = None,
    ) -> dict:
        """Deliver one request exactly-once and return its reply payload.

        Resends (same msg_id) until the reply lands or the attempt
        budget runs out; raises :class:`RequestTimeout` on exhaustion,
        :class:`RemoteError` if the handler raised remotely.
        """
        message = self._stamp(msg_type, payload)
        slot = _ReplySlot()
        with self._slots_lock:
            self._slots[message.msg_id] = slot
        timeout = self.ack_timeout if ack_timeout is None else ack_timeout
        try:
            # A slot woken by close() holds no reply: not acknowledged.
            delivered = self._deliver(
                message,
                lambda _taken: slot.event.wait(timeout)
                and slot.payload is not None,
            )
        finally:
            with self._slots_lock:
                self._slots.pop(message.msg_id, None)
            self._send_times.pop(message.msg_id, None)
        if not delivered:
            raise RequestTimeout(
                f"{msg_type.value} request {message.msg_id} from "
                f"{self.node_id!r} "
                + ("was cut by close" if self._closed
                   else "exhausted its resend budget")
            )
        reply = slot.payload
        if "__error__" in reply:
            if "__retry__" in reply:
                raise RetryableError(
                    reply["__error__"], str(reply["__retry__"])
                )
            raise RemoteError(reply["__error__"])
        return reply

    def post(
        self, msg_type: MessageType, payload: "dict | None" = None
    ) -> None:
        """Send one message one-way: executed exactly once, never answered.

        Returns once the transport has taken the frame.  A send it
        reports lost is retried at once, on the same attempt budget and
        backoff as a request; :class:`RequestTimeout` when every attempt
        was lost.  A post written to a connection that later dies is
        replayed by the connection itself, which keeps it until a later
        reply on this link confirms it — so a caller follows its posts
        with a request, both to *know* and to let them go.
        """
        message = self._stamp(msg_type, payload, post=True)
        if self.metrics is not None:
            self.metrics.counter("net.posts").inc()
        if not self._deliver(message, lambda taken: taken):
            raise RequestTimeout(
                f"{msg_type.value} post {message.msg_id} from "
                f"{self.node_id!r} exhausted its resend budget"
            )

    def _stamp(
        self, msg_type: MessageType, payload: "dict | None",
        post: bool = False,
    ) -> Message:
        """A fresh message carrying this link's trace context — in the
        one copy of the caller's payload, which is never mutated."""
        if self.transport is None:
            raise TransportClosed("link has no transport attached")
        stamped = dict(payload or {})
        stamped[TRACE_CTX_KEY] = dict(
            self.trace_context,
            node=self.node_id,
            epoch=self._factory.epoch,
            sent=time.perf_counter(),
        )
        return self._factory.make(msg_type, self.node_id, stamped, post)

    def _deliver(
        self, message: Message, acknowledged: "typing.Callable[[bool], bool]"
    ) -> bool:
        """Transmit ``message`` until ``acknowledged(taken)`` — ``taken``
        being whether the transport took that transmission — or the
        attempt budget runs out, or the link is closed."""
        for attempt in range(self.max_attempts):
            if self._closed:
                return False
            if attempt:
                self.resends += 1
                if self.backoff is not None:
                    self.backoff.wait(attempt - 1)
            if acknowledged(self._transmit(message)):
                return True
        return False

    def _transmit(self, message: Message) -> bool:
        """One transmission, traced as ``net.send``; True if taken."""
        observed = self.tracer is not None or self.metrics is not None
        if observed and not message.post:
            # Timestamp every transmission (resends overwrite): the
            # reply's clock sample wants the t0 of the send that
            # produced it, and the latest send is the best estimate.
            self._send_times[message.msg_id] = time.perf_counter()
        delivered = self.transport.send(message)
        if not observed:
            return delivered
        nbytes = payload_nbytes(message.payload)
        if self.tracer is not None:
            self.tracer.instant(
                "net.send", track=self.node_id, cat="net",
                type=message.msg_type.value, msg_id=message.msg_id,
                delivered=delivered, payload_bytes=nbytes,
                **({"post": True} if message.post else {}),
            )
        if self.metrics is not None:
            self.metrics.counter("net.sends").inc()
            if nbytes:
                self.metrics.counter("net.payload_bytes_sent").inc(nbytes)
        return delivered

    def close(self) -> None:
        """Close the underlying transport and wake every parked request:
        each raises :class:`RequestTimeout` at once instead of sleeping
        out its ``ack_timeout``, and nothing is transmitted after."""
        self._closed = True
        with self._slots_lock:
            slots = list(self._slots.values())
        for slot in slots:
            slot.event.set()
        if self.transport is not None:
            self.transport.close()


# -- server side: the single dedup code path ----------------------------------


class _PendingReply:
    """Reply cache entry; exists from first sight of a request's msg_id
    onward (a post has none)."""

    __slots__ = ("event", "payload")

    def __init__(self):
        self.event = threading.Event()
        self.payload: "dict | None" = None


class ServerCore:
    """Exactly-once request execution with reply caching.

    Transport-independent: the TCP server and the in-memory transport
    both feed inbound messages to :meth:`dispatch`.  A fresh message
    runs the handler once; a retransmission (same ``(sender, msg_id)``)
    waits for — or is served from — the cached reply, never re-executing
    the handler.  That is the §V-D recipe's receiving half.  A one-way
    ``post`` is deduplicated the same way but has no reply to cache:
    its retransmission is dropped at once.

    The dedup window is bounded: ``dedup_ttl`` seconds after a reply
    completes, its entry (the seen key and its cached reply) is evicted,
    so a long-running serve process does not accumulate one entry per
    message forever.  The TTL only has to outlive the sender's resend
    horizon (``max_attempts × (ack_timeout + backoff)``, a few seconds)
    — the 120 s default leaves an order of magnitude of slack.
    """

    def __init__(
        self,
        handler: typing.Callable[[Message], dict],
        node_id: str = "am",
        tracer: "typing.Any | None" = None,
        reply_wait: float = 30.0,
        dedup_ttl: "float | None" = 120.0,
        metrics: "typing.Any | None" = None,
        on_activity: "typing.Callable[[str], None] | None" = None,
    ):
        self.handler = handler
        self.node_id = node_id
        self.tracer = tracer
        self.metrics = metrics
        self.reply_wait = reply_wait
        self.dedup_ttl = dedup_ttl
        #: Fencing epoch advertised in the TCP welcome (and readable by
        #: the in-memory transport); bumped by AM failover.
        self.epoch = 0
        #: Liveness hook, called with the sender id for *every* inbound
        #: message — duplicates included, because a worker stuck resending
        #: into a blocked barrier is very much alive.
        self.on_activity = on_activity
        #: the dedup window: every ``(sender, msg_id)`` seen and its
        #: reply-cache entry (None for a post, which has no reply).
        self._seen: "dict[tuple, _PendingReply | None]" = {}
        #: completed (key, finished_at) pairs, oldest first, awaiting TTL.
        self._retired: "collections.deque[tuple[tuple, float]]" = (
            collections.deque()
        )
        self._lock = threading.Lock()
        self.handled = 0
        #: retransmissions absorbed without re-execution.
        self.duplicates = 0
        self.evicted = 0
        #: one-way messages whose handler raised (nobody to tell).
        self.post_errors = 0
        #: per-(sender, type) handler executions, for exactly-once asserts.
        self.executions: "dict[tuple, int]" = {}

    def _evict_expired_locked(self, now: float) -> None:
        while self._retired and now - self._retired[0][1] > self.dedup_ttl:
            key, _ = self._retired.popleft()
            self._seen.pop(key, None)
            self.evicted += 1

    def dispatch(self, message: Message) -> dict:
        """Process one inbound message; returns the reply payload."""
        if self.on_activity is not None:
            self.on_activity(message.sender)
        # The wire trace context is transport metadata, not request
        # data: strip it before the handler (or nbytes accounting) sees
        # the payload.  Retransmissions may arrive without it.
        ctx = message.payload.pop(TRACE_CTX_KEY, None)
        if not isinstance(ctx, dict):
            ctx = None
        key = (message.sender, message.msg_id)
        with self._lock:
            if self.dedup_ttl is not None:
                self._evict_expired_locked(time.monotonic())
            fresh = key not in self._seen
            if fresh:
                # Nobody waits on a post's reply.
                pending = None if message.post else _PendingReply()
                self._seen[key] = pending
            else:
                self.duplicates += 1
                pending = self._seen[key]
        observed = self.tracer is not None or self.metrics is not None
        nbytes = payload_nbytes(message.payload) if observed else 0
        if self.tracer is not None:
            ctx_args = {}
            if ctx is not None:
                if ctx.get("job") is not None:
                    ctx_args["job"] = ctx.get("job")
                if ctx.get("epoch") is not None:
                    ctx_args["sender_epoch"] = ctx.get("epoch")
            self.tracer.instant(
                "net.recv", track=self.node_id, cat="net",
                sender=message.sender, type=message.msg_type.value,
                msg_id=message.msg_id, duplicate=not fresh,
                payload_bytes=nbytes, **ctx_args,
                **({"post": True} if message.post else {}),
            )
        if self.metrics is not None:
            self.metrics.counter(
                "net.requests" if fresh else "net.request_duplicates"
            ).inc()
            if fresh and nbytes:
                self.metrics.counter("net.payload_bytes_received").inc(nbytes)
        if not fresh:
            if message.post:
                return {}
            # A retransmission: the original may still be executing (it
            # raced a reconnect); wait for its reply rather than running
            # the handler twice.
            if pending is None or not pending.event.wait(self.reply_wait):
                return {"__error__": "duplicate outlived its reply cache"}
            return pending.payload or {}
        try:
            payload = self.handler(message)
        except Exception as exc:
            payload = {"__error__": f"{type(exc).__name__}: {exc}"}
            if message.post:
                self._post_failed(message, payload["__error__"])
        with self._lock:
            self.handled += 1
            count_key = (message.sender, message.msg_type.value)
            self.executions[count_key] = self.executions.get(count_key, 0) + 1
            self._retired.append((key, time.monotonic()))
        if pending is not None:
            pending.payload = payload
            pending.event.set()
        return payload

    def _post_failed(self, message: Message, error: str) -> None:
        """A one-way message has no reply to carry ``__error__`` home:
        the failure is counted and traced here instead."""
        self.post_errors += 1
        if self.metrics is not None:
            self.metrics.counter("net.post_errors").inc()
        if self.tracer is not None:
            self.tracer.instant(
                "net.post_error", track=self.node_id, cat="net",
                sender=message.sender, type=message.msg_type.value,
                msg_id=message.msg_id, error=error,
            )


# -- the in-memory transport --------------------------------------------------


class DirectPipe:
    """The memory transport's pipe: a call into ``ServerCore.dispatch``.

    No frames and no reader — the reply comes back on the sender's own
    thread, stamped with a transmission context exactly like a reply
    frame; a post is dispatched the same way and nothing comes back.
    In-process both clocks are the same perf_counter, so the measured
    offset is ~0 — a free sanity check on the estimator.  The server
    sees the sender's own ``Message``: its arrays are the sender's live
    buffers, ``borrowed`` as constructed.
    """

    def __init__(self, server: "ServerCore", deliver_reply):
        self.server = server
        self._deliver_reply = deliver_reply

    def send(self, message: Message, timeout: "float | None" = None) -> int:
        t_recv = time.perf_counter()
        reply = self.server.dispatch(message)
        if not message.post:
            # A shallow copy: the context must never land on the cached
            # reply dict itself.
            self._deliver_reply(
                message.msg_id, dict(reply),
                transmission_ctx(self.server, t_recv), self,
            )
        return 0

    def close(self) -> None:
        pass


class InMemoryTransport(Connection):
    """A :class:`Transport` that dispatches straight into a ServerCore.

    The shared :class:`~repro.net.connection.Connection` lifecycle over
    a :class:`DirectPipe`: the same fault stage — drops, duplicates, injected
    latency and connection resets as a real socket.  A reset drops the
    in-flight message with the "connection"; the next send pays the
    reconnect (counted, traced as ``net.reconnect``) and then proceeds,
    exactly like the TCP transport.

    The optional heartbeat mirrors the TCP transport's wire-level
    pings: it feeds the server's ``on_activity`` hook (lease
    keep-alive) without going through dispatch, so exactly-once
    execution counts are untouched.  A worker doing ring
    (peer-to-peer) iterations may otherwise not message the AM for a
    whole coordination interval — silence the lease evictor must not
    mistake for death.  Off by default; dies with :meth:`close`,
    exactly like a real process's socket.
    """

    def __init__(
        self,
        node_id: str,
        server: ServerCore,
        on_reply: typing.Callable[[int, dict], None],
        fault_plan: "FaultPlan | None" = None,
        backoff: "ExponentialBackoff | None" = None,
        tracer: "typing.Any | None" = None,
        heartbeat_interval: "float | None" = None,
    ):
        super().__init__(
            node_id, on_reply, endpoints=[server],
            backoff=backoff or ExponentialBackoff(base=0.001, max_delay=0.02),
            fault_plan=fault_plan, tracer=tracer,
            heartbeat_interval=heartbeat_interval,
        )
        self.connect()

    def _open_pipe(self, server: ServerCore) -> DirectPipe:
        return DirectPipe(server, self._deliver_reply)

    def _beat(self) -> None:
        # Not under the send lock: a sender parked inside a barrier
        # handler holds it, and that is exactly when the lease needs us.
        on_activity = getattr(self.endpoints[0], "on_activity", None)
        if self.connected and on_activity is not None:
            on_activity(self.node_id)

    @property
    def server_epoch(self) -> "int | None":
        """The served AM's fencing epoch (mirrors the TCP welcome)."""
        return getattr(self.endpoints[0], "epoch", None)

    def close(self) -> None:
        # Lock-free, unlike the base: a sender parked inside a barrier
        # handler holds the send lock, and this pipe owns nothing that
        # has to be released under it.
        self._closed.set()
        self._pipe = None

    def redirect(self, server: ServerCore) -> None:
        """Point this transport at a successor server (AM failover).

        The in-memory analogue of a TCP client reconnecting to the
        standby endpoint: subsequent sends dispatch into the new core,
        and :attr:`server_epoch` reports its (bumped) fencing epoch.
        """
        with self._send_lock:
            self.endpoints = [server]
            self._drop_connection()
            if not self._closed.is_set():
                self.connect()


def memory_link(
    server: ServerCore,
    node_id: str,
    fault_plan: "FaultPlan | None" = None,
    ack_timeout: float = 0.2,
    max_attempts: int = 10,
    tracer: "typing.Any | None" = None,
    metrics: "typing.Any | None" = None,
    heartbeat_interval: "float | None" = None,
) -> ReliableLink:
    """A ready-to-use reliable in-memory client for ``server``."""
    link = ReliableLink(
        node_id, ack_timeout=ack_timeout, max_attempts=max_attempts,
        tracer=tracer, metrics=metrics,
    )
    transport = InMemoryTransport(
        node_id, server, on_reply=link.on_reply, fault_plan=fault_plan,
        tracer=tracer, heartbeat_interval=heartbeat_interval,
    )
    return link.attach(transport)
