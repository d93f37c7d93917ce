"""Decentralized bucketized ring allreduce over worker-peer links.

The star rendezvous (every worker posts its gradient to the AM and
waits for the server-computed mean) costs ``2·N·S`` bytes through the
AM per iteration and one blocked reader thread per member.  This module
moves the gradient hot path onto direct worker↔worker links: the
classic two-phase ring — reduce-scatter then all-gather — as one
pipeline of ``2·(N-1)`` hops over element-aligned buckets, each reduced
as it lands and written to the successor at once by the same thread —
one-way, confirmed once per iteration by its last segment.

Bit-identity with the star path
-------------------------------

IEEE float addition is commutative but *not* associative, so "the same
mean" is only bit-reproducible if both planes add contributions in the
same association order.  The ring fixes that order per partition ``p``:
its reduction arc visits ranks ``p, p+1, …, p+N-1`` (mod N), i.e.

    ((c_p + c_{p+1}) + c_{p+2}) … + c_{p+N-1}) / N

:func:`ring_reference_average` replays exactly that association on a
single node.  A ring-enabled AM uses it for every star-served iteration
(pre-activation and degraded fallback), so whichever plane an iteration
takes, every replica applies bit-identical updates.

Degradation
-----------

Any ring abort — peer timeout, connection reset exhausting the resend
budget, generation bump — surfaces as :class:`RingDegraded`.  The
degraded mark is one-way per ``(generation, iteration)``: a worker that
raised never completes that ring, so peers polling its state converge.
The caller (the worker agent) then repairs from a peer that *did*
complete (fetching its cached mean) or, when every peer degraded,
retries the iteration through the star path — exactly-once either way.
"""

from __future__ import annotations

import contextlib
import dataclasses
import threading
import time
import typing

import numpy as np

from ..coordination.messages import Message, MessageType
from .transport import RemoteError, RequestTimeout, TransportClosed

#: default ring bucket size (bytes).  A lean segment costs ≈ 47 µs
#: before its first byte and ≈ 20–40 µs per 64 KB (docs/PROTOCOL.md,
#: "Bucket size"), so partitions up to this size travel as one segment
#: per hop — the fixed cost under a tenth of it; larger ones pipeline
#: bucket by bucket.
DEFAULT_RING_BUCKET_BYTES = 1024 * 1024

#: consecutive degraded iterations after which a node stops attempting
#: the ring until the next install (a persistently broken mesh would
#: otherwise pay the step timeout every single iteration).
MAX_RING_STRIKES = 5


class RingDegraded(RuntimeError):
    """The ring aborted this iteration; retry via repair or star."""


@dataclasses.dataclass(frozen=True)
class Slice:
    """A contiguous element range of one (flattened) parameter."""

    name: str
    start: int
    stop: int

    @property
    def elements(self) -> int:
        return self.stop - self.start


def partition_layout(
    items: "typing.Sequence[tuple[str, int, int]]", parts: int
) -> "list[list[Slice]]":
    """Split a parameter list into ``parts`` byte-balanced partitions.

    ``items`` is an ordered ``(name, elements, itemsize)`` sequence.
    Element ``e`` of the parameter starting at global byte offset ``g``
    belongs to partition ``((g + e·itemsize) · parts) // total_bytes``
    — a monotone, element-aligned, exact partition of the flattened
    parameter space that every rank computes identically from the spec
    alone (no negotiation message needed).
    """
    partitions: "list[list[Slice]]" = [[] for _ in range(parts)]
    total = sum(elements * itemsize for _, elements, itemsize in items)
    if total == 0:
        return partitions
    offset = 0  # global byte offset of the current parameter
    for name, elements, itemsize in items:
        start = 0
        while start < elements:
            part = ((offset + start * itemsize) * parts) // total
            # Smallest e with (offset + e·itemsize)·parts >= (part+1)·total
            # is the first element of the next partition.
            numer = (part + 1) * total - offset * parts
            denom = itemsize * parts
            stop = min(elements, (numer + denom - 1) // denom)
            partitions[part].append(Slice(name, start, stop))
            start = stop
        offset += elements * itemsize
    return partitions


def bucketize(
    slices: "typing.Sequence[Slice]",
    itemsizes: "typing.Mapping[str, int]",
    bucket_bytes: int,
) -> "list[list[Slice]]":
    """Cut one partition's slices into element-aligned buckets.

    Greedy fill up to ``bucket_bytes`` per bucket; a slice larger than
    the budget is split, and an element wider than the whole budget
    still travels (one element per bucket) rather than failing.
    """
    buckets: "list[list[Slice]]" = []
    current: "list[Slice]" = []
    used = 0
    for piece in slices:
        itemsize = itemsizes[piece.name]
        start = piece.start
        while start < piece.stop:
            room = (bucket_bytes - used) // itemsize
            if room <= 0:
                if current:
                    buckets.append(current)
                    current, used = [], 0
                room = max(1, bucket_bytes // itemsize)
            take = min(piece.stop - start, room)
            current.append(Slice(piece.name, start, start + take))
            start += take
            used += take * itemsize
    if current:
        buckets.append(current)
    return buckets


class RingLayout:
    """Deterministic partition/bucket geometry shared by every rank.

    Derived purely from the parameter shapes (sorted by name), the ring
    size and the bucket budget — so N processes compute identical
    layouts without exchanging a byte.
    """

    def __init__(
        self,
        params: "typing.Mapping[str, np.ndarray]",
        members: int,
        bucket_bytes: int = DEFAULT_RING_BUCKET_BYTES,
    ):
        self.members = members
        self.names = sorted(params)
        self.items = [
            (name, int(params[name].size), int(params[name].dtype.itemsize))
            for name in self.names
        ]
        self.itemsizes = {name: size for name, _, size in self.items}
        self.total_bytes = sum(e * i for _, e, i in self.items)
        self.partitions = partition_layout(self.items, members)
        self.buckets = [
            bucketize(slices, self.itemsizes, bucket_bytes)
            for slices in self.partitions
        ]

    @staticmethod
    def flat(array: np.ndarray) -> np.ndarray:
        """The 1-D view slices index into (copy only if non-contiguous)."""
        return array.reshape(-1)

    def views(
        self,
        arrays: "typing.Mapping[str, np.ndarray]",
        bucket: "typing.Sequence[Slice]",
    ) -> "list[np.ndarray]":
        """Zero-copy flat views of one bucket's slices."""
        return [
            self.flat(arrays[piece.name])[piece.start:piece.stop]
            for piece in bucket
        ]


def ring_reference_average(
    contributions: "typing.Sequence[typing.Mapping[str, np.ndarray]]",
) -> "dict[str, np.ndarray]":
    """The mean a healthy ring over ``contributions`` would compute.

    ``contributions`` must be ordered by ring rank (the group order the
    AM distributes).  Partition ``p``'s arc starts at rank ``p`` and
    accumulates one hop at a time — the same ufunc calls, operand order
    and division the distributed path performs, so the result is
    bit-identical to every ring member's.  The divisor is always the
    member count (absent members contribute zeros upstream).

    Each arc accumulates in place in the slice of ``out`` it owns; the
    contributions are only read (over the memory pipe they are the
    workers' live gradients).  ``out`` is fresh per call: the caller
    hands the mean to every member and to the reply cache.
    """
    members = len(contributions)
    if members == 0:
        raise ValueError("no gradients to average")
    base = contributions[0]
    # One bucket per partition: only the partition geometry matters here.
    layout = RingLayout(base, members, bucket_bytes=2**62)
    out = {name: np.empty_like(np.asarray(base[name])) for name in base}

    def arc(rank: int, piece: Slice) -> np.ndarray:
        contribution = np.asarray(contributions[rank % members][piece.name])
        return RingLayout.flat(contribution)[piece.start:piece.stop]

    for part, slices in enumerate(layout.partitions):
        for piece in slices:
            acc = RingLayout.flat(out[piece.name])[piece.start:piece.stop]
            acc[...] = arc(part, piece)
            for hop in range(1, members):
                # The ring accumulates np.add(received, local): the
                # partial arc is the left operand at every hop.
                np.add(acc, arc(part + hop, piece), out=acc)
            np.true_divide(acc, members, out=acc)
    return out


class RingMailbox:
    """Thread-safe segment inbox + per-iteration ring state machine.

    Peer server threads deposit ``RING_SEGMENT`` payloads; the compute
    thread collects them by key.  The mailbox also answers peers'
    ``RING_FETCH`` probes: per ``(generation, iteration)`` a ring run is
    ``running``, ``done`` (mean cached) or ``degraded`` — ``done`` and
    ``degraded`` are terminal, which is what makes the fallback protocol
    converge.  Only the *latest* completed mean is cached: lockstep
    bounds the spread to one iteration, and a peer cannot finish
    iteration ``k+1`` (overwriting the cache) until every repairing
    member of iteration ``k`` has caught up.
    """

    def __init__(self, metrics: "typing.Any | None" = None):
        self.metrics = metrics
        self._cond = threading.Condition()
        self._deposits: "dict[tuple, list]" = {}
        self._status: "dict[tuple, str]" = {}
        self._floor: "tuple | None" = None
        self._mean_key: "tuple | None" = None
        self._mean: "dict[str, np.ndarray] | None" = None

    # -- compute-thread side ---------------------------------------------------

    def begin(self, generation: int, iteration: int) -> None:
        """Open a ring run; GC segments/states this rank moved past."""
        key = (generation, iteration)
        with self._cond:
            self._floor = key
            self._status[key] = "running"
            self._deposits = {
                k: v for k, v in self._deposits.items() if k[:2] >= key
            }
            self._status = {
                k: v
                for k, v in self._status.items()
                if k >= (generation, iteration - 1)
            }

    def collect(self, key: tuple, timeout: float) -> "list | None":
        """Pop one deposited segment, waiting up to ``timeout``."""
        with self._cond:
            if self._cond.wait_for(lambda: key in self._deposits, timeout):
                return self._deposits.pop(key)
            return None

    def record_mean(
        self, generation: int, iteration: int,
        mean: "dict[str, np.ndarray]",
    ) -> None:
        """Mark the iteration done and cache its mean (ring or star).

        After an AM failover a peer whose sync reply died with the old
        AM is told its barrier is stale; it fetches this cached mean
        over the direct peer link instead.  Never regresses the cache:
        ring completion may already have cached a later iteration.
        """
        key = (generation, iteration)
        with self._cond:
            if self._mean_key is not None and key < self._mean_key:
                return
            self._status[key] = "done"
            self._mean_key = key
            self._mean = mean

    def degrade(self, generation: int, iteration: int) -> None:
        with self._cond:
            self._status[(generation, iteration)] = "degraded"

    # -- peer-server side ------------------------------------------------------

    def deposit(self, key: tuple, data: "list") -> bool:
        """Store one inbound segment; False if this rank moved past it."""
        with self._cond:
            if self._floor is not None and key[:2] < self._floor:
                return False
            self._deposits[key] = data
            self._cond.notify_all()
            return True

    def peer_state(
        self, generation: int, iteration: int
    ) -> "tuple[str, dict | None]":
        """(state, cached mean) for one iteration, for ``RING_FETCH``."""
        key = (generation, iteration)
        with self._cond:
            if self._mean_key == key:
                return "done", self._mean
            return self._status.get(key, "unknown"), None

    def handle(self, message: Message) -> dict:
        """The peer ``ServerCore`` handler (dedup'd, exactly-once)."""
        payload = message.payload
        if message.msg_type is MessageType.RING_SEGMENT:
            key = (
                int(payload["generation"]),
                int(payload["iteration"]),
                str(payload["phase"]),
                int(payload["step"]),
                int(payload["bucket"]),
            )
            # The accumulate step needs data that stays put.  A socket
            # pipe read it into a buffer of its own; over the in-memory
            # transport it aliases the sender's live scratch and over
            # shm a ring slot the sender will overwrite: copy those.
            data = payload["data"]
            if message.borrowed:
                data = [np.array(array) for array in data]
            if self.metrics is not None:
                self.metrics.counter("net.allreduce.segments_received").inc()
                self.metrics.counter("net.allreduce.bytes_received").inc(
                    sum(array.nbytes for array in data)
                )
            accepted = self.deposit(key, data)
            return {"ok": True, "stale": not accepted}
        if message.msg_type is MessageType.RING_FETCH:
            state, mean = self.peer_state(
                int(payload["generation"]), int(payload["iteration"])
            )
            reply: dict = {"state": state}
            if mean is not None:
                reply["grads"] = mean
            return reply
        raise ValueError(f"unexpected peer message {message.msg_type!r}")


def _close_quietly(link) -> None:
    try:
        link.close()
    except OSError:
        pass


def _maybe_span(tracer, name: str, track: str, cat: str = "net", **args):
    if tracer is None:
        return contextlib.nullcontext()
    return tracer.span(name, track=track, cat=cat, **args)


class RingNode:
    """One rank of the ring: owns the peer links and the algorithm.

    ``connect`` is a callable ``addr -> ReliableLink`` (supplied by the
    peer host), so the node itself is transport-agnostic.  Links are
    cached per address and reused across generations when the address
    survives the reshuffle.

    The calling thread runs the hop pipeline and every send: a segment
    is a one-way ``post`` unless it is the iteration's last — then it
    is a request, whose reply acknowledges everything written before
    it, so an iteration waits on one round trip.  An integer ``window``
    also confirms any segment that finds ``window`` posts already
    unacknowledged.  The node owns no thread.
    """

    def __init__(
        self,
        worker_id: str,
        mailbox: RingMailbox,
        connect: "typing.Callable[[str], typing.Any]",
        bucket_bytes: int = DEFAULT_RING_BUCKET_BYTES,
        window: "int | None" = None,
        step_timeout: float = 2.0,
        tracer: "typing.Any | None" = None,
        metrics: "typing.Any | None" = None,
        fail_at: "typing.Collection[int]" = (),
    ):
        self.worker_id = worker_id
        self.mailbox = mailbox
        self._connect = connect
        self.bucket_bytes = bucket_bytes
        self.window = None if window is None else max(1, window)
        self.step_timeout = step_timeout
        self.tracer = tracer
        self.metrics = metrics
        #: test knob: iterations at which this node aborts its ring
        #: before participating (deterministic degradation injection).
        self.fail_at = frozenset(fail_at)
        self.ring: "dict | None" = None
        self.strikes = 0
        #: the installed ring failed an iteration outright (no peer
        #: completed it): its generation stays on the star.
        self.fallen_back = False
        self._links: "dict[str, typing.Any]" = {}
        #: the last allreduce's geometry, keyed by (members, shapes).
        self._layout: "tuple[tuple, RingLayout] | None" = None
        #: peers whose link failed outright this ring epoch.  A suspect
        #: is never dialed again until a new ring is installed: a
        #: silently dead peer otherwise costs a full redial-and-resend
        #: budget on *every* send and *every* recovery probe, stretching
        #: a 2 s degrade into tens of seconds.  The AM's lease evictor
        #: removes the corpse and the next generation's ring resets the
        #: set — a merely slow peer rejoins there.
        self._suspects: "set[str]" = set()
        self._lock = threading.Lock()
        #: segments posted to the successor since its last reply.
        self._unconfirmed = 0
        self._closed = False

    # -- membership ------------------------------------------------------------

    def install(self, ring: "dict") -> None:
        """Adopt a generation's ring (order, peer addresses, epoch)."""
        self.ring = {
            "epoch": int(ring["epoch"]),
            "order": list(ring["order"]),
            "peers": dict(ring["peers"]),
            "active_from": int(ring["active_from"]),
        }
        self.strikes = 0
        self.fallen_back = False
        with self._lock:
            self._suspects.clear()

    def _count(self, name: str, amount: int = 1) -> None:
        if self.metrics is not None and amount:
            self.metrics.counter(name).inc(amount)

    def _suspect(self, peer: str) -> None:
        with self._lock:
            if peer in self._suspects:
                return
            self._suspects.add(peer)
            # Drop the cached link: if the peer ever serves this address
            # again (a later ring epoch), a fresh dial is the only way in.
            link = self._links.pop(self.ring["peers"].get(peer, ""), None)
        if link is not None:
            _close_quietly(link)
        self._count("net.allreduce.suspects")

    def active(self, generation: int, iteration: int) -> bool:
        """Should this iteration's gradients take the ring plane?"""
        ring = self.ring
        return (
            ring is not None
            and ring["epoch"] == generation
            and iteration >= ring["active_from"]
            and len(ring["order"]) > 1
            and self.worker_id in ring["order"]
            and self.strikes < MAX_RING_STRIKES
            and not self.fallen_back
        )

    def _link_to(self, peer: str):
        addr = self.ring["peers"][peer]
        with self._lock:
            if self._closed:
                raise TransportClosed(f"ring node {self.worker_id!r} is closed")
            if peer in self._suspects:
                raise TransportClosed(f"peer {peer!r} is suspect")
            link = self._links.get(addr)
            if link is None:
                link = self._links[addr] = self._connect(addr)
            return link

    def close(self) -> None:
        """Close every peer link; nothing is dialled afterwards."""
        with self._lock:
            self._closed = True
            links, self._links = list(self._links.values()), {}
        for link in links:
            _close_quietly(link)

    # -- the collective --------------------------------------------------------

    def allreduce(
        self, generation: int, iteration: int,
        grads: "typing.Mapping[str, np.ndarray]",
    ) -> "dict[str, np.ndarray]":
        """Reduce-scatter + all-gather; returns the bit-exact mean.

        One pipeline of ``2·(N-1)`` hops on the calling thread: the
        partition received at hop ``h`` is the one sent at hop ``h+1``,
        so a bucket is folded in place as it lands and written to the
        successor at once.  The last segment goes as a request, so the
        mean is returned only once every segment sent is acknowledged,
        failed or dropped for a suspect: no send outlives the call that
        issued it.

        Raises :class:`RingDegraded` (after marking the iteration
        degraded, so peers' probes converge) on a receive timeout.  Send
        failures do *not* degrade this rank — its own result only
        depends on what it receives; a successor that missed data will
        degrade itself and repair from whoever completed.
        """
        order = self.ring["order"]
        members = len(order)
        rank = order.index(self.worker_id)
        successor = order[(rank + 1) % members]
        geometry = (members, tuple(
            (name, array.shape, array.dtype.str)
            for name, array in sorted(grads.items())
        ))
        if self._layout is None or self._layout[0] != geometry:
            self._layout = geometry, RingLayout(
                grads, members, self.bucket_bytes
            )
        layout = self._layout[1]
        self.mailbox.begin(generation, iteration)
        # Working copy: the pristine ``grads`` stay untouched for the
        # star fallback; ``scratch`` becomes the mean in place.
        scratch = {name: np.array(grads[name]) for name in grads}
        started = time.perf_counter()
        steps = members - 1  # hops per phase
        phases = (("rs", "reduce_scatter"), ("ag", "all_gather"))
        # Hop h sends partition (rank - h); the last bucket of the last
        # hop that has any is the iteration's confirming request.
        last = next(
            ((hop, len(layout.buckets[(rank - hop) % members]) - 1)
             for hop in reversed(range(2 * steps))
             if layout.buckets[(rank - hop) % members]),
            None,
        )
        self._unconfirmed = 0

        def post(hop: int, index: int, views) -> None:
            payload = dict(
                generation=generation, iteration=iteration,
                phase=phases[hop // steps][0], step=hop % steps,
                bucket=index, data=views,
            )
            self._send(successor, payload, confirm=(hop, index) == last)

        try:
            if iteration in self.fail_at:
                raise RingDegraded(
                    f"{self.worker_id} injected ring failure at {iteration}"
                )
            with _maybe_span(
                self.tracer, "net.allreduce", self.worker_id,
                generation=generation, iteration=iteration, members=members,
                bytes=layout.total_bytes,
            ):
                # Hop 0 ships this rank's own partition as computed.
                for index, bucket in enumerate(layout.buckets[rank]):
                    post(0, index, layout.views(scratch, bucket))
                for first, (phase, name) in zip((0, steps), phases):
                    with _maybe_span(
                        self.tracer, f"net.allreduce.{name}", self.worker_id,
                        hops=steps, bytes=layout.total_bytes,
                    ):
                        for hop in range(first, first + steps):
                            part = (rank - hop - 1) % members
                            # The last reduce hop completes the arc:
                            # divide to the mean on the spot.
                            divisor = members if hop == steps - 1 else 0
                            for index, bucket in enumerate(
                                layout.buckets[part]
                            ):
                                views = layout.views(scratch, bucket)
                                key = (generation, iteration, phase,
                                       hop % steps, index)
                                self._receive(key, views, divisor)
                                if hop + 1 < 2 * steps:
                                    post(hop + 1, index, views)
        except RingDegraded as exc:
            self.mailbox.degrade(generation, iteration)
            self.strikes += 1
            self._count("net.allreduce.degraded")
            if self.tracer is not None:
                self.tracer.instant(
                    "net.allreduce.degraded", track=self.worker_id,
                    cat="net", generation=generation, iteration=iteration,
                    reason=str(exc),
                )
            raise
        self.mailbox.record_mean(generation, iteration, scratch)
        self.strikes = 0
        if self.metrics is not None:
            self.metrics.counter("net.allreduce.count").inc()
            self.metrics.histogram("net.allreduce.seconds").observe(
                time.perf_counter() - started
            )
        return scratch

    def _receive(self, key: tuple, views, divisor: int) -> None:
        """Collect one bucket and fold it into ``views`` in place."""
        data = self.mailbox.collect(key, self.step_timeout)
        if data is None:
            raise RingDegraded(
                f"{self.worker_id} timed out waiting for segment "
                f"(generation, iteration, phase, step, bucket) = {key}"
            )
        gather = key[2] == "ag"
        for view, received in zip(views, data):
            if gather:
                view[:] = received
                continue
            # The arriving partial arc is the left operand — the
            # association the reference average replays.
            np.add(received, view, out=view)
            if divisor:
                np.true_divide(view, divisor, out=view)

    # -- sending ---------------------------------------------------------------

    def _send(self, successor: str, payload: dict, confirm: bool) -> None:
        """Write one segment on the successor's *current* link.

        A one-way post, or — for the iteration's last segment and, with
        an integer ``window``, for one that would leave more than
        ``window`` posts unacknowledged — a request: its reply
        acknowledges every segment written before it on the link.  A
        successor that leaves a request's whole resend budget unanswered
        has timed out its own receive long ago: it is suspected, so
        nothing blocks on it again.
        """
        try:
            link = self._link_to(successor)
        except OSError:
            # A connect-level failure (refused, endpoint gone) means
            # the successor is dead, not lossy: suspect it so later
            # sends and probes fail instantly, without the dial.
            self._suspect(successor)
            self._count("net.allreduce.send_failures")
            return
        try:
            if confirm or (
                self.window is not None and self._unconfirmed >= self.window
            ):
                link.request(MessageType.RING_SEGMENT, payload)
                self._unconfirmed = 0
            else:
                link.post(MessageType.RING_SEGMENT, payload)
                self._unconfirmed += 1
        except RequestTimeout:
            self._suspect(successor)
            self._count("net.allreduce.send_failures")
        except (OSError, RemoteError) as exc:
            # A broken link short of a timeout, or the successor's
            # handler refusing the segment: the collective outlives it.
            self._count("net.allreduce.send_failures")
            if self.tracer is not None:
                self.tracer.instant(
                    "net.allreduce.send_error", track=self.worker_id,
                    cat="net", error=repr(exc),
                )
        else:
            self._count("net.allreduce.segments_sent")
            self._count(
                "net.allreduce.bytes_sent",
                sum(view.nbytes for view in payload["data"]),
            )

    # -- degraded-path probes --------------------------------------------------

    def fetch_peer_state(
        self, peer: str, generation: int, iteration: int
    ) -> dict:
        """One ``RING_FETCH`` probe of a peer's iteration state.

        A probe that the link or the peer's handler fails suspects the
        peer: probes are tiny requests with a full resend budget, so a
        peer that cannot answer one is dead for this ring epoch —
        recovery loops must not pay the same multi-second discovery on
        every round.  Anything else is a bug and propagates.
        """
        try:
            return self._link_to(peer).request(
                MessageType.RING_FETCH,
                {"generation": generation, "iteration": iteration},
            )
        except (OSError, RemoteError):
            self._suspect(peer)
            raise
