"""Chunked, pipelined state replication over the reliable message layer.

A whole snapshot in a single message would be one giant frame and one
giant resend on any fault.  This module streams it as a *blob* cut into
fixed-size chunks:

* :class:`StateBlob` — the sender side.  Encodes a state dict once into
  a gather list of byte views (``[4B header_len][header][segments...]``,
  arrays contributing their buffers directly — no base64, no flattening
  copy) and slices chunks across it on demand.
* :class:`ChunkAssembler` — the receiver side.  One preallocated
  buffer, per-chunk digest verification, duplicate accounting, and a
  whole-blob digest check before anything is decoded.  The AM keeps one
  for the in-flight plan's upload
  (:class:`~repro.net.replication_gate.ReplicationGate`).
* :class:`ChunkedUploader` — the donor's client loop that pushes chunks
  to the AM with a small pipeline window.

Every chunk rides an ordinary reliable request, so resume after a
connection reset is free: acked chunks are never resent — the link
retries only the in-flight message ids — and the assembler keeps what
it has.  An AM takeover is resumed by the same rule one level up: every
chunk carries the blob's geometry, so the successor's first chunk opens
a fresh assembler, and a ``STATE_DONE`` that finds chunks missing is
answered with their seqs, which the uploader resends before finalizing
again.  Either way the upload continues from what the receiver holds
rather than restarting.  The same property holds verbatim on
``InMemoryTransport`` and ``TcpTransport``; chunking happens *above*
the transport seam.

Joining
-------

A joiner receives state one way: as a deterministic *shard plan*
(:func:`shard_ranges` / :meth:`StateBlob.shard_plan`) — the blob
partitioned into contiguous, chunk-aligned, digest-addressed shards.
Because every healthy worker holds a bit-identical replica, any of
them can encode the same blob and serve any shard of it —
:class:`ShardStore` is that owner-side registry (frozen bytes, TTL
eviction, chunk serving).  A plan with no live owner is one shard
covering the whole blob, served by the AM from its uploaded copy.
:class:`ShardedFetcher` is the one joiner side: one pipelined fetch
loop per shard, concurrently (fan-in bandwidth instead of the
single-uploader bottleneck), with a digest check per shard; each loop
falls through its shard's sources — the planned owner, the surviving
owners, the AM's full copy — when an owner fails mid-fetch.  Joiners
fetch in the replication planner's rounds: the AM holds a round probe
(or a chunk request of its own copy) until the joiner's round opens and
answers ``pending`` only when the hold lapses, so no client loop sleeps
between asks.

The blob's bytes are the frame codec's segment layout
(:func:`wire.json_header` / :func:`wire.join_segments`): a JSON header
behind a plain 4-byte length, its ``__segs__`` table sizing the raw
segments after it.
"""

from __future__ import annotations

import hashlib
import math
import secrets
import threading
import time
import typing

from ..coordination.messages import MessageType
from . import wire
from .collective import _close_quietly, _maybe_span
from .transport import RemoteError
from .wire import WireError, _flat_view

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..observability import MetricRegistry, Tracer
    from .transport import ReliableLink

#: Default chunk size.  Small enough that even test-scale snapshots cut
#: into several chunks (exercising resume paths), large enough that the
#: per-chunk request overhead is noise against the copy it avoids.
DEFAULT_CHUNK_BYTES = 256 * 1024

_LENGTH = wire._LENGTH


def _digest(data) -> str:
    return hashlib.sha256(_flat_view(data)).hexdigest()


def shard_ranges(
    total_chunks: int, chunk_bytes: int, total_bytes: int, count: int,
) -> "list[dict]":
    """The deterministic shard plan for one blob geometry.

    The chunk sequence space is partitioned into ``count`` contiguous,
    chunk-aligned ranges (never more shards than chunks); remainder
    chunks go to the lowest-indexed shards, so the partition is a pure
    function of the geometry — every party (AM, shard owners, joiners)
    derives the identical plan without exchanging it.  Each shard is a
    dict of ``index`` plus half-open chunk/byte ranges; digests are
    added by whoever holds the bytes (:meth:`StateBlob.shard_plan`).
    """
    total_chunks = int(total_chunks)
    total_bytes = int(total_bytes)
    chunk_bytes = int(chunk_bytes)
    if count < 1:
        raise ValueError(f"shard count must be positive, got {count}")
    if total_chunks != max(1, math.ceil(max(0, total_bytes) / chunk_bytes)):
        raise WireError(
            f"shard plan claims {total_chunks} chunks for {total_bytes} "
            f"bytes at {chunk_bytes} bytes/chunk"
        )
    count = min(int(count), total_chunks)
    base, extra = divmod(total_chunks, count)
    shards: "list[dict]" = []
    start_chunk = 0
    for index in range(count):
        end_chunk = start_chunk + base + (1 if index < extra else 0)
        start_byte = start_chunk * chunk_bytes
        end_byte = min(end_chunk * chunk_bytes, total_bytes)
        shards.append({
            "index": index,
            "start_chunk": start_chunk,
            "end_chunk": end_chunk,
            "start_byte": start_byte,
            "end_byte": end_byte,
        })
        start_chunk = end_chunk
    return shards


class StateBlob:
    """An encoded snapshot: a gather list of byte views plus digests.

    The encode is zero-copy for every contiguous array — segments are
    ``memoryview``\\ s over the live buffers — so the blob must be
    consumed (uploaded or copied) before those arrays are mutated.
    Uploads happen at commit boundaries while training is paused, which
    gives exactly that window.
    """

    def __init__(self, buffers: "list[memoryview | bytes]",
                 chunk_bytes: int = DEFAULT_CHUNK_BYTES):
        if chunk_bytes < 1:
            raise ValueError("chunk_bytes must be positive")
        self.chunk_bytes = int(chunk_bytes)
        self._views = [_flat_view(buffer) for buffer in buffers]
        self._starts: "list[int]" = []
        offset = 0
        for view in self._views:
            self._starts.append(offset)
            offset += view.nbytes
        self.total_bytes = offset
        self.total_chunks = max(1, math.ceil(self.total_bytes / self.chunk_bytes))
        hasher = hashlib.sha256()
        for view in self._views:
            hasher.update(view)
        self.digest = hasher.hexdigest()

    @classmethod
    def encode(cls, state: dict,
               chunk_bytes: int = DEFAULT_CHUNK_BYTES) -> "StateBlob":
        """Encode a state dict into a blob without flattening it: the
        frame codec's header (:func:`wire.json_header`) behind a plain
        4-byte length, then the segments."""
        header, segments = wire.json_header({"state": state}, table=True)
        return cls([_LENGTH.pack(len(header)), header, *segments], chunk_bytes)

    def _parts(self, start: int, end: int) -> "list[memoryview]":
        """Views of the segments' bytes in ``[start, end)``, in order."""
        parts = []
        for view, vstart in zip(self._views, self._starts):
            vend = vstart + view.nbytes
            if vend <= start or vstart >= end:
                continue
            parts.append(view[max(start, vstart) - vstart:min(end, vend) - vstart])
        return parts

    def chunk(self, seq: int) -> "memoryview | bytes":
        """Bytes of chunk ``seq`` — a view when it lies inside one
        segment, a joined copy when it straddles segment boundaries."""
        if not 0 <= seq < self.total_chunks:
            raise IndexError(f"chunk {seq} of {self.total_chunks}")
        start = seq * self.chunk_bytes
        parts = self._parts(start, min(start + self.chunk_bytes, self.total_bytes))
        if len(parts) == 1:
            return parts[0]
        return b"".join(bytes(part) for part in parts)

    def chunk_digest(self, seq: int) -> str:
        return _digest(self.chunk(seq))

    def byte_range(self, start: int, end: int) -> bytes:
        """A copy of the blob's bytes in ``[start, end)``."""
        if not 0 <= start <= end <= self.total_bytes:
            raise IndexError(f"byte range [{start}, {end}) of {self.total_bytes}")
        return b"".join(bytes(part) for part in self._parts(start, end))

    def tobytes(self) -> bytes:
        """A frozen copy of the whole blob (shard owners freeze this
        at the commit boundary; the views themselves alias live
        tensors that mutate once training resumes)."""
        return self.byte_range(0, self.total_bytes)

    def shard_plan(self, count: int) -> "list[dict]":
        """:func:`shard_ranges` for this blob, digests filled in.

        Each shard's sha256 covers exactly its byte range, and the
        ranges tile the blob — so hashing the shards' bytes in index
        order reproduces :attr:`digest`.
        """
        shards = shard_ranges(
            self.total_chunks, self.chunk_bytes, self.total_bytes, count
        )
        for shard in shards:
            shard["digest"] = _digest(
                self.byte_range(shard["start_byte"], shard["end_byte"])
            )
        return shards

    def describe(self, transfer_id: str) -> dict:
        """The transfer descriptor shipped inside join offers."""
        return {
            "transfer_id": transfer_id,
            "total_bytes": self.total_bytes,
            "total_chunks": self.total_chunks,
            "chunk_bytes": self.chunk_bytes,
            "digest": self.digest,
        }


def decode_state_blob(data) -> dict:
    """Decode a reassembled blob back into a state dict (zero-copy:
    arrays are ``np.frombuffer`` views over ``data``) with the frame
    codec's segment parser, :func:`wire.join_segments` — uncapped: a
    blob is not a frame."""
    view = _flat_view(data)
    if view.nbytes < _LENGTH.size:
        raise WireError("state blob shorter than its header prefix")
    (header_len,) = _LENGTH.unpack_from(view)
    blob = wire.ByteCursor(view[_LENGTH.size:], "state blob")
    header = wire.decode_frame(blob.take(header_len))
    state = wire.join_segments(header, blob.take)
    blob.finish()
    return state.get("state")


class ChunkAssembler:
    """Receiver half: collect verified chunks into one buffer.

    Duplicate chunks (retransmissions that raced their ack) are counted
    and dropped; a corrupt chunk — wrong length or failed digest —
    raises :class:`WireError` so the sender's request errors instead of
    silently poisoning the snapshot.
    """

    def __init__(self, transfer_id: str, total_bytes: int, total_chunks: int,
                 chunk_bytes: int):
        total_bytes = int(total_bytes)
        total_chunks = int(total_chunks)
        chunk_bytes = int(chunk_bytes)
        if total_bytes < 0 or chunk_bytes < 1:
            raise WireError("invalid transfer geometry")
        if total_chunks != max(1, math.ceil(total_bytes / chunk_bytes)):
            raise WireError(
                f"transfer claims {total_chunks} chunks for {total_bytes} "
                f"bytes at {chunk_bytes} bytes/chunk"
            )
        self.transfer_id = transfer_id
        self.total_bytes = total_bytes
        self.total_chunks = total_chunks
        self.chunk_bytes = chunk_bytes
        self.buffer = bytearray(total_bytes)
        self.received: "set[int]" = set()
        self.duplicates = 0
        self.started_at = time.monotonic()
        #: the whole-blob sha256 :meth:`finish` verified (None before,
        #: or when it was given no digest to check).
        self.digest: "str | None" = None

    def chunk_len(self, seq: int) -> int:
        """Bytes in chunk ``seq`` (the last one may be short)."""
        start = seq * self.chunk_bytes
        return min(start + self.chunk_bytes, self.total_bytes) - start

    def add(self, seq: int, data, digest: "str | None" = None) -> bool:
        """Verify and store one chunk; True if it was fresh."""
        if not isinstance(seq, int) or not 0 <= seq < self.total_chunks:
            raise WireError(f"chunk seq {seq!r} out of range")
        view = _flat_view(data)
        if view.nbytes != self.chunk_len(seq):
            raise WireError(
                f"chunk {seq} is {view.nbytes} bytes, "
                f"expected {self.chunk_len(seq)}"
            )
        if digest is not None and _digest(view) != digest:
            raise WireError(f"chunk {seq} failed its digest check")
        if seq in self.received:
            self.duplicates += 1
            return False
        start = seq * self.chunk_bytes
        self.buffer[start:start + view.nbytes] = view
        self.received.add(seq)
        return True

    def adopt_shard(self, shard: dict, data, digest: "str | None" = None) -> int:
        """Install one whole shard's bytes (a fetched shard's buffer).

        ``shard`` is a :func:`shard_ranges` entry; ``data`` must span
        exactly its byte range and (when given) match ``digest``.  All
        chunks the shard covers are marked received, so a transfer can
        be completed from a mix of adopted shards and fetched chunks.
        Returns the number of bytes adopted.
        """
        start_byte, end_byte = int(shard["start_byte"]), int(shard["end_byte"])
        start_chunk, end_chunk = int(shard["start_chunk"]), int(shard["end_chunk"])
        if not (
            0 <= start_byte <= end_byte <= self.total_bytes
            and 0 <= start_chunk <= end_chunk <= self.total_chunks
        ):
            raise WireError(f"shard out of range: {shard}")
        view = _flat_view(data)
        if view.nbytes != end_byte - start_byte:
            raise WireError(
                f"shard {shard.get('index')} is {view.nbytes} bytes, "
                f"expected {end_byte - start_byte}"
            )
        if digest is not None and _digest(view) != digest:
            raise WireError(
                f"shard {shard.get('index')} failed its digest check"
            )
        self.buffer[start_byte:end_byte] = view
        self.received.update(range(start_chunk, end_chunk))
        return view.nbytes

    @property
    def complete(self) -> bool:
        return len(self.received) == self.total_chunks

    @property
    def missing(self) -> "list[int]":
        """The seqs not received yet, ascending."""
        return [
            seq for seq in range(self.total_chunks) if seq not in self.received
        ]

    def finish(self, digest: "str | None" = None) -> memoryview:
        """Verify completeness (and the whole-blob digest, kept as
        :attr:`digest`) and return a view of the assembled blob."""
        if not self.complete:
            raise WireError(
                f"transfer incomplete: {len(self.missing)} chunks missing"
            )
        if digest is not None:
            if _digest(self.buffer) != digest:
                raise WireError("assembled blob failed its digest check")
            self.digest = digest
        return memoryview(self.buffer)


class _ShardEntry:
    """One frozen blob served chunk by chunk, digests computed lazily
    (an owner's registered transfer, or the AM's download)."""

    __slots__ = (
        "data", "total_bytes", "total_chunks", "chunk_bytes",
        "registered_at", "last_served", "_chunk_digests",
    )

    def __init__(self, data: bytes, chunk_bytes: int, now: float):
        self.data = data
        self.total_bytes = len(data)
        self.chunk_bytes = int(chunk_bytes)
        self.total_chunks = max(1, math.ceil(self.total_bytes / self.chunk_bytes))
        self.registered_at = now
        self.last_served = now
        self._chunk_digests: "dict[int, str]" = {}

    def chunk(self, seq: int) -> memoryview:
        start = seq * self.chunk_bytes
        return memoryview(self.data)[
            start:min(start + self.chunk_bytes, self.total_bytes)
        ]

    def chunk_digest(self, seq: int) -> str:
        digest = self._chunk_digests.get(seq)
        if digest is None:
            digest = self._chunk_digests[seq] = _digest(self.chunk(seq))
        return digest


class ShardStore:
    """Owner-side shard serving: frozen blobs answered chunk by chunk.

    Every healthy replica holds the full training state, so at a commit
    boundary each elected shard owner encodes the (bit-identical) blob,
    freezes its bytes here, and keeps training — the peer server thread
    then answers joiners' ``STATE_FETCH`` requests for *any* chunk of
    it.  Serving the whole frozen blob (not just the owned shards) is
    what makes failover re-planning real: when a shard owner dies
    mid-fetch, any surviving owner can serve the dead owner's shards.

    Entries are evicted on a TTL (:attr:`DEFAULT_TTL`) and replaced on
    re-registration, so long-lived workers hold at most a few adjustment
    snapshots transiently.

    ``on_serve`` is a chaos seam: called with the running count of
    served chunks *before* each reply, so a fault plan can kill the
    owner mid-fetch at a deterministic serve index.
    """

    #: default idle TTL; deliberately the same bound as
    #: ``ServerCore.dedup_ttl`` — a joiner idle longer than the reply
    #: cache's memory of its requests cannot resume exactly-once anyway.
    DEFAULT_TTL = 120.0

    def __init__(self, metrics: "MetricRegistry | None" = None,
                 ttl: "float | None" = DEFAULT_TTL,
                 clock: "typing.Callable[[], float]" = time.monotonic,
                 on_serve: "typing.Callable[[int], None] | None" = None):
        self._entries: "dict[str, _ShardEntry]" = {}
        self._lock = threading.Lock()
        self.metrics = metrics
        self.ttl = ttl
        self._clock = clock
        self.on_serve = on_serve
        self.served = 0
        self.bytes_served = 0
        self.evicted = 0

    def register(self, transfer_id: str, blob: "StateBlob") -> int:
        """Freeze ``blob`` under ``transfer_id``; returns frozen bytes."""
        data = blob.tobytes()
        now = self._clock()
        with self._lock:
            self._evict_expired_locked(now)
            self._entries[str(transfer_id)] = _ShardEntry(
                data, blob.chunk_bytes, now
            )
        if self.metrics is not None:
            self.metrics.counter("net.shards.registered").inc()
            self.metrics.counter("net.shards.bytes_frozen").inc(len(data))
        return len(data)

    def release(self, transfer_id: str) -> None:
        with self._lock:
            self._entries.pop(str(transfer_id), None)

    def holds(self, transfer_id: str) -> bool:
        with self._lock:
            return str(transfer_id) in self._entries

    def _evict_expired_locked(self, now: float) -> None:
        if self.ttl is None or self.ttl <= 0:
            return
        for transfer_id in [
            t for t, e in self._entries.items()
            if now - e.last_served > self.ttl
        ]:
            del self._entries[transfer_id]
            self.evicted += 1
            if self.metrics is not None:
                self.metrics.counter("net.shards.evicted").inc()

    def handle_fetch(self, sender: str, payload: dict) -> dict:
        """Serve one chunk of a frozen blob (the peer-server handler)."""
        transfer_id = str(payload.get("transfer_id"))
        now = self._clock()
        with self._lock:
            self._evict_expired_locked(now)
            entry = self._entries.get(transfer_id)
            if entry is None:
                return {"ok": False, "reason": "unknown transfer"}
            entry.last_served = now
            seq = payload.get("seq")
            if not isinstance(seq, int) or not 0 <= seq < entry.total_chunks:
                return {"ok": False, "reason": f"bad seq {seq!r}"}
            if self.on_serve is not None:
                self.on_serve(self.served)
            chunk = entry.chunk(seq)
            digest = entry.chunk_digest(seq)
            self.served += 1
            self.bytes_served += chunk.nbytes
        if self.metrics is not None:
            self.metrics.counter("net.shards.served").inc()
            self.metrics.counter("net.shards.bytes_served").inc(chunk.nbytes)
        return {"ok": True, "seq": seq, "data": chunk, "digest": digest}


class TransferError(ConnectionError):
    """A chunked transfer failed permanently (digest, geometry, refusal)."""


class _SeqFeed:
    """Thread-safe dispenser of chunk sequence numbers."""

    def __init__(self, seqs: "typing.Iterable[int]"):
        self._seqs = iter(seqs)
        self._lock = threading.Lock()

    def take(self) -> "int | None":
        with self._lock:
            return next(self._seqs, None)


def _run_window(window: int, seqs: typing.Sequence, pump) -> None:
    """Run ``pump`` on the calling thread and ``window - 1`` more
    (never more than there are items in ``seqs``).

    ``pump`` is called with a :class:`_SeqFeed` over ``seqs``; the
    first exception any worker raises is re-raised here after all
    workers stop.
    """
    feed = _SeqFeed(seqs)
    errors: "list[BaseException]" = []

    def runner():
        try:
            pump(feed, errors)
        except BaseException as exc:  # noqa: BLE001 - reported to caller
            errors.append(exc)

    threads = [
        threading.Thread(target=runner, daemon=True)
        for _ in range(min(window, len(seqs)) - 1)
    ]
    for thread in threads:
        thread.start()
    runner()
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]


class ChunkedUploader:
    """Push a snapshot to the server as pipelined ``STATE_CHUNK`` s.

    ``window`` requests ride the link concurrently, so chunk ``k+1`` is
    being sliced and framed while ``k`` is still in flight — the
    pipelining half of the data plane.  ``window=1`` degrades to a
    deterministic serial upload, which chaos tests use to aim faults at
    exact chunk indices.  ``link`` is anything with ``request`` and
    ``node_id``: a worker hands in its failover-riding request path.
    """

    def __init__(self, link: "ReliableLink", chunk_bytes: int = DEFAULT_CHUNK_BYTES,
                 window: int = 4,
                 tracer: "Tracer | None" = None,
                 metrics: "MetricRegistry | None" = None):
        self.link = link
        self.chunk_bytes = int(chunk_bytes)
        self.window = max(1, int(window))
        self.tracer = tracer
        self.metrics = metrics

    def upload(self, state: "dict | StateBlob",
               transfer_id: "str | None" = None,
               context: "dict | None" = None) -> dict:
        """Encode (unless ``state`` is a blob already), stream, and
        finalize one snapshot; returns a summary.

        A ``STATE_DONE`` the receiver cannot finalize yet — a successor
        AM took over mid-stream and holds only what reached it — is
        answered with the ``missing`` seqs; exactly those are resent
        and the transfer finalized again.
        """
        blob = state if isinstance(state, StateBlob) else StateBlob.encode(
            state, self.chunk_bytes
        )
        transfer_id = transfer_id or f"{self.link.node_id}/{secrets.token_hex(4)}"
        base = blob.describe(transfer_id)

        def pump(feed, errors):
            while not errors:
                seq = feed.take()
                if seq is None:
                    return
                reply = self.link.request(MessageType.STATE_CHUNK, dict(
                    base, seq=seq, digest=blob.chunk_digest(seq),
                    data=blob.chunk(seq),
                ))
                if not reply.get("ok"):
                    raise TransferError(f"chunk {seq} refused: {reply}")
                if self.metrics is not None:
                    self.metrics.counter("net.chunks.sent").inc()

        with _maybe_span(
            self.tracer, "net.state_upload", self.link.node_id,
            transfer_id=transfer_id, payload_bytes=blob.total_bytes,
            chunks=blob.total_chunks,
        ):
            done = dict(base, **(context or {}))
            seqs = range(blob.total_chunks)
            while seqs:
                _run_window(self.window, seqs, pump)
                reply = self.link.request(MessageType.STATE_DONE, done)
                seqs = [] if reply.get("ok") else reply.get("missing")
            if not reply.get("ok"):
                raise TransferError(f"transfer {transfer_id} refused: {reply}")
        if self.metrics is not None:
            self.metrics.counter("net.chunks.bytes_sent").inc(blob.total_bytes)
        return {
            "transfer_id": transfer_id,
            "chunks": blob.total_chunks,
            "payload_bytes": blob.total_bytes,
            "digest": blob.digest,
            "reply": reply,
        }


class ShardedFetcher:
    """The one joiner-side fetch: pull a shard plan, one loop per shard.

    The descriptor (minted by the AM) carries a ``shards`` list — each
    entry a :func:`shard_ranges` range plus its ground-truth ``digest``
    (from the uploaded blob), the ``owner`` worker elected to serve it,
    and that owner's peer ``addr``.  A shard whose owner and addr are
    ``None`` is served by the AM itself over ``link``: a planned
    source, not a re-plan.

    Every shard is fetched concurrently by its own loop (the first on
    the calling thread, each running a ``window``-wide pipeline), after
    a round-gate probe against the AM when any shard has an owner (the
    AM gates its own chunk requests the same way): fan-in bandwidth
    instead of the single-uploader bottleneck.  The AM holds a request
    whose round is still closed until the round opens, answering
    ``pending`` only once its hold lapses; the fetcher asks again at
    once — it never sleeps.
    A loop falls through the shard's sources — its planned owner, the
    other owners not yet dead, the AM's own full copy — so an owner
    lost mid-fetch, whose handler raised or whose bytes fail the digest
    check (a divergent replica) never fails the join.

    Only once the assembled blob verifies is completion reported to the
    AM (``{"complete": True}``): that report is what opens the next
    joiner round.
    """

    def __init__(self, link: "ReliableLink", connect=None, window: int = 4,
                 timeout: float = 30.0,
                 tracer: "Tracer | None" = None,
                 metrics: "MetricRegistry | None" = None):
        #: the AM — round gating, completion report, last-resort source:
        #: anything with ``request`` and ``node_id`` (a worker hands in
        #: its failover-riding request path).
        self.link = link
        #: ``connect(addr) -> ReliableLink`` onto a peer; None disables
        #: peer fan-in entirely (every shard is fetched from the AM).
        self.connect = connect
        self.window = max(1, int(window))
        self.timeout = timeout
        self.tracer = tracer
        self.metrics = metrics
        self.stats: "dict[str, int]" = {}
        self._stats_lock = threading.Lock()  # every shard loop counts

    def _count(self, name: str, value: int = 1) -> None:
        with self._stats_lock:
            self.stats[name] = self.stats.get(name, 0) + value
        if self.metrics is not None:
            self.metrics.counter(name).inc(value)

    def _await_round(self, transfer_id: str) -> None:
        deadline = time.monotonic() + self.timeout
        while True:
            reply = self.link.request(
                MessageType.STATE_FETCH,
                {"transfer_id": transfer_id, "probe": True},
            )
            if reply.get("status") != "pending":
                if not reply.get("ok"):
                    raise TransferError(f"round probe refused: {reply}")
                return
            if time.monotonic() > deadline:
                raise TransferError(
                    f"transfer {transfer_id} never opened: "
                    f"round still pending after {self.timeout}s"
                )

    def _fetch_shard(self, peer, assembler: "ChunkAssembler",
                     transfer_id: str, shard: dict, source: str) -> None:
        """Fetch one shard's chunks through ``peer`` and adopt it."""
        seqs = range(int(shard["start_chunk"]), int(shard["end_chunk"]))
        length = int(shard["end_byte"]) - int(shard["start_byte"])
        buffer = bytearray(length)
        base_byte = int(shard["start_byte"])
        deadline = time.monotonic() + self.timeout
        lock = threading.Lock()

        def pump(feed, errors):
            while not errors:
                seq = feed.take()
                if seq is None:
                    return
                while True:
                    reply = peer.request(
                        MessageType.STATE_FETCH,
                        {"transfer_id": transfer_id, "seq": seq},
                    )
                    if reply.get("status") == "pending":
                        if time.monotonic() > deadline:
                            raise TransferError(
                                f"shard {shard['index']} chunk {seq} still "
                                f"pending after {self.timeout}s"
                            )
                        continue
                    if not reply.get("ok"):
                        raise TransferError(
                            f"fetch of shard chunk {seq} refused: {reply}"
                        )
                    break
                data = _flat_view(reply.get("data", b""))
                digest = reply.get("digest")
                if digest is not None and _digest(data) != digest:
                    raise WireError(f"shard chunk {seq} failed its digest check")
                offset = seq * assembler.chunk_bytes - base_byte
                with lock:
                    buffer[offset:offset + data.nbytes] = data

        with _maybe_span(
            self.tracer, "replicate.shard_fetch", self.link.node_id,
            cat="replicate", transfer_id=transfer_id,
            shard=int(shard["index"]), source=source,
            payload_bytes=length, chunks=len(seqs),
        ):
            _run_window(self.window, seqs, pump)
            # the plan digest is ground truth from the uploaded blob: a
            # divergent owner replica fails here and the loop moves on
            assembler.adopt_shard(shard, buffer, shard.get("digest"))
        self._count("net.shards.fetched")
        self._count("net.shards.bytes_fetched", length)

    def _fetch_any(self, assembler: "ChunkAssembler", transfer_id: str,
                   shard: dict, owners: "list[tuple[str, str]]",
                   dead: "set[str]") -> None:
        """Fetch ``shard`` from the first of its sources that serves it.

        The planned owner comes first, then every other owner of the
        plan not yet dead, in plan order, then the AM's own full copy
        over ``link`` (an owner-less shard's planned source).  An owner
        that is lost (``OSError``, a failed digest included) or whose
        handler raised (``RemoteError``) is dead for the rest of the
        fetch; any other exception, and any from the AM, propagates.
        """
        planned = (str(shard.get("owner")), shard.get("addr"))
        sources: "list[tuple[str, str]]" = []
        if planned[1] is not None and self.connect is not None:
            sources = [planned] + [o for o in owners if o != planned]
        for owner, addr in sources:
            if owner in dead:
                continue
            try:
                peer = self.connect(addr)
                try:
                    self._fetch_shard(
                        peer, assembler, transfer_id, shard, owner
                    )
                finally:
                    _close_quietly(peer)
            except (OSError, RemoteError):
                dead.add(owner)
                continue
            break
        else:
            owner = "am"
            self._fetch_shard(self.link, assembler, transfer_id, shard, owner)
        if planned[1] is not None and owner != planned[0]:
            self._count("net.shards.replans")

    def _report_complete(self, transfer_id: str) -> None:
        reply = self.link.request(
            MessageType.STATE_FETCH,
            {"transfer_id": transfer_id, "complete": True},
        )
        if not reply.get("ok"):
            raise TransferError(f"completion report refused: {reply}")

    def fetch(self, descriptor: dict) -> dict:
        """Fetch, verify, and decode the snapshot ``descriptor`` plans."""
        transfer_id = descriptor["transfer_id"]
        assembler = ChunkAssembler(
            transfer_id=transfer_id,
            total_bytes=descriptor["total_bytes"],
            total_chunks=descriptor["total_chunks"],
            chunk_bytes=descriptor["chunk_bytes"],
        )
        shards = [dict(shard) for shard in descriptor["shards"]]
        digest = descriptor.get("digest")
        if len(shards) == 1 and shards[0].get("digest") == digest:
            # A lone shard spans the blob under the blob's digest, so
            # adopting it already was the whole-blob check.
            digest = None

        owners = list(dict.fromkeys(
            (str(s.get("owner")), s["addr"])
            for s in shards if s.get("addr") is not None
        ))
        dead: "set[str]" = set()

        def loop(feed, errors):
            while not errors:
                shard = feed.take()
                if shard is None:
                    return
                self._fetch_any(assembler, transfer_id, shard, owners, dead)

        with _maybe_span(
            self.tracer, "net.state_fetch", self.link.node_id,
            transfer_id=transfer_id, payload_bytes=assembler.total_bytes,
            chunks=assembler.total_chunks, shards=len(shards),
        ):
            if owners:
                # Owners do not gate rounds: ask the AM before turning
                # to them.  The AM gates its own chunks as it serves them.
                self._await_round(transfer_id)
            _run_window(len(shards), shards, loop)
            blob = assembler.finish(digest)
            self._report_complete(transfer_id)
            state = decode_state_blob(blob)
        if self.metrics is not None:
            self.metrics.counter("net.chunks.bytes_fetched").inc(
                assembler.total_bytes
            )
        return state
