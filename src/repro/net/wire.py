"""Wire format: framing, the binary data plane, lean segments, the handshake.

Everything that crosses a process boundary goes through this module, so
the format is documented once (docs/PROTOCOL.md, "Wire format") and the
in-memory transport never needs it — which is exactly the point of the
:class:`repro.net.Transport` seam.  Nothing here is negotiated: the
format is a fact of :data:`PROTOCOL_VERSION`.

* **Framing** — length-prefixed: a 4-byte big-endian unsigned length
  followed by that many payload bytes.  Frames are self-delimiting, so a
  reader never depends on TCP segmentation.
* **Plain frames** — one JSON object, for every frame that holds no
  ndarray or raw bytes (handshake, heartbeats, most replies).
* **Binary frames** — the data plane.  A frame whose payload holds
  ndarrays or raw bytes is a small JSON *header* followed by the raw
  array segments: the length prefix carries :data:`BINARY_FLAG` in its
  top bit, segments are contiguous ``memoryview``\\ s written with
  scatter/gather IO, and the reader rebuilds arrays with
  ``np.frombuffer`` over one receive buffer — no intermediate copies.
  This module owns that segment layout: :func:`json_header` is its one
  encoder and :func:`join_segments` its one parser, for socket frames,
  shm ring records and state blobs alike.
* **Reading** — :func:`parse_frame` is everything after the 4-byte
  prefix (plain, binary and lean frames) over two byte sources: socket
  reads in :func:`read_frame`, a :class:`ByteCursor` over a ring record
  in :func:`repro.net.shm.decode_shm_frame`.
* **Lean frames** — the messages of the training loop are fixed shapes,
  so on a framed pipe they always travel as one ``struct`` (ids, the
  trace context's numbers, the message's own fields, a record per
  array), then the raw arrays: a ``RING_SEGMENT``
  (:func:`lean_segment_buffers` / :func:`parse_lean_segment`), a
  ``SYNC`` (:func:`lean_sync_buffers` / :func:`parse_lean_sync`) and a
  ``SYNC``'s mean reply (:func:`lean_mean_buffers` /
  :func:`parse_lean_mean`), shared by the socket and shm pipes
  (:func:`parse_lean_frame` picks the parser).  No payload walk; a
  message the header cannot say is a :class:`WireError` at the sender.
* **Handshake** — the first frame on a connection must be ``hello``
  carrying the protocol version and the node id; the server answers
  ``welcome`` or ``reject`` and closes.  A version mismatch is a hard
  reject: silent cross-version traffic is how elastic clusters corrupt
  jobs.
"""

from __future__ import annotations

import base64
import functools
import hashlib
import json
import math
import select
import socket
import struct
import time
import typing

import numpy as np

from ..coordination.messages import Message, MessageType

#: Protocol version carried by every handshake.  Bump on any
#: *incompatible* change.  Version 2 fixed the frame format: JSON
#: headers, binary frames for arrays, lean ring segments — a version-1
#: peer, which negotiated them, is rejected.  Version 3 dropped the lean
#: header's codec-meta tail and its ``part`` field.  Version 4 made
#: ``SYNC`` and its mean reply lean frames too.  Version 5 ships the
#: scaling decision (total batch, LR ramp) in the commit directive and
#: the join admission: a version-4 worker would ignore it and diverge.
#: Version 6 dropped the ``resize`` message type: the scheduler sends
#: ``adjustment_request`` with ``origin: "scheduler"``.  Version 7
#: resumes an upload across an AM takeover: a ``state_done`` with chunks
#: missing lists their seqs, and the ``restart`` reply is gone.  Version
#: 8 ships ``telemetry`` metrics as a registry snapshot with no clock
#: ``offset``, and answers every ``telemetry`` query with one fleet dump.
PROTOCOL_VERSION = 8

#: Hard upper bound on one frame's payload, a corruption guard: a bogus
#: length prefix must fail loudly, not allocate gigabytes.
MAX_FRAME_BYTES = 64 * 1024 * 1024

#: Top bit of the length prefix: set for binary frames, where the
#: remaining 31 bits are the *header* length and the raw segments
#: follow.  Payloads are capped far below 2**31, so the bit is
#: unambiguous.
BINARY_FLAG = 0x80000000

#: Second flag bit, only ever set beside :data:`BINARY_FLAG`: a *lean*
#: frame (docs/PROTOCOL.md, "Lean segment frames", "Lean SYNC frames").
#: Bits 29–28 name its kind (:data:`LEAN_SEGMENT`, :data:`LEAN_SYNC`,
#: :data:`LEAN_MEAN`); the low 28 bits are the length of its head —
#: fixed header and array table.
LEAN_FLAG = 0x40000000

#: The lean kinds: a ``RING_SEGMENT``, a ``SYNC`` and a ``SYNC``'s mean
#: reply.  A ring segment's kind is 0, so its prefix is what it was
#: before there were others.
LEAN_SEGMENT, LEAN_SYNC, LEAN_MEAN = 0, 1, 2

#: Reserved request-payload key carrying the sender's trace context
#: (job id, node id, per-process incarnation epoch, send timestamp).
#: Stamped by :meth:`ReliableLink.request`, popped by
#: :meth:`ServerCore.dispatch` before the handler runs; the message id
#: itself is the request→reply correlation id.  Replies carry the
#: server's context under the same key, stamped per *transmission* by
#: the connection layer (never by ServerCore — a cached reply re-served
#: to a retransmission must get fresh timestamps).
TRACE_CTX_KEY = "__ctx__"

#: Largest number of buffers handed to one ``sendmsg`` call (IOV_MAX on
#: common platforms is 1024; stay far below it).
_SENDMSG_BATCH = 256

_LENGTH = struct.Struct(">I")


class WireError(ConnectionError):
    """Framing or handshake violation; the connection must be dropped."""


# -- buffer views -------------------------------------------------------------


def _flat_view(buffer) -> memoryview:
    """A contiguous 1-D byte view of any buffer-ish object (no copy)."""
    view = memoryview(buffer)
    if view.ndim != 1 or view.itemsize != 1 or view.format != "B":
        if view.nbytes == 0:
            # cast() refuses zeros in shape/strides; an empty view of
            # anything is an empty view of bytes.
            return memoryview(b"")
        view = view.cast("B")
    return view


def _array_view(array: np.ndarray) -> memoryview:
    """A C-order byte view of ``array`` (copies only if non-contiguous)."""
    if not array.flags["C_CONTIGUOUS"]:
        array = np.ascontiguousarray(array)
    return _flat_view(array)


_PLAIN_SCALARS = frozenset((int, str, float, bool, type(None)))


def payload_nbytes(obj) -> int:
    """Data-plane bytes inside a payload: ndarrays plus raw buffers.

    A cheap, transport-independent size estimate used to tag ``net.*``
    spans and byte counters identically over TCP (where frames have a
    real wire size) and in-memory (where nothing is serialized).
    """
    if type(obj) in _PLAIN_SCALARS:  # most of any payload: one lookup
        return 0
    if isinstance(obj, np.ndarray):
        return obj.nbytes
    if isinstance(obj, memoryview):
        return obj.nbytes
    if isinstance(obj, (bytes, bytearray)):
        return len(obj)
    if isinstance(obj, dict):
        return sum(map(payload_nbytes, obj.values()))
    if isinstance(obj, (list, tuple)):
        return sum(map(payload_nbytes, obj))
    return 0


# -- value envelopes (the journal's arrays as base64) -------------------------


def encode_payload(obj):
    """Wrap ndarrays / raw bytes in JSON-safe base64 envelopes, and
    numpy scalars as plain numbers (the journal's record format)."""
    if isinstance(obj, np.ndarray):
        return {
            "__nd__": base64.b64encode(_array_view(obj)).decode("ascii"),
            "dtype": str(obj.dtype),
            "shape": list(obj.shape),
        }
    if isinstance(obj, (bytes, bytearray, memoryview)):
        return {"__bytes__": base64.b64encode(bytes(obj)).decode("ascii")}
    if isinstance(obj, np.generic):
        return obj.item()
    if isinstance(obj, dict):
        return {key: encode_payload(value) for key, value in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [encode_payload(item) for item in obj]
    return obj


def decode_payload(obj):
    """Inverse of :func:`encode_payload`."""
    if isinstance(obj, dict):
        if "__nd__" in obj:
            raw = base64.b64decode(obj["__nd__"])
            return np.frombuffer(raw, dtype=np.dtype(obj["dtype"])).reshape(
                obj["shape"]
            ).copy()
        if "__bytes__" in obj:
            return base64.b64decode(obj["__bytes__"])
        return {key: decode_payload(value) for key, value in obj.items()}
    if isinstance(obj, list):
        return [decode_payload(item) for item in obj]
    return obj


def params_digest(params: "dict[str, np.ndarray]") -> str:
    """Stable content hash of a parameter dict (replica-consistency checks).

    Streams each array's byte view straight into the hasher —
    ``hashlib`` consumes the buffer protocol, so a contiguous array is
    hashed with **zero copies** (the old implementation materialized a
    ``tobytes()`` copy of every array).  Non-contiguous views are
    compacted first (one copy, unavoidable: the digest is defined over
    C-order bytes); zero-size arrays contribute their name/dtype/shape
    only.  The output is bit-identical to the historical format.
    """
    hasher = hashlib.sha256()
    for name in sorted(params):
        array = np.asarray(params[name])
        hasher.update(name.encode())
        hasher.update(str(array.dtype).encode())
        hasher.update(str(array.shape).encode())
        if array.size:
            hasher.update(_array_view(array))
    return hasher.hexdigest()


# -- the binary data plane: segment extraction --------------------------------


_NOT_A_LEAF = object()


def _lift_leaf(obj, segments: "list[memoryview]"):
    """What a buffer-ish leaf becomes in a header: ndarrays and raw
    bytes a segment placeholder (the view appended to ``segments``), a
    numpy scalar its plain value; :data:`_NOT_A_LEAF` for the rest."""
    if isinstance(obj, np.ndarray):
        if obj.dtype.hasobject:
            raise WireError("object-dtype arrays cannot cross the wire")
        segments.append(_array_view(obj))
        return {
            "__seg__": len(segments) - 1,
            "dtype": _dtype_name(obj.dtype),
            "shape": list(obj.shape),
        }
    if isinstance(obj, (bytes, bytearray, memoryview)):
        segments.append(_flat_view(obj))
        return {"__seg__": len(segments) - 1}
    if isinstance(obj, np.generic):
        return obj.item()
    return _NOT_A_LEAF


@functools.lru_cache(maxsize=64)
def _dtype_name(dtype: np.dtype) -> str:
    """``str(dtype)``, remembered: numpy builds the name on every call
    (≈ 10 µs), a ring sends the same one or two dtypes forever."""
    return str(dtype)


def join_buffers(obj, segments: "typing.Sequence[memoryview]"):
    """Inverse of :func:`json_header`'s lifting, over received segment
    views.

    Arrays are rebuilt with ``np.frombuffer`` directly over the receive
    buffer — no intermediate copies.  Every placeholder is validated
    against its segment's actual length; a mismatch (truncated or
    corrupt segment table) raises :class:`WireError`.
    """
    if isinstance(obj, dict):
        if "__seg__" in obj:
            index = obj["__seg__"]
            if not isinstance(index, int) or not 0 <= index < len(segments):
                raise WireError(f"segment index {index!r} out of range")
            data = segments[index]
            if "dtype" not in obj:
                return data  # raw bytes payload: hand back the view
            try:
                dtype = np.dtype(obj["dtype"])
                shape = tuple(int(d) for d in obj["shape"])
            except (KeyError, TypeError, ValueError) as exc:
                raise WireError(f"corrupt array placeholder: {exc}") from exc
            if (
                dtype.hasobject or dtype.itemsize == 0
                or min(shape, default=0) < 0
            ):
                raise WireError(
                    f"array placeholder dtype {dtype} shape {shape} "
                    f"cannot be rebuilt from bytes"
                )
            expected = dtype.itemsize * math.prod(shape)
            if data.nbytes != expected:
                raise WireError(
                    f"segment {index} holds {data.nbytes} bytes, but "
                    f"dtype {dtype} shape {shape} needs {expected}"
                )
            return np.frombuffer(data, dtype=dtype).reshape(shape)
        return {k: join_buffers(v, segments) for k, v in obj.items()}
    if isinstance(obj, list):
        return [join_buffers(item, segments) for item in obj]
    return obj


# -- JSON ---------------------------------------------------------------------


def encode_frame(frame: dict) -> bytes:
    """Serialize one array-free frame dict to JSON bytes."""
    return json.dumps(frame, separators=(",", ":")).encode("utf-8")


def decode_frame(data: "bytes | bytearray") -> dict:
    """Deserialize JSON bytes back to a frame dict.

    Any decode failure — bytes that are not UTF-8 or not JSON, JSON
    nested deeper than the decoder recurses, a payload that is not a
    dict — raises :class:`WireError`, so read loops handle corruption
    through the same drop-and-reconnect path as framing violations
    instead of dying on a decoder exception.
    """
    try:
        frame = json.loads(bytes(data).decode("utf-8"))
    except (ValueError, RecursionError) as exc:
        raise WireError(
            f"undecodable frame: {type(exc).__name__}: {exc}"
        ) from exc
    if not isinstance(frame, dict):
        raise WireError(
            f"frame payload decodes to {type(frame).__name__}, not a dict"
        )
    return frame


# -- framing ------------------------------------------------------------------


def json_header(
    frame: dict, table: bool = False
) -> "tuple[bytes, list[memoryview]]":
    """``frame`` as a JSON header, its buffers lifted into segments: the
    one encoder of the segment layout (binary frames and state blobs).

    The JSON encoder walks the frame and calls the hook only for what it
    cannot encode — ndarrays, byte buffers, numpy scalars — so an
    array-free frame costs no Python-level walk.  The segment table
    (``__segs__``, the last key) is spliced onto the tail when there are
    segments, or always with ``table``, as a blob's header has one.
    """
    segments: "list[memoryview]" = []

    def lift(obj):
        lifted = _lift_leaf(obj, segments)
        if lifted is _NOT_A_LEAF:
            raise TypeError(
                f"Object of type {type(obj).__name__} "
                f"is not JSON serializable"
            )
        return lifted

    header = json.dumps(frame, separators=(",", ":"), default=lift)
    if segments or table:
        sizes = ",".join(str(segment.nbytes) for segment in segments)
        header = f'{header[:-1]},"__segs__":[{sizes}]}}'
    return header.encode("utf-8"), segments


def join_segments(
    header: dict, body_of: "typing.Callable[[int], typing.Any]",
    head_len: "int | None" = None,
):
    """The one parser of the segment layout: ``header`` (a decoded JSON
    header) with its placeholders rebuilt over the body behind it.

    Pops and checks the ``__segs__`` table, asks ``body_of`` for exactly
    the bytes it sums to and slices them into segments.  A frame names
    its ``head_len``, and header plus segments must fit
    :data:`MAX_FRAME_BYTES` before any body is asked for; a blob has no
    cap.
    """
    seg_lens = header.pop("__segs__", None)
    if not isinstance(seg_lens, list) or not all(
        isinstance(n, int) and n >= 0 for n in seg_lens
    ):
        raise WireError("binary frame carries no valid segment table")
    total = sum(seg_lens)
    if head_len is not None and total + head_len > MAX_FRAME_BYTES:
        raise WireError(f"frame of {total + head_len} bytes exceeds the maximum")
    view = memoryview(body_of(total))
    segments, offset = [], 0
    for length in seg_lens:
        segments.append(view[offset:offset + length])
        offset += length
    return join_buffers(header, segments)


class ByteCursor:
    """``head_of``/``body_of`` over bytes already in memory (a shm
    record, a state blob): consecutive views of ``view``, each exactly
    as long as asked, and :meth:`finish` checks nothing was left over."""

    __slots__ = ("view", "offset", "what")

    def __init__(self, view: memoryview, what: str):
        self.view, self.offset, self.what = view, 0, what

    def take(self, count: int) -> memoryview:
        self.offset += count
        if self.offset > self.view.nbytes:
            self._disagree()
        return self.view[self.offset - count:self.offset]

    def finish(self) -> None:
        if self.offset != self.view.nbytes:
            self._disagree()

    def _disagree(self):
        raise WireError(
            f"{self.what} of {self.view.nbytes} bytes disagrees with the "
            f"lengths it names"
        )


def frame_buffers(frame: dict) -> "tuple[list, int]":
    """The buffers one frame leaves as, and their total byte count.

    A frame holding ndarrays or raw bytes is a binary frame (flagged
    prefix, JSON header, raw segments); any other frame is one plain
    JSON frame, both smaller and cheaper when there is nothing to
    scatter.
    """
    header, segments = json_header(frame)
    total = len(header) + sum(segment.nbytes for segment in segments)
    if total > MAX_FRAME_BYTES:
        raise WireError(f"frame of {total} bytes exceeds the maximum")
    if not segments:
        data = _LENGTH.pack(total) + header
        return [data], len(data)
    prefix = _LENGTH.pack(BINARY_FLAG | len(header))
    return [prefix, header, *segments], _LENGTH.size + total


def binary_frame_buffers(frame: dict) -> "tuple[list | None, int]":
    """Scatter/gather buffer list for one binary frame.

    Returns ``(buffers, total_bytes)``; ``buffers`` is None when the
    frame holds no arrays or raw bytes — a plain frame is both smaller
    and cheaper then (:func:`frame_buffers` picks for you).
    """
    buffers, total = frame_buffers(frame)
    if len(buffers) == 1:
        return None, 0
    return buffers, total


def sendmsg_gather(
    sock: socket.socket, buffers: typing.Sequence,
    timeout: "float | None" = None,
) -> None:
    """Write a buffer list with scatter/gather IO.

    Uses ``socket.sendmsg`` (one ``writev`` per batch, no flattening
    copy) where available, ``sendall`` per buffer otherwise.  Handles
    partial writes by advancing views in place.  With a ``timeout`` no
    call blocks: a full socket buffer is waited on with ``select``, and
    a peer that has not taken the whole list in time raises
    ``TimeoutError`` — the frame is torn, so the caller must drop the
    connection.
    """
    views = [_flat_view(buffer) for buffer in buffers if len(buffer)]
    if not hasattr(sock, "sendmsg"):  # pragma: no cover - all POSIX have it
        for view in views:
            sock.sendall(view)
        return
    flags, deadline = 0, None
    if timeout is not None:
        flags, deadline = socket.MSG_DONTWAIT, time.monotonic() + timeout
    while views:
        try:
            sent = sock.sendmsg(views[:_SENDMSG_BATCH], (), flags)
        except BlockingIOError:
            _await_writable(sock, deadline - time.monotonic())
            continue
        while sent:
            head = views[0]
            if sent >= head.nbytes:
                sent -= head.nbytes
                views.pop(0)
            else:
                views[0] = head[sent:]
                sent = 0


def _await_writable(sock: socket.socket, timeout: float) -> None:
    try:
        writable = timeout > 0 and select.select((), (sock,), (), timeout)[1]
    except ValueError as exc:  # closed under the writer: fileno() is -1
        raise OSError("socket closed mid-frame") from exc
    if not writable:
        raise TimeoutError("peer did not take the frame in time")


def _recv_exact(sock: socket.socket, count: int) -> "bytearray | None":
    """Read exactly ``count`` bytes, or None on a clean EOF at a frame
    boundary; a mid-frame EOF raises :class:`WireError`.

    Reads with ``recv_into`` over one preallocated buffer — constant
    memory and linear time, where the historical ``bytes``
    concatenation loop went quadratic on large frames.
    """
    buffer = bytearray(count)
    view = memoryview(buffer)
    received = 0
    while received < count:
        n = sock.recv_into(view[received:])
        if n == 0:
            if received == 0:
                return None
            raise WireError("connection closed mid-frame")
        received += n
    return buffer


def _recv_into(sock: socket.socket, view: memoryview) -> None:
    """Fill ``view`` completely from the socket (mid-frame EOF raises)."""
    received = 0
    while received < view.nbytes:
        n = sock.recv_into(view[received:])
        if n == 0:
            raise WireError("connection closed mid-frame")
        received += n


def _recv_body(sock: socket.socket, count: int) -> np.ndarray:
    """``count`` body bytes in a fresh buffer nothing else refers to —
    uninitialised (``recv_into`` overwrites every byte; a zero fill
    would touch each page once more for nothing), so the arrays rebuilt
    over it belong to their frame alone."""
    body = np.empty(count, dtype=np.uint8)
    if count:
        _recv_into(sock, memoryview(body))
    return body


def _recv_head(sock: socket.socket, count: int) -> bytearray:
    """Exactly ``count`` bytes of a frame whose prefix was read."""
    head = _recv_exact(sock, count)
    if head is None:
        raise WireError("connection closed mid-frame")
    return head


def parse_frame(
    length: int, head_of: "typing.Callable[[int], typing.Any]",
    body_of: "typing.Callable[[int], typing.Any]",
    lean_sender: "str | None", borrowed: bool,
) -> "dict | Message":
    """Everything after a frame's 4-byte prefix ``length``: a plain or
    binary frame's dict, or what :func:`parse_lean_frame` makes of a
    lean frame, sent by ``lean_sender`` — the node the connection's
    handshake named; without one (the handshake itself) a lean frame is
    a violation.

    ``head_of(n)`` and ``body_of(n)`` each hand over exactly ``n`` bytes
    — a socket reads them, a shm record already holds them — and
    ``borrowed`` says whose memory the body is.  Every length is checked
    against :data:`MAX_FRAME_BYTES` before it is asked for.
    """
    if not length & BINARY_FLAG:
        if length > MAX_FRAME_BYTES:
            raise WireError(f"frame length {length} exceeds the maximum")
        return decode_frame(head_of(length))
    lean = length & LEAN_FLAG
    if lean and lean_sender is None:
        raise WireError("lean frame before the handshake")
    head_len = length & (_LEAN_HEAD_MASK if lean else ~BINARY_FLAG)
    if head_len > MAX_FRAME_BYTES:
        raise WireError(f"binary header length {head_len} exceeds the maximum")
    if lean:
        return parse_lean_frame(
            length, head_of(head_len), body_of, lean_sender, borrowed
        )
    return join_segments(decode_frame(head_of(head_len)), body_of, head_len)


def read_frame(
    sock: socket.socket, lean_sender: "str | None" = None
) -> "dict | Message | None":
    """Read one frame from a socket; None on clean EOF
    (:func:`parse_frame` over socket reads)."""
    prefix = _recv_exact(sock, _LENGTH.size)
    if prefix is None:
        return None
    (length,) = _LENGTH.unpack(prefix)
    return parse_frame(
        length, functools.partial(_recv_head, sock),
        functools.partial(_recv_body, sock), lean_sender, borrowed=False,
    )


def write_frame(sock: socket.socket, frame: dict) -> int:
    """Write one frame (plain or binary); returns the bytes put on the
    wire."""
    buffers, total = frame_buffers(frame)
    sendmsg_gather(sock, buffers)
    return total


# -- frame kinds --------------------------------------------------------------


def hello_frame(node_id: str) -> dict:
    """The mandatory first frame of every connection."""
    return {"kind": "hello", "version": PROTOCOL_VERSION, "node": node_id}


def welcome_frame(node_id: str, epoch: "int | None" = None) -> dict:
    """The server's handshake acceptance.

    ``epoch`` carries the server's fencing epoch when it has one (the
    networked AM always does): a client that reconnects and sees the
    epoch move knows it is talking to a successor AM and must
    re-enroll.
    """
    frame = {"kind": "welcome", "version": PROTOCOL_VERSION, "node": node_id}
    if epoch is not None:
        frame["epoch"] = int(epoch)
    return frame


def reject_frame(reason: str) -> dict:
    """The server's handshake refusal (connection closes after it)."""
    return {"kind": "reject", "version": PROTOCOL_VERSION, "reason": reason}


def heartbeat_frame(node_id: str, seq: int) -> dict:
    """Client keep-alive; the server answers ``heartbeat_ack``."""
    return {"kind": "heartbeat", "node": node_id, "seq": seq}


def heartbeat_ack_frame(seq: int) -> dict:
    """Server answer to a heartbeat, echoing its sequence number."""
    return {"kind": "heartbeat_ack", "seq": seq}


def message_frame(message: Message, raw: bool = True) -> dict:
    """Envelope for one protocol :class:`Message`.

    Its ndarrays and byte buffers stay in place: the frame writer lifts
    them out as segments.  ``raw`` is accepted for callers that still
    pass it; there is no other form.
    """
    frame = {
        "kind": "msg",
        "msg_id": message.msg_id,
        "type": message.msg_type.value,
        "sender": message.sender,
        "payload": message.payload,
    }
    if message.post:
        frame["post"] = True  # one-way: dispatched, never answered
    return frame


def decode_message(frame: dict, borrowed: bool = True) -> Message:
    """Rebuild the :class:`Message` carried by a ``msg`` frame.

    ``borrowed`` is the reading pipe's word on who owns the payload's
    arrays (:attr:`Message.borrowed`).  A frame that names no id,
    sender or known type, or whose payload is not a dict, is a
    :class:`WireError` like any other corruption.
    """
    try:
        payload = frame.get("payload") or {}
        if type(payload) is not dict:
            raise TypeError(f"payload is a {type(payload).__name__}")
        return Message(
            msg_id=int(frame["msg_id"]),
            msg_type=MessageType(frame["type"]),
            sender=frame["sender"],
            payload=payload,
            post=bool(frame.get("post")),
            borrowed=borrowed,
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise WireError(f"corrupt msg frame: {exc!r}") from exc


# -- lean segment frames ------------------------------------------------------
#
# prefix  u32  BINARY_FLAG | LEAN_FLAG | kind << 28 | head length
# head    the fixed header below, then ``arrays`` dtype/count records
# body    the arrays' bytes, back to back, in table order

_LEAN_KIND_SHIFT = 28
_LEAN_HEAD_MASK = (1 << _LEAN_KIND_SHIFT) - 1
#: msg_id, post | ctx epoch, ctx sent | generation, iteration, phase,
#: step, bucket | arrays.  Big-endian, unpadded: 52 bytes.
_LEAN_FIELDS = "Q?QdqqBIIH"
_LEAN_HEADER = struct.Struct(">" + _LEAN_FIELDS)
_LEAN_PREFIXED_HEADER = struct.Struct(">I" + _LEAN_FIELDS)
#: one array: dtype kind (an ASCII letter), dtype itemsize, elements.
_LEAN_ARRAY = struct.Struct(">BBQ")
_LEAN_PHASES = ("rs", "ag")

#: dtype kinds a lean record may name: bool, int, uint, float, complex —
#: plain numbers, so never an object pointer and never zero bytes wide.
_LEAN_KINDS = "biufc"


@functools.lru_cache(maxsize=64)
def _lean_dtype_code(dtype: np.dtype) -> "tuple[int, int] | None":
    """``(kind, itemsize)`` when that alone names ``dtype`` (a plain
    native number), else None."""
    if dtype.kind not in _LEAN_KINDS:
        return None
    if np.dtype(f"{dtype.kind}{dtype.itemsize}") != dtype:
        return None  # foreign byte order
    return ord(dtype.kind), dtype.itemsize


@functools.lru_cache(maxsize=64)
def _lean_dtype(kind: int, itemsize: int) -> np.dtype:
    """Inverse of :func:`_lean_dtype_code`, trusting nothing."""
    try:
        if chr(kind) not in _LEAN_KINDS:
            raise TypeError("not a plain number")
        return np.dtype(f"{chr(kind)}{itemsize}")
    except TypeError as exc:
        raise WireError(f"lean dtype code {kind}/{itemsize}: {exc}") from exc


def lean_segment_buffers(message: Message, node: str) -> "tuple[list, int]":
    """The buffers ``message`` leaves as in a lean frame, and their byte
    count.

    A lean frame says exactly what :class:`RingNode` sends on a link
    dialled as ``node``: the five ring-key fields, flat native-number
    arrays under ``data`` and a trace context of node/epoch/sent whose
    node — like the message's sender — is the handshake's.  Anything
    else (an extra key such as ``part`` or ``codec``, an extra context
    key such as the AM link's ``job``, a 2-D array, a float where an id
    belongs) is a :class:`WireError`: there is no other frame for a ring
    segment.
    """
    payload = message.payload
    ctx = payload.get(TRACE_CTX_KEY)
    arrays = payload.get("data")
    if (
        type(ctx) is not dict or len(ctx) != 3
        or type(arrays) is not list
        or len(payload) != 7
        or not ctx.get("node") == message.sender == node
        or not all(
            type(array) is np.ndarray and array.ndim == 1
            and _lean_dtype_code(array.dtype) for array in arrays
        )
    ):
        raise WireError(
            f"ring segment {message.msg_id} from {message.sender!r} is "
            f"not what a lean frame can say"
        )
    records, views, body = [], [], 0
    for array in arrays:
        if not array.flags.c_contiguous:
            array = np.ascontiguousarray(array)
        records.append(_LEAN_ARRAY.pack(*_lean_dtype_code(array.dtype), array.size))
        views.append(array)
        body += array.nbytes
    head_len = _LEAN_HEADER.size + _LEAN_ARRAY.size * len(arrays)
    if head_len + body > MAX_FRAME_BYTES:
        raise WireError(f"frame of {head_len + body} bytes exceeds the maximum")
    try:
        header = _LEAN_PREFIXED_HEADER.pack(
            BINARY_FLAG | LEAN_FLAG | head_len,
            message.msg_id, message.post, ctx["epoch"], ctx["sent"],
            payload["generation"], payload["iteration"],
            _LEAN_PHASES.index(payload["phase"]), payload["step"],
            payload["bucket"], len(arrays),
        )
    except (KeyError, TypeError, ValueError, struct.error) as exc:
        raise WireError(
            f"ring segment {message.msg_id}: the lean header has no room "
            f"for it: {exc!r}"
        ) from exc
    return (
        [b"".join((header, *records)), *views],
        _LENGTH.size + head_len + body,
    )


def parse_lean_segment(
    head, body_of: "typing.Callable[[int], typing.Any]", sender: str,
    borrowed: bool,
) -> Message:
    """Inverse of :func:`lean_segment_buffers`: the ``RING_SEGMENT``
    :class:`Message` a lean frame carries.

    ``head`` is what the prefix measured; ``body_of(nbytes)`` supplies
    the body once the array table has said how long it is (a socket
    reads it, a shm record already holds it) and ``borrowed`` says whose
    memory that is.  ``sender`` is the connection's, from its handshake.
    Every field is checked before anything is allocated; any violation
    is a :class:`WireError`.
    """
    if len(head) < _LEAN_HEADER.size:
        raise WireError("lean frame shorter than its fixed header")
    (
        msg_id, post, epoch, sent, generation, iteration, phase, step,
        bucket, arrays,
    ) = _LEAN_HEADER.unpack_from(head)
    if _LEAN_HEADER.size + _LEAN_ARRAY.size * arrays != len(head):
        raise WireError("lean header disagrees with its own length")
    if phase >= len(_LEAN_PHASES):
        raise WireError(f"lean frame names unknown phase {phase}")
    specs = [
        (_lean_dtype(kind, itemsize), count)
        for kind, itemsize, count in _LEAN_ARRAY.iter_unpack(
            head[_LEAN_HEADER.size:]
        )
    ]
    total = sum(dtype.itemsize * count for dtype, count in specs)
    if len(head) + total > MAX_FRAME_BYTES:
        raise WireError(f"frame of {len(head) + total} bytes exceeds the maximum")
    body = body_of(total)
    data, offset = [], 0
    for dtype, count in specs:
        data.append(np.frombuffer(body, dtype, count, offset))
        offset += dtype.itemsize * count
    payload = {
        "generation": generation, "iteration": iteration,
        "phase": _LEAN_PHASES[phase], "step": step, "bucket": bucket,
        "data": data,
        TRACE_CTX_KEY: {"node": sender, "epoch": epoch, "sent": sent},
    }
    return Message(
        msg_id, MessageType.RING_SEGMENT, sender, payload, post, borrowed
    )


# -- lean SYNC frames ---------------------------------------------------------
#
# prefix  u32  BINARY_FLAG | LEAN_FLAG | kind << 28 | head length
# head    the kind's fixed header, a UTF-8 text (a SYNC's ctx ``job``, a
#         mean's ctx ``node``), then one named-array record per array
# body    the arrays' bytes, back to back, in table order

#: msg_id, flags | ctx epoch, ctx sent | generation, iteration | arrays,
#: text bytes.  45 bytes.
_SYNC_HEADER = struct.Struct(">QBQdqqHH")
#: in_reply_to, flags | ctx epoch, ctx recv, ctx sent | members | arrays,
#: text bytes.  45 bytes.
_MEAN_HEADER = struct.Struct(">QBQddqHH")
#: one array: name bytes, dtype kind, dtype itemsize, ndim — then ndim
#: u64 dimensions and the UTF-8 name.
_NAMED_ARRAY = struct.Struct(">HBBB")

_POST, _RING_FALLBACK, _NO_GRADS, _JOB = 1, 2, 4, 8
_SYNC_FLAGS = _POST | _RING_FALLBACK | _NO_GRADS | _JOB
_SYNC_KEYS = frozenset(("generation", "iteration", "grads", TRACE_CTX_KEY))
_SYNC_CTX_KEYS = frozenset(("node", "epoch", "sent"))
_MEAN_CTX_KEYS = frozenset(("node", "epoch", "recv", "sent"))


def _lean_frame(kind: int, header: bytes, text: bytes, grads) -> "tuple[list, int]":
    """One lean SYNC-kind frame's buffers and byte count: prefix, fixed
    ``header``, ``text`` and the array table of ``grads`` in one head,
    then each array's own bytes.  Raises ``TypeError`` for an entry the
    table cannot name, ``struct.error`` for a field that does not fit."""
    table, views, body = [], [], 0
    for name, array in (grads or {}).items():
        code = type(array) is np.ndarray and _lean_dtype_code(array.dtype)
        if not code or type(name) is not str:
            raise TypeError(f"{name!r} is not a named plain-number array")
        label = name.encode("utf-8")
        table.append(struct.pack(
            f">HBBB{array.ndim}Q", len(label), *code, array.ndim, *array.shape
        ))
        table.append(label)
        views.append(_array_view(array))
        body += array.nbytes
    head_len = len(header) + len(text) + sum(map(len, table))
    if head_len + body > MAX_FRAME_BYTES:
        raise WireError(f"frame of {head_len + body} bytes exceeds the maximum")
    prefix = _LENGTH.pack(
        BINARY_FLAG | LEAN_FLAG | kind << _LEAN_KIND_SHIFT | head_len
    )
    return (
        [b"".join((prefix, header, text, *table)), *views],
        _LENGTH.size + head_len + body,
    )


def _parse_lean_arrays(head, offset: int, text_len: int, arrays: int, body_of):
    """The text and the ``{name: array}`` dict (None for ``arrays`` of
    None) of a lean SYNC-kind head whose fixed header ends at ``offset``.

    Every record is checked against the head before the body is asked
    for; any violation is a :class:`WireError`, never a numpy error.
    """
    end = offset + text_len
    try:
        text = str(head[offset:end], "utf-8")
        specs, offset = [], end
        for _ in range(arrays or 0):
            name_len, kind, itemsize, ndim = _NAMED_ARRAY.unpack_from(head, offset)
            offset += _NAMED_ARRAY.size
            shape = struct.unpack_from(f">{ndim}Q", head, offset)
            offset += 8 * ndim
            end = offset + name_len
            specs.append((
                str(head[offset:end], "utf-8"), _lean_dtype(kind, itemsize),
                shape, math.prod(shape),
            ))
            offset = end
    except (struct.error, UnicodeDecodeError) as exc:
        raise WireError(f"lean table does not fit its head: {exc}") from exc
    if end != len(head):
        raise WireError("lean head disagrees with its own length")
    if len({spec[0] for spec in specs}) != len(specs):
        raise WireError("lean table names one array twice")
    total = sum(dtype.itemsize * count for _, dtype, _, count in specs)
    if len(head) + total > MAX_FRAME_BYTES:
        raise WireError(f"frame of {len(head) + total} bytes exceeds the maximum")
    body = body_of(total)
    if arrays is None:
        return text, None
    grads, offset = {}, 0
    try:
        for name, dtype, shape, count in specs:
            grads[name] = np.frombuffer(body, dtype, count, offset).reshape(shape)
            offset += dtype.itemsize * count
    except (ValueError, OverflowError) as exc:  # a shape no array can have
        raise WireError(f"lean table names an impossible array: {exc}") from exc
    return text, grads


def lean_sync_buffers(message: Message, node: str) -> "tuple[list, int]":
    """The buffers a ``SYNC`` leaves as in a lean frame, and their byte
    count.

    A lean SYNC says exactly what :meth:`WorkerAgent._star_sync` sends
    through a link dialled as ``node``: ``generation``, ``iteration``,
    ``grads`` (None, or names to native-number arrays of any shape), an
    optional ``ring_fallback: True`` and a trace context of
    node/epoch/sent — plus the ``job`` the agent stamps — whose node is
    the handshake's.  Anything else is a :class:`WireError`: there is
    no other frame for a SYNC.
    """
    payload = message.payload
    ctx = payload.get(TRACE_CTX_KEY)
    grads = payload.get("grads")
    fallback = "ring_fallback" in payload
    job = type(ctx) is dict and "job" in ctx
    flags = (
        message.post * _POST | fallback * _RING_FALLBACK
        | (grads is None) * _NO_GRADS | job * _JOB
    )
    try:
        if (
            type(ctx) is not dict
            or ctx.keys() ^ _SYNC_CTX_KEYS != ({"job"} if job else set())
            or payload.keys() ^ _SYNC_KEYS
            != ({"ring_fallback"} if fallback else set())
            or not ctx["node"] == message.sender == node
            or fallback and payload["ring_fallback"] is not True
            or not (grads is None or type(grads) is dict)
            or job and type(ctx["job"]) is not str
        ):
            raise TypeError("a key, a context or a type it has no field for")
        text = ctx["job"].encode("utf-8") if job else b""
        header = _SYNC_HEADER.pack(
            message.msg_id, flags, ctx["epoch"], ctx["sent"],
            payload["generation"], payload["iteration"],
            len(grads or ()), len(text),
        )
        return _lean_frame(LEAN_SYNC, header, text, grads)
    except (KeyError, TypeError, ValueError, struct.error) as exc:
        raise WireError(
            f"sync {message.msg_id} from {message.sender!r} is not what a "
            f"lean frame can say: {exc!r}"
        ) from exc


def parse_lean_sync(
    head, body_of: "typing.Callable[[int], typing.Any]", sender: str,
    borrowed: bool,
) -> Message:
    """Inverse of :func:`lean_sync_buffers`: the ``SYNC``
    :class:`Message` a lean frame carries (the arguments are
    :func:`parse_lean_segment`'s)."""
    if len(head) < _SYNC_HEADER.size:
        raise WireError("lean sync shorter than its fixed header")
    (
        msg_id, flags, epoch, sent, generation, iteration, arrays, text_len,
    ) = _SYNC_HEADER.unpack_from(head)
    if flags & ~_SYNC_FLAGS or flags & _NO_GRADS and arrays:
        raise WireError(f"lean sync flags {flags:#x} make no sense")
    job, grads = _parse_lean_arrays(
        head, _SYNC_HEADER.size, text_len,
        None if flags & _NO_GRADS else arrays, body_of,
    )
    payload = {"generation": generation, "iteration": iteration, "grads": grads}
    if flags & _RING_FALLBACK:
        payload["ring_fallback"] = True
    ctx = {"job": job} if flags & _JOB else {}
    ctx.update(node=sender, epoch=epoch, sent=sent)
    payload[TRACE_CTX_KEY] = ctx
    return Message(
        msg_id, MessageType.SYNC, sender, payload, bool(flags & _POST), borrowed
    )


def lean_mean_buffers(
    in_reply_to: int, payload: dict, ctx: dict
) -> "tuple[list, int]":
    """The buffers a ``SYNC``'s success reply leaves as in a lean frame,
    and their byte count: ``payload`` is exactly ``{"grads", "members"}``
    (``grads`` None or names to arrays), ``ctx`` the transmission
    context of node/epoch/recv/sent.  Anything else is a
    :class:`WireError` (error replies are reply frames)."""
    grads = payload.get("grads")
    try:
        if (
            payload.keys() != {"grads", "members"}
            or type(ctx) is not dict or ctx.keys() != _MEAN_CTX_KEYS
            or not (grads is None or type(grads) is dict)
            or type(ctx["node"]) is not str
        ):
            raise TypeError("a key, a context or a type it has no field for")
        text = ctx["node"].encode("utf-8")
        header = _MEAN_HEADER.pack(
            in_reply_to, (grads is None) * _NO_GRADS, ctx["epoch"],
            ctx["recv"], ctx["sent"], payload["members"],
            len(grads or ()), len(text),
        )
        return _lean_frame(LEAN_MEAN, header, text, grads)
    except (KeyError, TypeError, ValueError, struct.error) as exc:
        raise WireError(
            f"the reply to sync {in_reply_to} is not what a lean frame can "
            f"say: {exc!r}"
        ) from exc


def parse_lean_mean(
    head, body_of: "typing.Callable[[int], typing.Any]"
) -> dict:
    """Inverse of :func:`lean_mean_buffers`: the ``reply`` frame dict
    (:func:`reply_frame`'s shape) a lean mean frame carries."""
    if len(head) < _MEAN_HEADER.size:
        raise WireError("lean mean shorter than its fixed header")
    (
        in_reply_to, flags, epoch, recv, sent, members, arrays, text_len,
    ) = _MEAN_HEADER.unpack_from(head)
    if flags & ~_NO_GRADS or flags and arrays:
        raise WireError(f"lean mean flags {flags:#x} make no sense")
    node, grads = _parse_lean_arrays(
        head, _MEAN_HEADER.size, text_len, None if flags else arrays, body_of,
    )
    return {
        "kind": "reply", "node": node, "in_reply_to": in_reply_to,
        "payload": {"grads": grads, "members": members},
        "ctx": {"node": node, "epoch": epoch, "recv": recv, "sent": sent},
    }


def parse_lean_frame(
    length: int, head, body_of: "typing.Callable[[int], typing.Any]",
    sender: str, borrowed: bool,
) -> "Message | dict":
    """The lean frame whose prefix is ``length``, by the kind it names:
    a ``RING_SEGMENT`` or ``SYNC`` :class:`Message`, or a mean reply's
    frame dict (the other arguments are :func:`parse_lean_segment`'s)."""
    kind = length >> _LEAN_KIND_SHIFT & 3
    if kind == LEAN_SEGMENT:
        return parse_lean_segment(head, body_of, sender, borrowed)
    if kind == LEAN_SYNC:
        return parse_lean_sync(head, body_of, sender, borrowed)
    if kind == LEAN_MEAN:
        return parse_lean_mean(head, body_of)
    raise WireError(f"unknown lean frame kind {kind}")


def reply_frame(
    node_id: str, in_reply_to: int, payload: dict, ctx: "dict | None" = None
) -> dict:
    """Server response to one ``msg`` frame, correlated by message id.

    ``ctx`` optionally carries the server's trace context for this
    *transmission* (its node id, fencing epoch, and the receive/send
    timestamps on its own clock) so the client can estimate the clock
    offset NTP-style.  It lives at the frame level — never inside the
    cached reply payload — because a retransmitted request re-sends the
    cached payload but must get *fresh* timestamps.
    """
    frame = {
        "kind": "reply", "node": node_id, "in_reply_to": in_reply_to,
        "payload": payload,
    }
    if ctx is not None:
        frame["ctx"] = ctx
    return frame


def check_handshake(frame: "dict | None") -> str:
    """Validate a ``hello``; returns the node id it names."""
    if frame is None:
        raise WireError("connection closed before the handshake")
    if frame.get("kind") != "hello":
        raise WireError(f"expected hello, got {frame.get('kind')!r}")
    version = frame.get("version")
    if version != PROTOCOL_VERSION:
        raise WireError(
            f"protocol version mismatch: peer speaks {version}, "
            f"this node speaks {PROTOCOL_VERSION}"
        )
    node = frame.get("node")
    if not node:
        raise WireError("hello carries no node id")
    return str(node)
