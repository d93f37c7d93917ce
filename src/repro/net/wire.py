"""Wire format: framing, codecs, binary data plane, and the handshake.

Everything that crosses a process boundary goes through this module, so
the format is documented once (docs/PROTOCOL.md, "Wire format") and the
in-memory transport never needs it — which is exactly the point of the
:class:`repro.net.Transport` seam.

* **Framing** — length-prefixed: a 4-byte big-endian unsigned length
  followed by that many payload bytes.  Frames are self-delimiting, so a
  reader never depends on TCP segmentation.
* **Codec** — JSON by default (always available); msgpack when the
  optional ``msgpack`` package is importable.  The codec is negotiated
  in the handshake, and ndarray values ride inside either codec as
  ``{"__nd__": ...}`` envelopes (raw bytes, base64 under JSON).
* **Binary frames** — the data plane.  When both peers negotiate the
  ``bin`` feature, any frame whose payload holds ndarrays or raw bytes
  is written as a small codec-encoded *header* followed by the raw
  array segments: the length prefix carries :data:`BINARY_FLAG` in its
  top bit, segments are contiguous ``memoryview``\\ s written with
  scatter/gather IO, and the reader rebuilds arrays with
  ``np.frombuffer`` over one receive buffer — no base64, no
  intermediate copies.
* **Lean frames** — a ``RING_SEGMENT`` is a fixed shape, so on a pipe
  that negotiated ``lean`` it travels as one ``struct`` (ids, the trace
  context's two numbers, the ring key, a dtype/count record per flat
  array), an opaque codec-meta tail, then the raw arrays:
  :func:`lean_segment_buffers` / :func:`parse_lean_segment`, shared by
  the socket and shm pipes.  No JSON, no payload walk.
* **Handshake** — the first frame on a connection must be ``hello``
  carrying the protocol version, the node id, the requested codec, and
  the data-plane feature flag; the server answers ``welcome`` (echoing
  what it negotiated) or ``reject`` and closes.  A version mismatch is
  a hard reject: silent cross-version traffic is how elastic clusters
  corrupt jobs.  A peer that does not advertise ``bin`` simply keeps
  receiving base64 envelopes — the feature degrades, it never rejects.
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

try:  # optional accelerated codec; the wire works without it
    import msgpack  # type: ignore
except ImportError:  # pragma: no cover - exercised where msgpack exists
    msgpack = None

#: Protocol version carried by every handshake.  Bump on any
#: *incompatible* change; the binary data plane is feature-negotiated
#: (``bin`` in the handshake), so version 1 peers interoperate whether
#: or not they speak it.
PROTOCOL_VERSION = 1

#: Hard upper bound on one frame's payload, a corruption guard: a bogus
#: length prefix must fail loudly, not allocate gigabytes.
MAX_FRAME_BYTES = 64 * 1024 * 1024

#: Top bit of the length prefix: set for binary frames, where the
#: remaining 31 bits are the *header* length and the raw segments
#: follow.  Payloads are capped far below 2**31, so the bit is
#: unambiguous.
BINARY_FLAG = 0x80000000

#: Second flag bit, only ever set beside :data:`BINARY_FLAG`: a *lean*
#: frame (docs/PROTOCOL.md, "Lean segment frames").  The low 30 bits
#: are the length of its head — fixed header, array table, meta tail.
LEAN_FLAG = 0x40000000

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


def available_codecs() -> "tuple[str, ...]":
    """Codecs this process can encode/decode, preferred first."""
    return ("msgpack", "json") if msgpack is not None else ("json",)


def negotiate_codec(requested: str) -> str:
    """Clamp a requested codec to what this process can actually speak.

    The server calls this to answer a ``hello``; the client calls it
    before *sending* one, so it never requests a codec it cannot
    decode.  Falls back to JSON when the requested codec is unknown or
    not importable here — JSON is the mandatory baseline both sides
    have.
    """
    return requested if requested in available_codecs() else "json"


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


# -- value envelopes (codec fallback: arrays as base64) -----------------------


def _pack_arrays(obj):
    """Recursively wrap ndarrays / raw bytes in a codec-safe envelope."""
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
        return {key: _pack_arrays(value) for key, value in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_pack_arrays(item) for item in obj]
    return obj


def _unpack_arrays(obj):
    """Inverse of :func:`_pack_arrays`."""
    if isinstance(obj, dict):
        if "__nd__" in obj:
            raw = base64.b64decode(obj["__nd__"])
            return np.frombuffer(raw, dtype=np.dtype(obj["dtype"])).reshape(
                obj["shape"]
            ).copy()
        if "__bytes__" in obj:
            return base64.b64decode(obj["__bytes__"])
        return {key: _unpack_arrays(value) for key, value in obj.items()}
    if isinstance(obj, list):
        return [_unpack_arrays(item) for item in obj]
    return obj


def encode_payload(payload: dict) -> dict:
    """Make an arbitrary payload (possibly holding ndarrays) codec-safe."""
    return _pack_arrays(payload)


def decode_payload(payload: dict) -> dict:
    """Restore ndarrays inside a decoded payload."""
    return _unpack_arrays(payload)


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


def split_buffers(
    obj, segments: "list[memoryview] | None" = None
) -> "tuple[typing.Any, list[memoryview]]":
    """Replace ndarray / raw-bytes values with segment placeholders.

    Returns ``(codec_safe_obj, segments)``: the transformed object can
    be encoded by any codec, and each segment is a contiguous byte view
    of the *original* data — the zero-copy half of a binary frame (and
    of a state blob).  Non-contiguous arrays are the one exception:
    they are compacted first, one bounded copy.
    """
    if segments is None:
        segments = []
    lifted = _lift_leaf(obj, segments)
    if lifted is not _NOT_A_LEAF:
        return lifted, segments
    if isinstance(obj, dict):
        return (
            {k: split_buffers(v, segments)[0] for k, v in obj.items()},
            segments,
        )
    if isinstance(obj, (list, tuple)):
        return [split_buffers(item, segments)[0] for item in obj], segments
    return obj, segments


def join_buffers(obj, segments: "typing.Sequence[memoryview]"):
    """Inverse of :func:`split_buffers` over received segment views.

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


# -- codecs -------------------------------------------------------------------


def encode_frame(frame: dict, codec: str = "json") -> bytes:
    """Serialize one frame dict to payload bytes."""
    if codec == "msgpack" and msgpack is not None:
        return msgpack.packb(frame, use_bin_type=True)
    return json.dumps(frame, separators=(",", ":")).encode("utf-8")


def decode_frame(data: "bytes | bytearray", codec: str = "json") -> dict:
    """Deserialize payload bytes back to a frame dict.

    Any decode failure — corrupt bytes, a codec mismatch, a payload
    that is not a dict — raises :class:`WireError`, so read loops
    handle corruption through the same drop-and-reconnect path as
    framing violations instead of dying on a codec exception.
    """
    try:
        if codec == "msgpack" and msgpack is not None:
            frame = msgpack.unpackb(data, raw=False)
        else:
            frame = json.loads(bytes(data).decode("utf-8"))
    except Exception as exc:
        raise WireError(
            f"undecodable {codec} frame: {type(exc).__name__}: {exc}"
        ) from exc
    if not isinstance(frame, dict):
        raise WireError(
            f"frame payload decodes to {type(frame).__name__}, not a dict"
        )
    return frame


# -- framing ------------------------------------------------------------------


def frame_bytes(frame: dict, codec: str = "json") -> bytes:
    """One length-prefixed codec frame, ready for ``sendall``."""
    return _prefixed(encode_frame(frame, codec))


def _prefixed(payload: bytes) -> bytes:
    if len(payload) > MAX_FRAME_BYTES:
        raise WireError(f"frame of {len(payload)} bytes exceeds the maximum")
    return _LENGTH.pack(len(payload)) + payload


def _json_header(frame: dict) -> "tuple[bytes, list[memoryview]]":
    """``frame`` as a JSON header, its buffers lifted into segments.

    The bytes :func:`split_buffers` + :func:`encode_frame` would give
    and the segments in the same depth-first order, but the walk is the
    encoder's own: it calls the hook only for what it cannot encode —
    ndarrays, byte buffers, numpy scalars — so an array-free frame
    costs no Python-level walk, and the segment table (the header's
    last key) is spliced onto the tail instead of a second encode.
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
    if segments:
        sizes = ",".join(str(segment.nbytes) for segment in segments)
        header = f'{header[:-1]},"__segs__":[{sizes}]}}'
    return header.encode("utf-8"), segments


def _msgpack_header(frame: dict) -> "tuple[bytes, list[memoryview]]":
    """The msgpack twin of :func:`_json_header`, by explicit walk:
    msgpack packs ``bytes`` natively, so a hook would never see them."""
    header_obj, segments = split_buffers(frame)
    if segments:
        header_obj["__segs__"] = [segment.nbytes for segment in segments]
    return encode_frame(header_obj, "msgpack"), segments


def frame_buffers(
    frame: dict, codec: str = "json", binary: bool = True
) -> "tuple[list, int]":
    """The buffers one frame leaves as, and their total byte count.

    With ``binary`` a frame holding ndarrays or raw bytes is a binary
    frame (flagged prefix, header, raw segments); every other frame —
    and every frame without ``binary`` — is one plain codec frame, both
    smaller and cheaper when there is nothing to scatter.
    """
    if not binary:
        data = frame_bytes(frame, codec)
        return [data], len(data)
    if codec == "msgpack" and msgpack is not None:
        header, segments = _msgpack_header(frame)
    else:
        header, segments = _json_header(frame)
    if not segments:
        data = _prefixed(header)
        return [data], len(data)
    total = len(header) + sum(segment.nbytes for segment in segments)
    if total > MAX_FRAME_BYTES:
        raise WireError(f"frame of {total} bytes exceeds the maximum")
    prefix = _LENGTH.pack(BINARY_FLAG | len(header))
    return [prefix, header, *segments], _LENGTH.size + total


def binary_frame_buffers(
    frame: dict, codec: str = "json"
) -> "tuple[list | None, int]":
    """Scatter/gather buffer list for one binary frame.

    Returns ``(buffers, total_bytes)``; ``buffers`` is None when the
    frame holds no arrays or raw bytes — a plain codec frame is both
    smaller and cheaper then (:func:`frame_buffers` picks for you).
    """
    buffers, total = frame_buffers(frame, codec)
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


def _recv_head(sock: socket.socket, head_len: int) -> bytearray:
    """The header of a flagged frame, whose length the prefix named."""
    if head_len > MAX_FRAME_BYTES:
        raise WireError(f"binary header length {head_len} exceeds the maximum")
    head = _recv_exact(sock, head_len)
    if head is None:
        raise WireError("connection closed mid-frame")
    return head


def _read_binary_frame(
    sock: socket.socket, header_len: int, codec: str
) -> dict:
    """Read the remainder of a binary frame after its flagged prefix."""
    frame = decode_frame(_recv_head(sock, header_len), codec)
    seg_lens = frame.pop("__segs__", None)
    if not isinstance(seg_lens, list) or not all(
        isinstance(n, int) and n >= 0 for n in seg_lens
    ):
        raise WireError("binary frame carries no valid segment table")
    total = sum(seg_lens)
    if total + header_len > MAX_FRAME_BYTES:
        raise WireError(f"frame of {total + header_len} bytes exceeds the maximum")
    view = memoryview(_recv_body(sock, total))
    segments, offset = [], 0
    for length in seg_lens:
        segments.append(view[offset:offset + length])
        offset += length
    return join_buffers(frame, segments)


def read_frame(
    sock: socket.socket, codec: str = "json",
    lean_sender: "str | None" = None,
) -> "dict | Message | None":
    """Read one frame from a socket; None on clean EOF.

    A codec or binary frame comes back as its dict.  A lean frame comes
    back as the :class:`Message` it carries, sent by ``lean_sender`` —
    the node the connection's handshake named; without one (the pipe
    negotiated no ``lean``, or this is the handshake itself) a lean
    frame is a violation.
    """
    header = _recv_exact(sock, _LENGTH.size)
    if header is None:
        return None
    (length,) = _LENGTH.unpack(header)
    if length & BINARY_FLAG:
        if not length & LEAN_FLAG:
            return _read_binary_frame(sock, length & ~BINARY_FLAG, codec)
        if lean_sender is None:
            raise WireError("lean frame on a pipe that negotiated none")
        return parse_lean_segment(
            _recv_head(sock, length & _LEAN_HEAD_MASK),
            functools.partial(_recv_body, sock),
            lean_sender, borrowed=False, codec=codec,
        )
    if length > MAX_FRAME_BYTES:
        raise WireError(f"frame length {length} exceeds the maximum")
    payload = _recv_exact(sock, length) if length else b""
    if payload is None:
        raise WireError("connection closed mid-frame")
    return decode_frame(payload, codec)


def write_frame(
    sock: socket.socket,
    frame: dict,
    codec: str = "json",
    binary: bool = False,
) -> int:
    """Write one frame; returns the bytes put on the wire.

    With ``binary=True`` (both peers negotiated the data plane), frames
    holding arrays or raw bytes go out as binary frames via
    scatter/gather; everything else — and every frame when
    ``binary=False`` — is a plain codec frame with base64 envelopes.
    """
    buffers, total = frame_buffers(frame, codec, binary)
    sendmsg_gather(sock, buffers)
    return total


# -- frame kinds --------------------------------------------------------------


def hello_frame(node_id: str, codec: str = "json", binary: bool = True) -> dict:
    """The mandatory first frame of every connection.

    Whoever offers the binary data plane offers lean segment frames
    with it: one willingness, two keys, so a server that knows only
    ``bin`` still negotiates that.
    """
    return {
        "kind": "hello",
        "version": PROTOCOL_VERSION,
        "node": node_id,
        "codec": codec,
        "bin": bool(binary),
        "lean": bool(binary),
    }


def welcome_frame(
    node_id: str, codec: str = "json", binary: bool = False,
    epoch: "int | None" = None, lean: bool = False,
) -> dict:
    """The server's handshake acceptance.

    ``epoch`` carries the server's fencing epoch when it has one (the
    networked AM always does): a client that reconnects and sees the
    epoch move knows it is talking to a successor AM and must
    re-enroll.  Peers that predate the field simply ignore it —
    :data:`PROTOCOL_VERSION` is unchanged.
    """
    frame = {
        "kind": "welcome",
        "version": PROTOCOL_VERSION,
        "node": node_id,
        "codec": codec,
        "bin": bool(binary),
        "lean": bool(lean),
    }
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


def message_frame(message: Message, raw: bool = False) -> dict:
    """Envelope for one protocol :class:`Message`.

    ``raw=True`` leaves ndarrays and byte buffers in place for the
    binary data plane (the frame writer extracts them as segments);
    ``raw=False`` wraps them in base64 envelopes for codec-only peers.
    """
    frame = {
        "kind": "msg",
        "msg_id": message.msg_id,
        "type": message.msg_type.value,
        "sender": message.sender,
        "payload": (
            dict(message.payload) if raw else encode_payload(message.payload)
        ),
    }
    if message.post:
        # One-way: the receiver dispatches it and writes no reply.  A
        # peer that predates the key answers anyway, to nobody.
        frame["post"] = True
    return frame


def decode_message(frame: dict, borrowed: bool = True) -> Message:
    """Rebuild the :class:`Message` carried by a ``msg`` frame.

    ``borrowed`` is the reading pipe's word on who owns the payload's
    arrays (:attr:`Message.borrowed`).  A frame that names no id,
    sender or known type is a :class:`WireError` like any other
    corruption.
    """
    try:
        return Message(
            msg_id=int(frame["msg_id"]),
            msg_type=MessageType(frame["type"]),
            sender=frame["sender"],
            payload=decode_payload(frame.get("payload") or {}),
            post=bool(frame.get("post")),
            borrowed=borrowed,
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise WireError(f"corrupt msg frame: {exc!r}") from exc


# -- lean segment frames ------------------------------------------------------
#
# prefix  u32  BINARY_FLAG | LEAN_FLAG | head length
# head    the fixed header below, ``arrays`` dtype/count records, then
#         ``meta_len`` bytes of codec-encoded gradient-codec metadata
# body    the arrays' bytes, back to back, in table order

_LEAN_HEAD_MASK = ~(BINARY_FLAG | LEAN_FLAG)
#: msg_id, post | ctx epoch, ctx sent | generation, iteration, phase,
#: step, part, bucket | arrays, meta_len.  Big-endian, unpadded.
_LEAN_FIELDS = "Q?QdqqBIIIHI"
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
    native number), else None: the array keeps the generic frame."""
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


def lean_segment_buffers(
    message: Message, node: str, codec: str = "json"
) -> "tuple[list, int] | None":
    """The buffers ``message`` leaves as in a lean frame, and their byte
    count — or None when it is not what a lean frame can say.

    What it can say is exactly what :class:`RingNode` sends on a link
    dialled as ``node``: the six ring-key integers, flat native-number
    arrays under ``data``, an optional ``codec`` dict (carried opaque,
    in the pipe's codec) and a trace context of node/epoch/sent whose
    node — like the message's sender — is the handshake's.  Anything
    else (an extra context key such as the AM link's ``job``, a 2-D
    array, a float where an id belongs) keeps the generic ``msg`` frame.
    """
    payload = message.payload
    ctx = payload.get(TRACE_CTX_KEY)
    arrays = payload.get("data")
    meta = payload.get("codec")
    if (
        type(ctx) is not dict or len(ctx) != 3
        or type(arrays) is not list
        or type(meta) not in (dict, type(None))
        or len(payload) != (8 if meta is None else 9)
        or not ctx.get("node") == message.sender == node
    ):
        return None
    records, views, body = [], [], 0
    for array in arrays:
        if type(array) is not np.ndarray or array.ndim != 1:
            return None
        code = _lean_dtype_code(array.dtype)
        if code is None:
            return None
        if not array.flags.c_contiguous:
            array = np.ascontiguousarray(array)
        records.append(_LEAN_ARRAY.pack(*code, array.size))
        views.append(array)
        body += array.nbytes
    tail = b"" if meta is None else encode_frame(meta, codec)
    head_len = _LEAN_HEADER.size + _LEAN_ARRAY.size * len(arrays) + len(tail)
    if head_len + body > MAX_FRAME_BYTES:
        raise WireError(f"frame of {head_len + body} bytes exceeds the maximum")
    try:
        header = _LEAN_PREFIXED_HEADER.pack(
            BINARY_FLAG | LEAN_FLAG | head_len,
            message.msg_id, message.post, ctx["epoch"], ctx["sent"],
            payload["generation"], payload["iteration"],
            _LEAN_PHASES.index(payload["phase"]), payload["step"],
            payload["part"], payload["bucket"], len(arrays), len(tail),
        )
    except (KeyError, TypeError, ValueError, struct.error):
        return None  # a key missing or a value the header has no room for
    return (
        [b"".join((header, *records, tail)), *views],
        _LENGTH.size + head_len + body,
    )


def parse_lean_segment(
    head, body_of: "typing.Callable[[int], typing.Any]", sender: str,
    borrowed: bool, codec: str = "json",
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
        part, bucket, arrays, meta_len,
    ) = _LEAN_HEADER.unpack_from(head)
    table_end = _LEAN_HEADER.size + _LEAN_ARRAY.size * arrays
    if table_end + meta_len != len(head):
        raise WireError("lean header disagrees with its own length")
    if phase >= len(_LEAN_PHASES):
        raise WireError(f"lean frame names unknown phase {phase}")
    specs = [
        (_lean_dtype(kind, itemsize), count)
        for kind, itemsize, count in _LEAN_ARRAY.iter_unpack(
            head[_LEAN_HEADER.size:table_end]
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
        "phase": _LEAN_PHASES[phase], "step": step, "part": part,
        "bucket": bucket, "data": data,
    }
    if meta_len:
        payload["codec"] = decode_frame(head[table_end:], codec)
    payload[TRACE_CTX_KEY] = {"node": sender, "epoch": epoch, "sent": sent}
    return Message(
        msg_id, MessageType.RING_SEGMENT, sender, payload, post, borrowed
    )


def reply_frame(
    node_id: str, in_reply_to: int, payload: dict, raw: bool = False,
    ctx: "dict | None" = None,
) -> dict:
    """Server response to one ``msg`` frame, correlated by message id.

    ``ctx`` optionally carries the server's trace context for this
    *transmission* (its node id, fencing epoch, and the receive/send
    timestamps on its own clock) so the client can estimate the clock
    offset NTP-style.  It lives at the frame level — never inside the
    cached reply payload — because a retransmitted request re-sends the
    cached payload but must get *fresh* timestamps.  Peers that predate
    the field ignore it; :data:`PROTOCOL_VERSION` is unchanged.
    """
    frame = {
        "kind": "reply",
        "node": node_id,
        "in_reply_to": in_reply_to,
        "payload": dict(payload) if raw else encode_payload(payload),
    }
    if ctx is not None:
        frame["ctx"] = dict(ctx)
    return frame


class Handshake(typing.NamedTuple):
    """A validated ``hello``: peer identity plus negotiated features."""

    node: str
    codec: str
    binary: bool


def check_handshake(
    frame: "dict | None", binary: bool = True
) -> Handshake:
    """Validate a ``hello``; returns the negotiated :class:`Handshake`.

    ``binary`` is whether *this* side is willing to speak the binary
    data plane; the negotiated flag is the AND of both sides, so a peer
    that never heard of it (no ``bin`` key) degrades to base64
    envelopes instead of being rejected.
    """
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
    return Handshake(
        node=str(node),
        codec=negotiate_codec(str(frame.get("codec", "json"))),
        binary=bool(frame.get("bin")) and bool(binary),
    )


def lean_negotiated(frame: dict, binary: bool) -> bool:
    """Whether a connection speaks lean segment frames.

    ``frame`` is the other side's ``hello`` (asked by the server) or
    ``welcome`` (asked by the client) and ``binary`` what the connection
    negotiated for ``bin``: lean frames are binary frames, so the answer
    is the AND of the two.  A peer that never heard of the key keeps
    getting JSON-header binary frames.
    """
    return bool(binary) and bool(frame.get("lean"))
