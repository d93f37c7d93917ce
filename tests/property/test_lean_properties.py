"""Property-based tests: the lean frame codecs — ``RING_SEGMENT``,
``SYNC`` and a ``SYNC``'s mean reply.

``parse(encode(m)) == m`` field for field and array for array, over a
socket and through a shm ring record — the two pipes that share the one
encoder and the one parser in ``repro.net.wire``; and no corruption of
prefix or header ever gets past the parser as anything but a frame or a
``WireError``.
"""

import socket

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.coordination.messages import Message, MessageType
from repro.net import wire
from repro.net.shm import ShmRing, decode_shm_frame

DTYPES = ["f2", "f4", "f8", "i1", "i2", "i4", "i8", "u1", "u8", "b1"]


@st.composite
def flat_arrays(draw):
    dtype = np.dtype(draw(st.sampled_from(DTYPES)))
    count = draw(st.integers(0, 40))
    raw = draw(st.binary(
        min_size=count * dtype.itemsize, max_size=count * dtype.itemsize
    ))
    return np.frombuffer(raw, dtype=dtype).copy()


@st.composite
def segments(draw):
    arrays = draw(st.lists(flat_arrays(), max_size=8))
    payload = {
        "generation": draw(st.integers(-2 ** 63, 2 ** 63 - 1)),
        "iteration": draw(st.integers(-2 ** 63, 2 ** 63 - 1)),
        "phase": draw(st.sampled_from(["rs", "ag"])),
        "step": draw(st.integers(0, 2 ** 32 - 1)),
        "bucket": draw(st.integers(0, 2 ** 32 - 1)),
        "data": arrays,
        wire.TRACE_CTX_KEY: {
            "node": "w0",
            "epoch": draw(st.integers(0, 2 ** 40)),
            "sent": draw(st.floats(allow_nan=False)),
        },
    }
    return Message(
        msg_id=draw(st.integers(0, 2 ** 60)),
        msg_type=MessageType.RING_SEGMENT,
        sender="w0",
        payload=payload,
        post=draw(st.booleans()),
    )


def assert_same_message(parsed, message, borrowed):
    assert (parsed.msg_id, parsed.msg_type, parsed.sender, parsed.post) == (
        message.msg_id, message.msg_type, message.sender, message.post
    )
    assert parsed.borrowed is borrowed
    got, want = dict(parsed.payload), dict(message.payload)
    got_data, want_data = got.pop("data"), want.pop("data")
    assert got == want
    assert len(got_data) == len(want_data)
    for got_array, want_array in zip(got_data, want_data):
        assert got_array.dtype == want_array.dtype
        assert got_array.shape == want_array.shape
        assert got_array.tobytes() == want_array.tobytes()  # NaNs included


class TestLeanRoundTrip:
    @given(message=segments())
    @settings(max_examples=80, deadline=None)
    def test_over_a_socket(self, message):
        writer, reader = socket.socketpair()
        try:
            buffers, total = wire.lean_segment_buffers(message, "w0")
            wire.sendmsg_gather(writer, buffers)
            writer.close()
            parsed = wire.read_frame(reader, lean_sender="w0")
            assert wire.read_frame(reader) is None  # nothing left
        finally:
            writer.close()
            reader.close()
        assert total == sum(wire._flat_view(b).nbytes for b in buffers)
        assert_same_message(parsed, message, borrowed=False)

    @given(message=segments())
    @settings(max_examples=80, deadline=None)
    def test_through_a_shm_ring_record(self, message):
        ring = ShmRing(capacity=1 << 16)
        try:
            buffers, total = wire.lean_segment_buffers(message, "w0")
            assert ring.write(buffers) == total + 4  # the record's own u32
            parsed = decode_shm_frame(ring.read(), lean_sender="w0")
            assert_same_message(parsed, message, borrowed=True)
            del parsed  # its arrays are views into the ring
            ring.advance()
        finally:
            ring.close(unlink=True)


@st.composite
def shaped_arrays(draw):
    dtype = np.dtype(draw(st.sampled_from(DTYPES)))
    shape = tuple(draw(st.lists(st.integers(0, 4), max_size=3)))
    nbytes = int(np.prod(shape)) * dtype.itemsize
    raw = draw(st.binary(min_size=nbytes, max_size=nbytes))
    return np.frombuffer(raw, dtype=dtype).reshape(shape).copy()


gradient_dicts = st.one_of(
    st.none(),
    st.dictionaries(st.text(min_size=1, max_size=12), shaped_arrays(), max_size=6),
)


@st.composite
def syncs(draw):
    ctx = {
        "node": "w0",
        "epoch": draw(st.integers(0, 2 ** 40)),
        "sent": draw(st.floats(allow_nan=False)),
    }
    job = draw(st.one_of(st.none(), st.text(max_size=20)))
    if job is not None:
        ctx = {"job": job, **ctx}
    payload = {
        "generation": draw(st.integers(-2 ** 63, 2 ** 63 - 1)),
        "iteration": draw(st.integers(-2 ** 63, 2 ** 63 - 1)),
        "grads": draw(gradient_dicts),
    }
    if draw(st.booleans()):
        payload["ring_fallback"] = True
    payload[wire.TRACE_CTX_KEY] = ctx
    return Message(
        msg_id=draw(st.integers(0, 2 ** 60)),
        msg_type=MessageType.SYNC,
        sender="w0",
        payload=payload,
        post=draw(st.booleans()),
    )


@st.composite
def means(draw):
    """``(in_reply_to, payload, ctx)`` of one SYNC success reply."""
    return (
        draw(st.integers(0, 2 ** 60)),
        {
            "grads": draw(gradient_dicts),
            "members": draw(st.integers(-2 ** 63, 2 ** 63 - 1)),
        },
        {
            "node": draw(st.text(max_size=12)),
            "epoch": draw(st.integers(0, 2 ** 40)),
            "recv": draw(st.floats(allow_nan=False)),
            "sent": draw(st.floats(allow_nan=False)),
        },
    )


def assert_same_grads(got, want):
    if want is None:
        assert got is None
        return
    assert list(got) == list(want)
    for name, array in want.items():
        assert got[name].dtype == array.dtype
        assert got[name].shape == array.shape
        assert got[name].tobytes() == array.tobytes()  # NaNs included


def assert_same_sync(parsed, message, borrowed):
    assert (parsed.msg_id, parsed.msg_type, parsed.sender, parsed.post) == (
        message.msg_id, message.msg_type, message.sender, message.post
    )
    assert parsed.borrowed is borrowed
    got, want = dict(parsed.payload), dict(message.payload)
    assert_same_grads(got.pop("grads"), want.pop("grads"))
    assert got == want


def assert_same_mean(frame, mean):
    in_reply_to, payload, ctx = mean
    got = frame.pop("payload")
    assert frame == {
        "kind": "reply", "node": ctx["node"], "in_reply_to": in_reply_to,
        "ctx": ctx,
    }
    assert got["members"] == payload["members"]
    assert_same_grads(got["grads"], payload["grads"])


def socket_round_trip(buffers):
    writer, reader = socket.socketpair()
    try:
        wire.sendmsg_gather(writer, buffers)
        writer.close()
        frame = wire.read_frame(reader, lean_sender="w0")
        assert wire.read_frame(reader) is None  # nothing left
        return frame
    finally:
        writer.close()
        reader.close()


class TestLeanSyncRoundTrip:
    @given(message=syncs())
    @settings(max_examples=80, deadline=None)
    def test_sync_over_a_socket(self, message):
        buffers, total = wire.lean_sync_buffers(message, "w0")
        assert total == sum(wire._flat_view(b).nbytes for b in buffers)
        assert_same_sync(socket_round_trip(buffers), message, borrowed=False)

    @given(message=syncs())
    @settings(max_examples=80, deadline=None)
    def test_sync_through_a_shm_ring_record(self, message):
        ring = ShmRing(capacity=1 << 16)
        try:
            buffers, total = wire.lean_sync_buffers(message, "w0")
            assert ring.write(buffers) == total + 4
            parsed = decode_shm_frame(ring.read(), lean_sender="w0")
            assert_same_sync(parsed, message, borrowed=True)
            del parsed  # its arrays are views into the ring
            ring.advance()
        finally:
            ring.close(unlink=True)

    @given(mean=means())
    @settings(max_examples=80, deadline=None)
    def test_mean_over_a_socket(self, mean):
        buffers, total = wire.lean_mean_buffers(*mean)
        assert total == sum(wire._flat_view(b).nbytes for b in buffers)
        assert_same_mean(socket_round_trip(buffers), mean)

    @given(mean=means())
    @settings(max_examples=80, deadline=None)
    def test_mean_through_a_shm_ring_record(self, mean):
        ring = ShmRing(capacity=1 << 16)
        try:
            buffers, total = wire.lean_mean_buffers(*mean)
            assert ring.write(buffers) == total + 4
            frame = decode_shm_frame(ring.read(), lean_sender="w0")
            assert_same_mean(frame, mean)
            del frame
            ring.advance()
        finally:
            ring.close(unlink=True)


def lean_blob(message):
    buffers, _ = wire.lean_segment_buffers(message, "w0")
    head = bytes(buffers[0])
    return head, b"".join(bytes(wire._flat_view(b)) for b in buffers[1:])


FUZZED = [
    Message(7, MessageType.RING_SEGMENT, "w0", {
        "generation": 1, "iteration": 2, "phase": "rs", "step": 0,
        "bucket": 0, "data": [np.arange(5.0)],
        wire.TRACE_CTX_KEY: {"node": "w0", "epoch": 9, "sent": 0.25},
    }, post=True),
    Message(8, MessageType.RING_SEGMENT, "w0", {
        "generation": 1, "iteration": 2, "phase": "ag", "step": 1,
        "bucket": 3,
        "data": [np.arange(4, dtype=np.int8), np.zeros(0, np.float16)],
        wire.TRACE_CTX_KEY: {"node": "w0", "epoch": 9, "sent": 0.25},
    }),
    Message(9, MessageType.RING_SEGMENT, "w0", {
        "generation": 0, "iteration": 0, "phase": "rs", "step": 0,
        "bucket": 0, "data": [],
        wire.TRACE_CTX_KEY: {"node": "w0", "epoch": 0, "sent": 0.0},
    }),
]


SYNC_CTX = {"job": "j1", "node": "w0", "epoch": 9, "sent": 0.25}
FUZZED_HEADS = {
    "sync": wire.lean_sync_buffers(Message(
        10, MessageType.SYNC, "w0", {
            "generation": 1, "iteration": 2,
            "grads": {"w": np.arange(6.0).reshape(2, 3), "b": np.ones(2, np.float32)},
            "ring_fallback": True, wire.TRACE_CTX_KEY: SYNC_CTX,
        },
    ), "w0"),
    "sync-no-grads": wire.lean_sync_buffers(Message(
        11, MessageType.SYNC, "w0", {
            "generation": 1, "iteration": 2, "grads": None,
            wire.TRACE_CTX_KEY: SYNC_CTX,
        },
    ), "w0"),
    "mean": wire.lean_mean_buffers(12, {
        "grads": {"w": np.arange(4, dtype=np.int64)}, "members": 3,
    }, {"node": "am", "epoch": 1, "recv": 0.5, "sent": 0.75}),
}


def fuzzed_blob(name):
    buffers, _ = FUZZED_HEADS[name]
    return bytes(buffers[0]), b"".join(bytes(wire._flat_view(b)) for b in buffers[1:])


def corruptions(head):
    for cut in range(len(head)):
        yield head[:cut], False
    for index in range(len(head)):
        for mask in (0x01, 0x40, 0x80, 0xFF):
            flipped = bytearray(head)
            flipped[index] ^= mask
            yield bytes(flipped), True


@pytest.fixture
def bounded_allocations(monkeypatch):
    """Fail the test on any receive buffer above ``MAX_FRAME_BYTES``."""
    real_body, real_exact = wire._recv_body, wire._recv_exact

    def body(sock, count):
        assert count <= wire.MAX_FRAME_BYTES, count
        return real_body(sock, count)

    def exact(sock, count):
        assert count <= wire.MAX_FRAME_BYTES, count
        return real_exact(sock, count)

    monkeypatch.setattr(wire, "_recv_body", body)
    monkeypatch.setattr(wire, "_recv_exact", exact)


class TestLeanFuzz:
    """Every truncation and every single-byte flip of prefix + header
    parses to *a* frame or raises ``WireError`` — never anything else."""

    @pytest.mark.parametrize("message", FUZZED, ids=["plain", "two-arrays", "empty"])
    def test_socket_reader(self, message, bounded_allocations):
        head, body = lean_blob(message)
        outcomes = set()
        for mutated, with_body in corruptions(head):
            writer, reader = socket.socketpair()
            try:
                writer.sendall(mutated + (body if with_body else b""))
                writer.close()
                try:
                    frame = wire.read_frame(reader, lean_sender="w0")
                except wire.WireError:
                    outcomes.add("error")
                else:
                    assert frame is None or isinstance(frame, (dict, Message))
                    outcomes.add(type(frame).__name__)
            finally:
                reader.close()
        # An empty cut is a clean EOF; some flips (an id, a timestamp)
        # still make a frame; the rest must have been refused.
        assert outcomes >= {"error", "NoneType", "Message"}

    @pytest.mark.parametrize("message", FUZZED, ids=["plain", "two-arrays", "empty"])
    def test_shm_record_reader(self, message):
        head, body = lean_blob(message)
        outcomes = set()
        for mutated, with_body in corruptions(head):
            record = memoryview(mutated + (body if with_body else b""))
            try:
                frame = decode_shm_frame(record, lean_sender="w0")
            except wire.WireError:
                outcomes.add("error")
            else:
                assert isinstance(frame, (dict, Message))
                outcomes.add(type(frame).__name__)
        assert outcomes >= {"error", "Message"}


class TestLeanSyncFuzz:
    """The same truncations and flips over a lean SYNC and mean head."""

    @pytest.mark.parametrize("name", sorted(FUZZED_HEADS))
    def test_socket_reader(self, name, bounded_allocations):
        head, body = fuzzed_blob(name)
        outcomes = set()
        for mutated, with_body in corruptions(head):
            writer, reader = socket.socketpair()
            try:
                writer.sendall(mutated + (body if with_body else b""))
                writer.close()
                try:
                    frame = wire.read_frame(reader, lean_sender="w0")
                except wire.WireError:
                    outcomes.add("error")
                else:
                    assert frame is None or isinstance(frame, (dict, Message))
                    outcomes.add("none" if frame is None else "frame")
            finally:
                reader.close()
        assert outcomes >= {"error", "none", "frame"}

    @pytest.mark.parametrize("name", sorted(FUZZED_HEADS))
    def test_shm_record_reader(self, name):
        head, body = fuzzed_blob(name)
        outcomes = set()
        for mutated, with_body in corruptions(head):
            record = memoryview(mutated + (body if with_body else b""))
            try:
                frame = decode_shm_frame(record, lean_sender="w0")
            except wire.WireError:
                outcomes.add("error")
            else:
                assert isinstance(frame, (dict, Message))
                outcomes.add("frame")
        assert outcomes >= {"error", "frame"}
