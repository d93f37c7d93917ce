"""Property-based tests: the lean ``RING_SEGMENT`` frame codec.

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
