"""Wire-format tests: framing, envelopes, binary and lean frames, handshake."""

import socket
import struct
import threading
import time

import numpy as np
import pytest

from repro.coordination.messages import MessageFactory, MessageType
from repro.net import wire
from repro.net.chunks import StateBlob, decode_state_blob
from repro.net.shm import ShmRing, decode_shm_frame


def socket_pair():
    server = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    server.bind(("127.0.0.1", 0))
    server.listen(1)
    client = socket.create_connection(server.getsockname())
    accepted, _ = server.accept()
    server.close()
    return client, accepted


class TestFraming:
    def test_round_trip_over_socket(self):
        client, accepted = socket_pair()
        try:
            frame = {"kind": "msg", "data": [1, 2, 3], "nested": {"x": "y"}}
            wire.write_frame(client, frame)
            assert wire.read_frame(accepted) == frame
        finally:
            client.close()
            accepted.close()

    def test_many_frames_preserve_boundaries(self):
        client, accepted = socket_pair()
        try:
            frames = [{"kind": "msg", "i": i, "pad": "x" * i} for i in range(50)]
            for frame in frames:
                wire.write_frame(client, frame)
            received = [wire.read_frame(accepted) for _ in frames]
            assert received == frames
        finally:
            client.close()
            accepted.close()

    def test_clean_eof_returns_none(self):
        client, accepted = socket_pair()
        client.close()
        try:
            assert wire.read_frame(accepted) is None
        finally:
            accepted.close()

    def test_mid_frame_eof_raises(self):
        client, accepted = socket_pair()
        try:
            (data,), _ = wire.frame_buffers({"kind": "msg", "pad": "x" * 1000})
            client.sendall(data[: len(data) // 2])
            client.close()
            with pytest.raises(wire.WireError):
                wire.read_frame(accepted)
        finally:
            accepted.close()

    def test_bounded_write_gives_up_on_a_peer_that_does_not_read(self):
        client, accepted = socket_pair()
        try:
            started = time.monotonic()
            with pytest.raises(TimeoutError):
                for _ in range(64):
                    wire.sendmsg_gather(client, [bytes(1 << 20)], timeout=0.1)
            assert time.monotonic() - started < 5.0
            # Unbounded writes still block-and-finish when there is room.
            fresh, reader = socket_pair()
            wire.sendmsg_gather(fresh, [b"abc", b"", b"de"])
            assert reader.recv(16) == b"abcde"
            fresh.close()
            reader.close()
        finally:
            client.close()
            accepted.close()

    def test_post_key_rides_the_msg_frame(self):
        factory = MessageFactory(epoch=0)
        post = factory.make(MessageType.RING_SEGMENT, "w0", {"x": 1}, post=True)
        plain = factory.make(MessageType.RING_SEGMENT, "w0", {"x": 1})
        assert wire.message_frame(post)["post"] is True
        assert "post" not in wire.message_frame(plain)
        assert wire.decode_message(wire.message_frame(post)).post is True
        assert wire.decode_message(wire.message_frame(plain)).post is False

    def test_message_frame_takes_raw_for_old_callers(self):
        message = MessageFactory(epoch=0).make(
            MessageType.SYNC, "w0", {"grads": np.ones(3)}
        )
        frame = wire.message_frame(message)
        assert wire.message_frame(message, raw=True) == frame
        assert frame["payload"] is message.payload  # lifted, not copied

    def test_oversize_frame_rejected_on_write(self):
        huge = {"pad": "x" * (wire.MAX_FRAME_BYTES + 1)}
        with pytest.raises(wire.WireError):
            wire.frame_buffers(huge)

    def test_bogus_length_prefix_rejected_on_read(self):
        client, accepted = socket_pair()
        try:
            client.sendall(
                (wire.MAX_FRAME_BYTES + 1).to_bytes(4, "big")
            )
            with pytest.raises(wire.WireError):
                wire.read_frame(accepted)
        finally:
            client.close()
            accepted.close()


class TestEnvelopes:
    def test_ndarray_payload_round_trip(self):
        payload = {
            "grads": {
                "w": np.arange(12, dtype=np.float64).reshape(3, 4),
                "b": np.zeros(4, dtype=np.float32),
            },
            "iteration": 7,
            "nested": [np.array([1.5, -2.5]), "text", None],
        }
        decoded = wire.decode_payload(
            wire.decode_frame(
                wire.encode_frame(wire.encode_payload(payload))
            )
        )
        np.testing.assert_array_equal(
            decoded["grads"]["w"], payload["grads"]["w"]
        )
        assert decoded["grads"]["b"].dtype == np.float32
        np.testing.assert_array_equal(decoded["nested"][0], [1.5, -2.5])
        assert decoded["iteration"] == 7
        assert decoded["nested"][1:] == ["text", None]

    def test_numpy_scalars_become_plain(self):
        packed = wire.encode_payload({"loss": np.float64(1.25), "n": np.int64(3)})
        assert packed == {"loss": 1.25, "n": 3}

    def test_message_frame_round_trip(self):
        message = MessageFactory().make(
            MessageType.SYNC, "w0",
            {"grads": {"w": np.ones((2, 2))}, "iteration": 3},
        )
        client, accepted = socket_pair()
        try:
            wire.write_frame(client, wire.message_frame(message))
            rebuilt = wire.decode_message(wire.read_frame(accepted))
        finally:
            client.close()
            accepted.close()
        assert rebuilt.msg_id == message.msg_id
        assert rebuilt.msg_type is MessageType.SYNC
        assert rebuilt.sender == "w0"
        np.testing.assert_array_equal(
            rebuilt.payload["grads"]["w"], np.ones((2, 2))
        )

    def test_params_digest_is_content_addressed(self):
        params = {"w": np.arange(6.0).reshape(2, 3), "b": np.zeros(3)}
        same = {"b": np.zeros(3), "w": np.arange(6.0).reshape(2, 3)}
        different = {"w": np.arange(6.0).reshape(2, 3), "b": np.ones(3)}
        assert wire.params_digest(params) == wire.params_digest(same)
        assert wire.params_digest(params) != wire.params_digest(different)


class TestBinaryFrames:
    """The zero-copy data plane: header + raw segments, no base64."""

    def round_trip(self, payload):
        client, accepted = socket_pair()
        try:
            message = MessageFactory().make(MessageType.SYNC, "w0", payload)
            # Write from a helper thread: frames larger than the kernel
            # socket buffer would deadlock a same-thread write-then-read.
            errors = []

            def write():
                try:
                    wire.write_frame(client, wire.message_frame(message))
                except BaseException as exc:  # noqa: BLE001
                    errors.append(exc)

            writer = threading.Thread(target=write, daemon=True)
            writer.start()
            frame = wire.read_frame(accepted)
            writer.join(timeout=10)
            assert not errors, errors
            return wire.decode_message(frame)
        finally:
            client.close()
            accepted.close()

    @pytest.mark.parametrize(
        "dtype", [np.float16, np.float32, np.int64, np.bool_]
    )
    def test_dtype_matrix_round_trip(self, dtype):
        array = (np.arange(24) % 5).reshape(2, 3, 4).astype(dtype)
        rebuilt = self.round_trip({"a": array})
        assert rebuilt.payload["a"].dtype == dtype
        assert rebuilt.payload["a"].shape == (2, 3, 4)
        np.testing.assert_array_equal(rebuilt.payload["a"], array)

    def test_non_contiguous_view_round_trip(self):
        base = np.arange(36, dtype=np.float64).reshape(6, 6)
        views = {"t": base.T, "s": base[::2, 1::2], "f": np.asfortranarray(base)}
        rebuilt = self.round_trip(views)
        for name, view in views.items():
            np.testing.assert_array_equal(rebuilt.payload[name], view)

    def test_empty_array_round_trip(self):
        rebuilt = self.round_trip({
            "empty": np.zeros((0, 4), dtype=np.float32),
            "full": np.ones(3),
        })
        assert rebuilt.payload["empty"].shape == (0, 4)
        assert rebuilt.payload["empty"].dtype == np.float32
        np.testing.assert_array_equal(rebuilt.payload["full"], np.ones(3))

    def test_raw_bytes_and_mixed_payload(self):
        rebuilt = self.round_trip({
            "data": b"\x00\x01binary",
            "grads": {"w": np.full((3, 3), 2.5)},
            "n": 7, "tag": "text",
        })
        assert bytes(rebuilt.payload["data"]) == b"\x00\x01binary"
        np.testing.assert_array_equal(
            rebuilt.payload["grads"]["w"], np.full((3, 3), 2.5)
        )
        assert rebuilt.payload["n"] == 7

    def test_decoded_arrays_are_zero_copy_views(self):
        rebuilt = self.round_trip({"w": np.arange(8, dtype=np.float64)})
        assert rebuilt.payload["w"].base is not None  # frombuffer view

    def test_array_free_frames_fall_back_to_codec(self):
        frame = {"kind": "msg", "plain": [1, 2, 3]}
        buffers, total = wire.binary_frame_buffers(frame)
        assert buffers is None and total == 0

    def test_one_pass_header_is_byte_identical_to_the_walk(self):
        """``frame_buffers`` lets the JSON encoder lift buffers through
        its ``default`` hook; the header must be exactly the hand-walked
        one below, the segments behind it the original bytes, and the
        frame must read back alike off a socket and out of a shm record.
        A state blob is the same header behind a plain length."""
        base = np.arange(24, dtype=np.float64).reshape(4, 6)
        frame = {
            "kind": "msg", "msg_id": (7 << 20) + 3, "type": "ring_segment",
            "sender": "w0", "post": True,
            "payload": {
                "generation": np.int64(2), "iteration": 5, "phase": "rs",
                "scale": np.float32(0.5), "ratio": np.float64(1 / 3),
                "flag": np.bool_(True), "none": None,
                "data": [base[0], base[:, 1], np.empty((0, 3), np.int8)],
                "shape": (4, 6), "pair": (np.int16(1), b"xy"),
                "raw": b"\x00\x01", "buffer": bytearray(b"abc"),
                "view": memoryview(b"defg")[1:],
                "codec": {"kind": "int8", "scales": [np.float32(2.0)],
                          "deep": {"z": np.arange(3, dtype=np.uint8)}},
                "__ctx__": {"node": "w0", "epoch": 1, "sent": 12.5},
                3: "int key", "unicode": "bücket",
            },
        }

        def seg(index, dtype=None, shape=None):
            if dtype is None:
                return {"__seg__": index}
            return {"__seg__": index, "dtype": dtype, "shape": shape}

        expected = wire.encode_frame({
            "kind": "msg", "msg_id": (7 << 20) + 3, "type": "ring_segment",
            "sender": "w0", "post": True,
            "payload": {
                "generation": 2, "iteration": 5, "phase": "rs",
                "scale": 0.5, "ratio": 1 / 3, "flag": True, "none": None,
                "data": [seg(0, "float64", [6]), seg(1, "float64", [4]),
                         seg(2, "int8", [0, 3])],
                "shape": [4, 6], "pair": [1, seg(3)], "raw": seg(4),
                "buffer": seg(5), "view": seg(6),
                "codec": {"kind": "int8", "scales": [2.0],
                          "deep": {"z": seg(7, "uint8", [3])}},
                "__ctx__": {"node": "w0", "epoch": 1, "sent": 12.5},
                "3": "int key", "unicode": "bücket",
            },
            "__segs__": [48, 32, 0, 2, 2, 3, 3, 3],
        })
        segments = [
            base[0].tobytes(), base[:, 1].tobytes(), b"", b"xy", b"\x00\x01",
            b"abc", b"efg", np.arange(3, dtype=np.uint8).tobytes(),
        ]
        buffers, total = wire.frame_buffers(frame)
        assert bytes(buffers[1]) == expected
        assert buffers[0] == wire._LENGTH.pack(
            wire.BINARY_FLAG | len(expected)
        )
        assert [bytes(b) for b in buffers[2:]] == segments
        assert total == sum(len(bytes(b)) for b in buffers)
        assert wire.binary_frame_buffers(frame) == (buffers, total)

        framed = frame_bytes(buffers, total)
        via_socket = plain(over_socket(framed))
        assert via_socket == plain(shm_parse(framed))
        assert via_socket["payload"]["data"][0] == plain(base[0])
        assert via_socket["payload"]["view"] == b"efg"

        state = frame["payload"]
        header, state_segments = wire.json_header({"state": state}, table=True)
        assert StateBlob.encode(state).tobytes() == b"".join([
            wire._LENGTH.pack(len(header)), header,
            *(bytes(s) for s in state_segments),
        ])

    def test_array_free_frames_are_encoded_once_as_plain_frames(self):
        frame = {"kind": "reply", "in_reply_to": 9, "node": "am",
                 "payload": {"ok": True, "n": np.int64(3)},
                 "ctx": {"recv": 1.5, "sent": 2.5}}
        plain = dict(frame, payload={"ok": True, "n": 3})
        buffers, total = wire.frame_buffers(frame)
        assert buffers == [
            wire._LENGTH.pack(len(wire.encode_frame(plain)))
            + wire.encode_frame(plain)
        ] and total == len(buffers[0])
        assert wire.binary_frame_buffers(frame) == (None, 0)

    def test_unserializable_values_still_raise_type_error(self):
        with pytest.raises(TypeError):
            wire.frame_buffers({"payload": {"x": object(), "a": np.ones(2)}})

    def test_corrupt_segment_length_raises(self):
        client, accepted = socket_pair()
        try:
            array = np.arange(16, dtype=np.float32)
            buffers, _ = wire.frame_buffers({"kind": "msg", "a": array})
            header_obj = wire.decode_frame(buffers[1])
            header_obj["__segs__"] = [buffers[2].nbytes - 4]  # lie
            header = wire.encode_frame(header_obj)
            client.sendall(wire._LENGTH.pack(wire.BINARY_FLAG | len(header)))
            client.sendall(header)
            client.sendall(bytes(buffers[2])[:-4])
            with pytest.raises(wire.WireError, match="needs"):
                wire.read_frame(accepted)
        finally:
            client.close()
            accepted.close()

    def test_missing_segment_table_raises(self):
        client, accepted = socket_pair()
        try:
            header = wire.encode_frame({"kind": "msg"})
            client.sendall(wire._LENGTH.pack(wire.BINARY_FLAG | len(header)))
            client.sendall(header)
            with pytest.raises(wire.WireError, match="segment table"):
                wire.read_frame(accepted)
        finally:
            client.close()
            accepted.close()

    def test_oversize_binary_frame_rejected_on_write(self):
        big = np.zeros(wire.MAX_FRAME_BYTES // 8 + 1, dtype=np.float64)
        with pytest.raises(wire.WireError, match="exceeds"):
            wire.binary_frame_buffers({"kind": "msg", "a": big})

    def test_object_arrays_are_rejected(self):
        with pytest.raises(wire.WireError, match="object"):
            wire.frame_buffers({"bad": np.array([object()])})
        with pytest.raises(wire.WireError, match="object"):
            StateBlob.encode({"bad": np.array([object()])})

    def test_large_frame_round_trip(self):
        # Also exercises the recv_into read path on a multi-MB frame.
        array = np.random.default_rng(0).random((512, 1024))  # 4 MiB
        rebuilt = self.round_trip({"big": array})
        np.testing.assert_array_equal(rebuilt.payload["big"], array)


class TestStreamingDigest:
    def test_non_contiguous_matches_contiguous(self):
        base = np.arange(24, dtype=np.float64).reshape(4, 6)
        assert wire.params_digest({"w": base.T}) == wire.params_digest(
            {"w": np.ascontiguousarray(base.T)}
        )

    def test_zero_size_arrays_still_distinguish_metadata(self):
        a = {"w": np.zeros((0, 3), dtype=np.float32)}
        b = {"w": np.zeros((0, 4), dtype=np.float32)}
        c = {"w": np.zeros((0, 3), dtype=np.float64)}
        digests = {wire.params_digest(p) for p in (a, b, c)}
        assert len(digests) == 3

    def test_matches_historical_tobytes_format(self):
        import hashlib

        params = {
            "w": np.arange(12.0).reshape(3, 4).T,  # non-contiguous
            "b": np.zeros(0, dtype=np.float16),
            "s": np.float32(2.5) * np.ones((2, 2), dtype=np.float32),
        }
        hasher = hashlib.sha256()
        for name in sorted(params):
            arr = np.ascontiguousarray(params[name])
            hasher.update(name.encode())
            hasher.update(str(arr.dtype).encode())
            hasher.update(str(arr.shape).encode())
            hasher.update(arr.tobytes())
        assert wire.params_digest(params) == hasher.hexdigest()


class TestHandshake:
    def test_hello_welcome(self):
        assert wire.check_handshake(wire.hello_frame("w3")) == "w3"

    def test_version_mismatch_rejected(self):
        hello = wire.hello_frame("w0")
        hello["version"] = wire.PROTOCOL_VERSION + 1
        with pytest.raises(wire.WireError, match="version mismatch"):
            wire.check_handshake(hello)

    def test_missing_node_rejected(self):
        hello = wire.hello_frame("w0")
        hello["node"] = ""
        with pytest.raises(wire.WireError, match="node id"):
            wire.check_handshake(hello)

    def test_non_hello_rejected(self):
        with pytest.raises(wire.WireError, match="expected hello"):
            wire.check_handshake(wire.heartbeat_frame("w0", 1))
        with pytest.raises(wire.WireError, match="closed"):
            wire.check_handshake(None)

    def test_version_1_hello_is_rejected(self):
        """A version-1 peer negotiated codec, binary and lean frames; a
        version-2 peer's lean header carries a meta tail and ``part``.
        Version 3 speaks one format, so both are refused, not degraded."""
        legacy = {
            "kind": "hello", "version": 1, "node": "old-worker",
            "codec": "json", "bin": True, "lean": True,
        }
        with pytest.raises(wire.WireError, match="version mismatch"):
            wire.check_handshake(legacy)
        with pytest.raises(wire.WireError, match="version mismatch"):
            wire.check_handshake(
                {"kind": "hello", "version": 2, "node": "old-worker"}
            )


class TestDecodeHardening:
    def test_corrupt_bytes_are_a_wire_error(self):
        """Decode failures must be WireErrors so read loops run their
        drop-and-reconnect cleanup instead of dying on a codec
        exception."""
        with pytest.raises(wire.WireError, match="undecodable"):
            wire.decode_frame(b"\xff\x00 definitely not json")

    def test_codec_mismatch_is_a_wire_error(self):
        # Another format's bytes (here a msgpack map) read as JSON must
        # fail loudly, not kill the reader thread.
        with pytest.raises(wire.WireError, match="undecodable"):
            wire.decode_frame(b"\x81\xa4kind\xa3msg")

    def test_non_dict_payload_is_a_wire_error(self):
        with pytest.raises(wire.WireError, match="not a dict"):
            wire.decode_frame(b"[1,2,3]")

    def test_json_nested_past_the_recursion_limit_is_a_wire_error(self):
        """json raises RecursionError, not ValueError, on deep nesting:
        the typed handler must catch it too, and a server that reads
        such a frame ends that connection and keeps serving."""
        from repro.net import ServerCore, TcpServer

        hostile = b"[" * 100_000
        with pytest.raises(wire.WireError, match="RecursionError"):
            wire.decode_frame(hostile)
        server = TcpServer(ServerCore(handler=lambda m: {"ok": True})).start()
        try:
            sock = socket.create_connection((server.host, server.port))
            try:
                wire.write_frame(sock, wire.hello_frame("w0"))
                assert wire.read_frame(sock)["kind"] == "welcome"
                sock.sendall(wire._LENGTH.pack(len(hostile)) + hostile)
                assert wire.read_frame(sock) is None  # hung up on
            finally:
                sock.close()
            assert server.wire_errors == 1
            survivor = socket.create_connection((server.host, server.port))
            try:
                wire.write_frame(survivor, wire.hello_frame("w1"))
                assert wire.read_frame(survivor)["kind"] == "welcome"
            finally:
                survivor.close()
        finally:
            server.close()

    @pytest.mark.parametrize("placeholder", [
        {"dtype": "object", "shape": [2]},
        {"dtype": "float64", "shape": [-2]},
        {"dtype": "float64", "shape": [2, -1, -1]},
        {"dtype": "S0", "shape": [0]},
        {"dtype": "V0", "shape": [4]},
        {"dtype": "float64", "shape": "ab"},
        {"dtype": "float64"},
    ])
    def test_corrupt_array_placeholder_is_a_wire_error(self, placeholder):
        """numpy's own ValueError for a placeholder it cannot rebuild
        (object dtype, negative or several unknown dimensions, a dtype
        of no width) used to escape and kill the reader thread."""
        data = memoryview(bytes(16))
        with pytest.raises(wire.WireError):
            wire.join_buffers({"__seg__": 0, **placeholder}, [data])

    def test_msg_payload_that_is_not_a_dict_is_a_wire_error(self):
        frame = wire.message_frame(
            MessageFactory(epoch=0).make(MessageType.STATUS, "w0", {})
        )
        for payload in ([1, 2], "text", 7):
            with pytest.raises(wire.WireError, match="corrupt msg frame"):
                wire.decode_message(dict(frame, payload=payload))

    def test_corrupt_msg_frame_is_a_wire_error(self):
        good = wire.message_frame(
            MessageFactory(epoch=0).make(MessageType.STATUS, "w0", {})
        )
        for key, value in (
            ("msg_id", "seven"), ("type", "no_such_type"), ("sender", None),
        ):
            frame = dict(good, **{key: value})
            if value is None:
                del frame[key]
            with pytest.raises(wire.WireError, match="corrupt msg frame"):
                wire.decode_message(frame)


def segment(post=True, arrays=None, ctx=None, **key):
    """A ``RING_SEGMENT`` as ``RingNode`` + ``ReliableLink`` build it."""
    payload = dict(
        generation=3, iteration=41, phase="ag", step=1, bucket=0,
        data=[np.arange(6.0)] if arrays is None else arrays,
    )
    payload.update(key)
    payload[wire.TRACE_CTX_KEY] = (
        {"node": "w0", "epoch": 77, "sent": 1.5} if ctx is None else ctx
    )
    return MessageFactory(epoch=5).make(
        MessageType.RING_SEGMENT, "w0", payload, post
    )


def lean_bytes(message, node="w0"):
    buffers, total = wire.lean_segment_buffers(message, node)
    blob = b"".join(bytes(wire._flat_view(b)) for b in buffers)
    assert len(blob) == total
    return blob


def parse_lean(blob, node="w0", borrowed=True):
    (length,) = wire._LENGTH.unpack_from(blob)
    assert length & wire.BINARY_FLAG and length & wire.LEAN_FLAG
    head_len = length & wire._LEAN_HEAD_MASK
    head, body = blob[4:4 + head_len], blob[4 + head_len:]

    def body_of(nbytes):
        assert nbytes == len(body)
        return body

    return wire.parse_lean_segment(head, body_of, node, borrowed)


class TestLeanFrames:
    def test_round_trip_field_for_field(self):
        message = segment(post=True)
        parsed = parse_lean(lean_bytes(message), borrowed=False)
        assert parsed.msg_id == message.msg_id
        assert parsed.msg_type is MessageType.RING_SEGMENT
        assert (parsed.sender, parsed.post, parsed.borrowed) == (
            "w0", True, False
        )
        data = parsed.payload.pop("data")
        assert parsed.payload == {
            k: v for k, v in message.payload.items() if k != "data"
        }
        assert [a.dtype for a in data] == [np.float64]
        np.testing.assert_array_equal(data[0], np.arange(6.0))

    def test_header_is_the_documented_size_and_carries_no_json(self):
        blob = lean_bytes(segment())
        # prefix + 52-byte fixed header + one 10-byte array record
        assert wire._LEAN_HEADER.size == 52
        assert len(blob) == 4 + 52 + 10 + 6 * 8
        assert b"{" not in blob[:66] and b"w0" not in blob

    def test_codec_or_part_key_is_refused_at_the_sender(self):
        """Version 3 has no meta tail and no ``part`` field: a segment
        carrying either is one the ring never sends."""
        meta = {"name": "int8", "arrays": [{"dtype": "float64"}]}
        for extra in ({"codec": meta}, {"part": 2}):
            with pytest.raises(wire.WireError, match="ring segment"):
                wire.lean_segment_buffers(segment(**extra), "w0")

    @pytest.mark.parametrize("message", [
        segment(ctx={"node": "w0", "epoch": 1, "sent": 0.5, "job": "j1"}),
        segment(ctx={"node": "w9", "epoch": 1, "sent": 0.5}),
        segment(arrays=[np.ones((2, 2))]),
        segment(arrays=[np.ones(2, dtype=">f8")]),
        segment(arrays=(np.ones(2),)),
        segment(phase="xx"),
        segment(step=1.5),
        segment(iteration=-1, bucket=2 ** 40),
        segment(extra="key"),
        segment(codec="fp16"),
    ], ids=[
        "ctx-extra-key", "ctx-other-node", "2d", "foreign-endian",
        "tuple", "phase", "float-step", "bucket-overflow", "extra-key",
        "meta-not-a-dict",
    ])
    def test_what_the_header_cannot_say_is_refused_at_the_sender(
        self, message
    ):
        with pytest.raises(wire.WireError, match="ring segment"):
            wire.lean_segment_buffers(message, "w0")

    def test_sender_must_be_the_handshake_node(self):
        with pytest.raises(wire.WireError):
            wire.lean_segment_buffers(segment(), "w1")

    def test_strided_view_is_compacted(self):
        strided = np.arange(12.0)[::2]
        parsed = parse_lean(lean_bytes(segment(arrays=[strided])))
        np.testing.assert_array_equal(parsed.payload["data"][0], strided)

    def test_oversize_lean_frame_rejected_on_write(self):
        big = np.zeros(wire.MAX_FRAME_BYTES // 8 + 1)
        with pytest.raises(wire.WireError, match="exceeds"):
            wire.lean_segment_buffers(segment(arrays=[big]), "w0")

    @pytest.mark.parametrize("kind,itemsize", [
        (ord("O"), 8), (ord("S"), 0), (ord("V"), 0), (ord("x"), 8),
        (200, 8), (ord("f"), 3),
    ])
    def test_bad_dtype_code_is_a_wire_error(self, kind, itemsize):
        blob = bytearray(lean_bytes(segment()))
        blob[56:58] = bytes([kind, itemsize])
        with pytest.raises(wire.WireError):
            parse_lean(bytes(blob))

    def test_body_shorter_than_the_array_table_says(self):
        blob = lean_bytes(segment())
        client, accepted = socket_pair()
        try:
            client.sendall(blob[:-8])
            client.close()
            with pytest.raises(wire.WireError, match="mid-frame"):
                wire.read_frame(accepted, lean_sender="w0")
        finally:
            accepted.close()

    def test_lean_frame_needs_a_negotiated_pipe(self):
        client, accepted = socket_pair()
        try:
            client.sendall(lean_bytes(segment()))
            # The handshake itself is read with no sender to name.
            with pytest.raises(wire.WireError, match="before the handshake"):
                wire.read_frame(accepted)
        finally:
            client.close()
            accepted.close()

    def test_socket_bodies_land_in_a_private_writable_buffer(self):
        client, accepted = socket_pair()
        try:
            wire.sendmsg_gather(
                client, wire.lean_segment_buffers(segment(), "w0")[0]
            )
            lean = wire.read_frame(accepted, lean_sender="w0")
            wire.write_frame(client, wire.message_frame(segment()))
            generic = wire.decode_message(
                wire.read_frame(accepted), borrowed=False
            )
        finally:
            client.close()
            accepted.close()
        for message in (lean, generic):
            (array,) = message.payload["data"]
            assert not message.borrowed
            assert array.flags.writeable and not array.flags.owndata
            np.testing.assert_array_equal(array, np.arange(6.0))

    def test_handshake_carries_no_format_keys(self):
        """Version 8 negotiates nothing: hello and welcome name the
        version and the node (and the AM's epoch), and that is all."""
        assert wire.PROTOCOL_VERSION == 8
        assert wire.hello_frame("w0") == {
            "kind": "hello", "version": 8, "node": "w0",
        }
        assert wire.welcome_frame("s") == {
            "kind": "welcome", "version": 8, "node": "s",
        }
        assert wire.welcome_frame("am", epoch=3)["epoch"] == 3

    def test_version_3_hello_is_rejected(self):
        """A version-3 peer frames SYNC and its mean as JSON."""
        with pytest.raises(wire.WireError, match="version mismatch"):
            wire.check_handshake(
                {"kind": "hello", "version": 3, "node": "old-worker"}
            )

    def test_version_4_hello_is_rejected(self):
        """A version-4 worker would ignore the scaling decision in the
        commit directive and the join admission, and diverge."""
        with pytest.raises(wire.WireError, match="version mismatch"):
            wire.check_handshake(
                {"kind": "hello", "version": 4, "node": "old-worker"}
            )

    def test_version_5_hello_is_rejected(self):
        """A version-5 scheduler would send the ``resize`` message type,
        which no longer exists."""
        with pytest.raises(wire.WireError, match="version mismatch"):
            wire.check_handshake(
                {"kind": "hello", "version": 5, "node": "old-scheduler"}
            )

    def test_version_6_hello_is_rejected(self):
        """A version-6 uploader expects a ``restart`` reply after an AM
        takeover and cannot resend the seqs a ``state_done`` lists."""
        with pytest.raises(wire.WireError, match="version mismatch"):
            wire.check_handshake(
                {"kind": "hello", "version": 6, "node": "old-worker"}
            )

    def test_version_7_hello_is_rejected(self):
        """A version-7 worker ships lossless metric state and a clock
        offset; a version-7 client asks the AM for derived reports and
        rollups, which it no longer computes."""
        with pytest.raises(wire.WireError, match="version mismatch"):
            wire.check_handshake(
                {"kind": "hello", "version": 7, "node": "old-worker"}
            )


GRADS = {
    "w1": np.arange(12.0).reshape(3, 4),
    "b1": np.linspace(-1.0, 1.0, 4, dtype=np.float32),
    "steps": np.arange(5, dtype=np.int64),
    "flat": np.arange(7.0),
}
MEAN_CTX = {"node": "am", "epoch": 2, "recv": 10.25, "sent": 10.5}


def sync(grads=GRADS, ring_fallback=False, job=None, post=False, ctx=None,
         **extra):
    """A ``SYNC`` as ``WorkerAgent._star_sync`` + ``ReliableLink`` build it."""
    payload = {"generation": 3, "iteration": 41, "grads": grads, **extra}
    if ring_fallback:
        payload["ring_fallback"] = True
    if ctx is None:
        ctx = {"node": "w0", "epoch": 77, "sent": 1.5}
        if job is not None:
            ctx = {"job": job, **ctx}
    payload[wire.TRACE_CTX_KEY] = ctx
    return MessageFactory(epoch=5).make(MessageType.SYNC, "w0", payload, post)


def sync_with(**payload):
    """A :func:`sync` whose payload also holds ``payload``."""
    message = sync()
    message.payload.update(payload)
    return message


def frame_bytes(buffers, total):
    blob = b"".join(bytes(wire._flat_view(b)) for b in buffers)
    assert len(blob) == total
    return blob


def sync_bytes(message):
    return frame_bytes(*wire.lean_sync_buffers(message, "w0"))


def mean_bytes(grads=GRADS, members=4, ctx=MEAN_CTX):
    payload = {"grads": grads, "members": members}
    return frame_bytes(*wire.lean_mean_buffers(9, payload, ctx))


def plain(obj):
    """``obj`` with arrays and buffers as comparable values."""
    if isinstance(obj, np.ndarray):
        return ("ndarray", obj.dtype.str, obj.shape, obj.tobytes())
    if isinstance(obj, (bytes, bytearray, memoryview)):
        return bytes(obj)
    if isinstance(obj, dict):
        return {key: plain(value) for key, value in obj.items()}
    if isinstance(obj, list):
        return [plain(item) for item in obj]
    return obj


def over_socket(blob):
    writer, reader = socket.socketpair()
    try:
        writer.sendall(blob)
        writer.close()
        frame = wire.read_frame(reader, lean_sender="w0")
        assert wire.read_frame(reader) is None  # nothing left behind
        return frame
    finally:
        reader.close()


def through_shm(blob, check):
    ring = ShmRing(capacity=1 << 16)
    try:
        ring.write([blob])
        check(decode_shm_frame(ring.read(), lean_sender="w0"))
        ring.advance()
    finally:
        ring.close(unlink=True)


def assert_same_grads(got, want):
    if want is None:
        assert got is None
        return
    assert list(got) == list(want)
    for name, array in want.items():
        assert got[name].dtype == array.dtype
        assert got[name].shape == array.shape
        assert got[name].tobytes() == array.tobytes()


class TestLeanSyncFrames:
    """``SYNC`` and its mean reply as lean frames (protocol version 4)."""

    @pytest.mark.parametrize("pipe", ["socket", "shm"])
    @pytest.mark.parametrize("grads", [GRADS, None, {}], ids=["grads", "none", "empty"])
    @pytest.mark.parametrize("ring_fallback", [False, True])
    @pytest.mark.parametrize("job", [None, "j1"])
    def test_sync_round_trip(self, pipe, grads, ring_fallback, job):
        message = sync(grads, ring_fallback=ring_fallback, job=job)

        def check(parsed):
            assert (parsed.msg_id, parsed.msg_type, parsed.sender) == (
                message.msg_id, MessageType.SYNC, "w0"
            )
            assert parsed.post is False
            assert parsed.borrowed is (pipe == "shm")
            got, want = dict(parsed.payload), dict(message.payload)
            assert_same_grads(got.pop("grads"), want.pop("grads"))
            assert got == want
            assert list(got) == list(want)

        blob = sync_bytes(message)
        if pipe == "socket":
            check(over_socket(blob))
        else:
            through_shm(blob, check)

    @pytest.mark.parametrize("pipe", ["socket", "shm"])
    @pytest.mark.parametrize("grads", [GRADS, None], ids=["grads", "none"])
    def test_mean_round_trip(self, pipe, grads):
        def check(frame):
            payload = frame.pop("payload")
            assert frame == {
                "kind": "reply", "node": "am", "in_reply_to": 9,
                "ctx": MEAN_CTX,
            }
            assert payload["members"] == 4
            assert_same_grads(payload["grads"], grads)

        blob = mean_bytes(grads)
        if pipe == "socket":
            check(over_socket(blob))
        else:
            through_shm(blob, check)

    def test_post_flag_and_strided_and_fortran_arrays(self):
        grads = {
            "strided": np.arange(12.0)[::3],
            "fortran": np.asfortranarray(np.arange(6.0).reshape(2, 3)),
            "scalar": np.array(2.5),
        }
        parsed = over_socket(sync_bytes(sync(grads, post=True)))
        assert parsed.post is True
        assert_same_grads(
            parsed.payload["grads"],
            {k: np.array(v, order="C") for k, v in grads.items()},
        )

    def test_head_carries_no_json(self):
        blob = sync_bytes(sync(job="j1"))
        (length,) = wire._LENGTH.unpack_from(blob)
        assert length >> 28 & 3 == wire.LEAN_SYNC
        head = blob[4:4 + (length & wire._LEAN_HEAD_MASK)]
        assert wire._SYNC_HEADER.size == 45
        assert b"{" not in head and b"w0" not in head and b"j1" in head

    def test_ring_segment_prefix_is_unchanged(self):
        blob = lean_bytes(segment())
        (length,) = wire._LENGTH.unpack_from(blob)
        assert length == wire.BINARY_FLAG | wire.LEAN_FLAG | (52 + 10)

    @pytest.mark.parametrize("message", [
        sync(ctx={"node": "w0", "epoch": 1, "sent": 0.5, "extra": 1}),
        sync(ctx={"node": "w9", "epoch": 1, "sent": 0.5}),
        sync(ctx={"node": "w0", "sent": 0.5}),
        sync(ctx={"job": 7, "node": "w0", "epoch": 1, "sent": 0.5}),
        sync(extra="key"),
        sync_with(ring_fallback=False),
        sync(grads=[np.ones(2)]),
        sync(grads={"w": [1.0, 2.0]}),
        sync(grads={"w": np.array([object()])}),
        sync(grads={"w": np.ones(2, dtype=">f8")}),
        sync(grads={"w": np.array(["a"])}),
        sync(grads={1: np.ones(2)}),
        sync(grads={"x" * 70000: np.ones(2)}),
        sync(generation=1.5),
        sync(ctx={"node": "w0", "epoch": -1, "sent": 0.5}),
    ], ids=[
        "ctx-extra-key", "ctx-other-node", "ctx-no-epoch", "job-not-str",
        "extra-key", "fallback-false", "grads-list", "array-a-list",
        "object-dtype", "foreign-endian", "string-dtype", "name-not-str",
        "name-too-long", "float-generation", "negative-epoch",
    ])
    def test_what_the_sync_header_cannot_say_is_refused_at_the_sender(
        self, message
    ):
        with pytest.raises(wire.WireError, match="sync"):
            wire.lean_sync_buffers(message, "w0")

    def test_sync_without_grads_key_is_refused(self):
        message = sync()
        del message.payload["grads"]
        with pytest.raises(wire.WireError, match="sync"):
            wire.lean_sync_buffers(message, "w0")

    def test_sync_sender_must_be_the_handshake_node(self):
        with pytest.raises(wire.WireError):
            wire.lean_sync_buffers(sync(), "w1")

    @pytest.mark.parametrize("payload,ctx", [
        ({"grads": None, "members": 2, "extra": 1}, MEAN_CTX),
        ({"grads": None}, MEAN_CTX),
        ({"grads": None, "members": 2.5}, MEAN_CTX),
        ({"grads": [np.ones(2)], "members": 2}, MEAN_CTX),
        ({"grads": None, "members": 2}, {"node": "am", "epoch": 1}),
        ({"grads": None, "members": 2}, dict(MEAN_CTX, node=None)),
        ({"__error__": "boom"}, MEAN_CTX),
    ], ids=[
        "extra-key", "no-members", "float-members", "grads-list",
        "ctx-short", "node-not-str", "error",
    ])
    def test_what_the_mean_header_cannot_say_is_refused(self, payload, ctx):
        with pytest.raises(wire.WireError, match="reply to sync"):
            wire.lean_mean_buffers(9, payload, ctx)

    @pytest.mark.parametrize("build", [
        lambda big: wire.lean_sync_buffers(sync({"w": big}), "w0"),
        lambda big: wire.lean_mean_buffers(
            9, {"grads": {"w": big}, "members": 2}, MEAN_CTX
        ),
    ], ids=["sync", "mean"])
    def test_oversize_frame_rejected_on_write(self, build):
        big = np.zeros(wire.MAX_FRAME_BYTES // 8 + 1)
        with pytest.raises(wire.WireError, match="exceeds"):
            build(big)


def shm_parse(blob):
    return decode_shm_frame(memoryview(blob), lean_sender="w0")


def patched(blob, offset, fmt, value):
    blob = bytearray(blob)
    struct.pack_into(fmt, blob, offset, value)
    return bytes(blob)


def with_head(blob, head, body=b""):
    """``blob``'s prefix (kind kept) measuring ``head`` instead."""
    (length,) = wire._LENGTH.unpack_from(blob)
    prefix = length & ~wire._LEAN_HEAD_MASK | len(head)
    return wire._LENGTH.pack(prefix) + head + body


def head_and_body(blob):
    (length,) = wire._LENGTH.unpack_from(blob)
    head_len = length & wire._LEAN_HEAD_MASK
    return blob[4:4 + head_len], blob[4 + head_len:]


#: Offset of the first array record in ``sync_bytes(sync())``: prefix,
#: fixed header, no job text.
FIRST_RECORD = 4 + 45


class TestLeanSyncHardening:
    """A corrupt lean SYNC or mean is a ``WireError``, never a numpy or
    struct error, and nothing is allocated for a body that cannot be."""

    @pytest.mark.parametrize("blob", [
        sync_bytes(sync()), sync_bytes(sync(None, job="j1")), mean_bytes(),
    ], ids=["sync", "sync-no-grads", "mean"])
    def test_every_truncated_head_is_a_wire_error(self, blob):
        head, _ = head_and_body(blob)
        for cut in range(len(head)):
            with pytest.raises(wire.WireError):
                shm_parse(with_head(blob, head[:cut]))

    @pytest.mark.parametrize("kind,itemsize", [
        (ord("O"), 8), (ord("S"), 0), (ord("V"), 0), (ord("x"), 8),
        (200, 8), (ord("f"), 3),
    ])
    def test_bad_dtype_code_is_a_wire_error(self, kind, itemsize):
        blob = bytearray(sync_bytes(sync()))
        blob[FIRST_RECORD + 2:FIRST_RECORD + 4] = bytes([kind, itemsize])
        with pytest.raises(wire.WireError):
            shm_parse(bytes(blob))

    @pytest.mark.parametrize("offset,fmt,value", [
        (FIRST_RECORD, ">H", 0xFFFF),          # name runs past the head
        (FIRST_RECORD + 4, ">B", 200),         # shape runs past the head
        (4 + 43, ">H", 0xFFFF),                # text runs past the head
        (4 + 41, ">H", 60),                    # more records than the head
        (4 + 41, ">H", 1),                     # fewer records than the head
    ], ids=["name", "shape", "text", "more-arrays", "fewer-arrays"])
    def test_table_that_overruns_is_a_wire_error(self, offset, fmt, value):
        with pytest.raises(wire.WireError):
            shm_parse(patched(sync_bytes(sync()), offset, fmt, value))

    def test_body_longer_or_shorter_than_the_table_is_a_wire_error(self):
        blob = sync_bytes(sync())
        for wrong in (blob + b"\0" * 8, blob[:-8]):
            with pytest.raises(wire.WireError, match="disagrees"):
                shm_parse(wrong)
        writer, reader = socket.socketpair()
        try:
            writer.sendall(blob[:-8])
            writer.close()
            with pytest.raises(wire.WireError, match="mid-frame"):
                wire.read_frame(reader, lean_sender="w0")
        finally:
            reader.close()

    def test_table_over_the_frame_limit_asks_for_no_body(self):
        grads = {"w": np.ones(2)}
        head, _ = head_and_body(sync_bytes(sync(grads)))
        # the one record's single dimension: 2 -> 2**40 elements
        head = patched(head, 45 + 5, ">Q", 2 ** 40)

        def body_of(nbytes):
            raise AssertionError(f"asked for a {nbytes}-byte body")

        with pytest.raises(wire.WireError, match="exceeds"):
            wire.parse_lean_sync(head, body_of, "w0", borrowed=True)

    def test_impossible_shape_is_a_wire_error(self):
        grads = {"w": np.ones((0, 2))}
        blob = sync_bytes(sync(grads))
        # 0 x 2**63: no bytes, but no array numpy can shape either
        blob = patched(blob, FIRST_RECORD + 5 + 8, ">Q", 2 ** 63)
        with pytest.raises(wire.WireError, match="impossible"):
            shm_parse(blob)

    def test_one_name_twice_is_a_wire_error(self):
        blob = sync_bytes(sync({"a": np.ones(1), "b": np.ones(1)}))
        # each record: 5 bytes, one u64 dimension, a one-letter name
        second_name = FIRST_RECORD + 14 + 13
        assert blob[second_name:second_name + 1] == b"b"
        blob = patched(blob, second_name, ">B", ord("a"))
        with pytest.raises(wire.WireError, match="twice"):
            shm_parse(blob)

    @pytest.mark.parametrize("blob,offset", [
        (sync_bytes(sync()), 4 + 8), (mean_bytes(), 4 + 8),
    ], ids=["sync", "mean"])
    def test_unknown_flags_are_a_wire_error(self, blob, offset):
        with pytest.raises(wire.WireError, match="flags"):
            shm_parse(patched(blob, offset, ">B", 0x80))

    def test_no_grads_flag_with_a_table_is_a_wire_error(self):
        with pytest.raises(wire.WireError, match="flags"):
            shm_parse(patched(sync_bytes(sync()), 4 + 8, ">B", 4))

    def test_unknown_lean_kind_is_a_wire_error(self):
        blob = sync_bytes(sync())
        (length,) = wire._LENGTH.unpack_from(blob)
        blob = wire._LENGTH.pack(length | 3 << 28) + blob[4:]
        with pytest.raises(wire.WireError, match="kind"):
            shm_parse(blob)
        with pytest.raises(wire.WireError, match="kind"):
            over_socket(blob)


class TestOneSegmentCodec:
    """Socket frames, shm records and state blobs share one codec: the
    same bytes parse to the same value on every reader that applies,
    and a body that disagrees with its table fails on each."""

    STATE = {
        "params": {"w": np.arange(12.0).reshape(3, 4),
                   "b": np.zeros(4, np.float32)},
        "optimizer": {"step": np.int64(9), "moments": [np.ones(2), b"raw"]},
        "iteration": 41, "note": "bücket",
    }

    @pytest.mark.parametrize("frame", [
        {"kind": "reply", "in_reply_to": 9, "payload": {"ok": True}},
        {"kind": "msg", "msg_id": 3, "payload": STATE},
    ], ids=["plain", "binary"])
    def test_socket_and_shm_read_a_frame_alike(self, frame):
        framed = frame_bytes(*wire.frame_buffers(frame))
        via_socket = plain(over_socket(framed))
        assert via_socket == plain(shm_parse(framed))
        assert via_socket["payload"] == plain(wire.decode_payload(
            wire.encode_payload(frame["payload"])
        ))

    def test_a_state_blob_is_a_binary_frame_but_for_its_prefix(self):
        blob = StateBlob.encode(self.STATE).tobytes()
        (header_len,) = wire._LENGTH.unpack_from(blob)
        framed = wire._LENGTH.pack(wire.BINARY_FLAG | header_len) + blob[4:]
        state = plain(decode_state_blob(blob))
        assert plain(over_socket(framed))["state"] == state
        assert plain(shm_parse(framed))["state"] == state
        assert state["params"]["w"] == plain(self.STATE["params"]["w"])

    def test_a_body_that_disagrees_fails_on_every_reader(self):
        blob = StateBlob.encode(self.STATE).tobytes()
        framed = frame_bytes(*wire.frame_buffers(
            {"kind": "msg", "payload": self.STATE}
        ))
        for parse, data in ((shm_parse, framed), (decode_state_blob, blob)):
            for wrong in (data[:-1], data + b"\0"):
                with pytest.raises(wire.WireError, match="disagrees"):
                    parse(wrong)
        with pytest.raises(wire.WireError, match="mid-frame"):
            over_socket(framed[:-1])
