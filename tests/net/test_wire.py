"""Wire-format tests: framing, envelopes, binary and lean frames, handshake."""

import socket
import threading
import time

import numpy as np
import pytest

from repro.coordination.messages import MessageFactory, MessageType
from repro.net import wire


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
        its ``default`` hook; the header (and the segments behind it)
        must be exactly what ``split_buffers`` + ``encode_frame`` give."""
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
        header_obj, segments = wire.split_buffers(frame)
        header_obj["__segs__"] = [segment.nbytes for segment in segments]
        expected = wire.encode_frame(header_obj)
        buffers, total = wire.frame_buffers(frame)
        assert bytes(buffers[1]) == expected
        assert buffers[0] == wire._LENGTH.pack(
            wire.BINARY_FLAG | len(expected)
        )
        assert [bytes(b) for b in buffers[2:]] == [bytes(s) for s in segments]
        assert total == sum(len(bytes(b)) for b in buffers)
        assert wire.binary_frame_buffers(frame) == (buffers, total)

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
            header_obj, segments = wire.split_buffers({"kind": "msg", "a": array})
            header_obj["__segs__"] = [segments[0].nbytes - 4]  # lie
            header = wire.encode_frame(header_obj)
            client.sendall(wire._LENGTH.pack(wire.BINARY_FLAG | len(header)))
            client.sendall(header)
            client.sendall(bytes(segments[0])[:-4])
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
            wire.split_buffers({"bad": np.array([object()])})

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
        """Version 3 negotiates nothing: hello and welcome name the
        version and the node (and the AM's epoch), and that is all."""
        assert wire.PROTOCOL_VERSION == 3
        assert wire.hello_frame("w0") == {
            "kind": "hello", "version": 3, "node": "w0",
        }
        assert wire.welcome_frame("s") == {
            "kind": "welcome", "version": 3, "node": "s",
        }
        assert wire.welcome_frame("am", epoch=3)["epoch"] == 3
