"""Shared-memory peer transport tests: ring buffer, frames, reliability.

Every test asserts the no-leak invariant on the way out: after a clean
close — or a SIGKILL — no ``elanshm_*`` segment may survive in
``/dev/shm``.
"""

import glob
import os
import signal
import subprocess
import sys
import textwrap
import threading
import time

import numpy as np
import pytest

from repro.coordination.messages import MessageType
from repro.net import ServerCore, ShmPeerHost, ShmRing, TransportClosed
from repro.net import wire
from repro.net.shm import (
    SHM_NAME_PREFIX,
    ShmServer,
    decode_shm_frame,
    shm_link,
)


def leaked_segments():
    return glob.glob(f"/dev/shm/{SHM_NAME_PREFIX}*")


def child_env():
    """The environment for a child process that imports ``repro``."""
    env = dict(os.environ)
    src_root = os.path.join(os.path.dirname(__file__), "..", "..", "src")
    env["PYTHONPATH"] = os.path.abspath(src_root)
    return env


@pytest.fixture(autouse=True)
def no_segment_leaks():
    before = set(leaked_segments())
    yield
    # Serve/read loops run at a 0.2 s poll cadence; give teardown one
    # full cycle before declaring a leak.
    deadline = time.monotonic() + 2.0
    while time.monotonic() < deadline:
        after = set(leaked_segments()) - before
        if not after:
            return
        time.sleep(0.05)
    assert not after, f"leaked shm segments: {sorted(after)}"


class TestShmRing:
    def test_write_read_round_trip(self):
        ring = ShmRing(capacity=4096)
        try:
            assert ring.write([b"hello", b" ", b"world"]) > 0
            # bytes() drops the ring view immediately: views must not
            # outlive advance()/close().
            assert bytes(ring.read()) == b"hello world"
            ring.advance()
            assert ring.read(timeout=0.05) is None
        finally:
            ring.close(unlink=True)

    def test_attach_sees_creators_records(self):
        ring = ShmRing(capacity=4096)
        other = ShmRing(name=ring.name)
        try:
            ring.write([b"x" * 100])
            assert bytes(other.read()) == b"x" * 100
            other.advance()
        finally:
            other.close()
            ring.close(unlink=True)

    def test_records_never_wrap(self):
        """A record near the lap end starts at offset 0 of the next lap,
        so every read() view is contiguous."""
        ring = ShmRing(capacity=1024)
        try:
            payloads = [os.urandom(300) for _ in range(20)]
            reader_done = []

            def reader():
                for expected in payloads:
                    view = ring.read(timeout=5.0)
                    assert view is not None
                    assert bytes(view) == expected
                    ring.advance()
                reader_done.append(True)

            thread = threading.Thread(target=reader, daemon=True)
            thread.start()
            for payload in payloads:
                assert ring.write([payload], timeout=5.0) > 0
            thread.join(timeout=10.0)
            assert reader_done
        finally:
            ring.close(unlink=True)

    def test_oversized_frame_rejected_loudly(self):
        ring = ShmRing(capacity=1024)
        try:
            with pytest.raises(wire.WireError, match="capacity"):
                ring.write([b"x" * 600])
        finally:
            ring.close(unlink=True)

    def test_write_into_closed_ring_returns_zero(self):
        ring = ShmRing(capacity=1024)
        other = ShmRing(name=ring.name)
        other.mark_closed()
        try:
            assert ring.write([b"data"]) == 0
            assert ring.read(timeout=0.05) is None
        finally:
            other.close()
            ring.close(unlink=True)

    def test_full_ring_blocks_until_advance(self):
        ring = ShmRing(capacity=256)
        try:
            assert ring.write([b"a" * 120]) > 0
            assert ring.write([b"b" * 100]) > 0
            # Full now: a third write must wait for the reader.
            assert ring.write([b"c" * 120], timeout=0.1) == 0
            assert bytes(ring.read()) == b"a" * 120
            ring.advance()
            assert ring.write([b"c" * 120], timeout=5.0) > 0
        finally:
            ring.close(unlink=True)

    def test_close_under_a_live_record_view_leaves_the_finaliser_nothing(
        self, monkeypatch
    ):
        """A record view still alive at ``close`` pins the mapping; the
        segment's finaliser must not try (and fail) to close it again."""
        import gc

        raised = []
        monkeypatch.setattr(
            sys, "unraisablehook", lambda hook: raised.append(hook.exc_value)
        )
        ring = ShmRing(capacity=4096)
        ring.write([b"x" * 16])
        view = ring.read()
        ring.close(unlink=True)
        del ring
        gc.collect()
        assert raised == []
        assert bytes(view) == b"x" * 16  # the mapping outlived the ring
        del view
        gc.collect()
        assert raised == []

    def test_double_close_and_double_unlink_tolerated(self):
        ring = ShmRing(capacity=1024)
        other = ShmRing(name=ring.name)
        ring.close(unlink=True)
        ring.close(unlink=True)
        other.close(unlink=True)


class TestShmFrames:
    def test_binary_frame_round_trips_through_a_ring(self):
        ring = ShmRing(capacity=1 << 20)
        try:
            arr = np.arange(777, dtype=np.float64)
            frame = wire.message_frame(
                wire.decode_message({
                    "kind": "msg", "type": "ack", "sender": "w0",
                    "msg_id": 1, "payload": {"grad": arr, "tag": "t"},
                })
            )
            ring.write(wire.frame_buffers(frame)[0])
            decoded = decode_shm_frame(ring.read())
            got = decoded["payload"]["grad"]
            assert np.array_equal(got, arr)
            # Zero-copy: the decoded array is a view into the ring.
            assert not got.flags.owndata
            del got, decoded  # release ring views before advance/close
            ring.advance()
        finally:
            ring.close(unlink=True)

    def test_corrupt_record_raises(self):
        ring = ShmRing(capacity=4096)
        try:
            ring.write([b"\x00\x00"])
            with pytest.raises(wire.WireError, match="prefix"):
                decode_shm_frame(ring.read())
            ring.advance()
        finally:
            ring.close(unlink=True)


@pytest.fixture
def shm_server():
    from repro.net.shm import _own_arrays

    # Handlers that retain payload data must copy it out of the ring
    # (decode_shm_frame's contract); ServerCore's reply cache would
    # otherwise pin ring views past the segment's lifetime.
    core = ServerCore(handler=lambda m: {"echo": _own_arrays(m.payload)})
    server = ShmServer(core).start()
    yield server
    server.close()


class TestShmTransport:
    def test_request_reply_with_arrays(self, shm_server):
        link, transport = shm_link(shm_server.path, "w0")
        try:
            arr = np.linspace(0.0, 1.0, 513)
            reply = link.request(MessageType.ACK, {"a": arr})
            assert np.array_equal(reply["echo"]["a"], arr)
            assert transport.server_node == "am"
            assert transport.frames_sent == 1
            assert shm_server.connections_accepted == 1
        finally:
            link.close()

    def test_handshake_without_segments_rejected(self, shm_server):
        import socket as socket_mod

        sock = socket_mod.socket(socket_mod.AF_UNIX, socket_mod.SOCK_STREAM)
        try:
            sock.connect(shm_server.path)
            wire.write_frame(sock, wire.hello_frame("w0"))
            answer = wire.read_frame(sock)
            assert answer["kind"] == "reject"
            assert "segments" in answer["reason"]
        finally:
            sock.close()
        assert shm_server.handshakes_rejected == 1

class TestShmPeerHost:
    def test_serve_connect_release(self):
        host = ShmPeerHost()
        core = ServerCore(handler=lambda m: {"ok": True})
        try:
            addr = host.serve(core, "w0")
            assert addr.startswith("shm://")
            link = host.connect(addr, "w1")
            assert link.request(MessageType.ACK, {})["ok"] is True
            link.close()
            host.release(addr)
            with pytest.raises(TransportClosed):
                host.connect(addr, "w1")
        finally:
            host.close()

    def test_tcp_fallback_for_remote_peers(self):
        from repro.net import TcpPeerHost

        shm_host = ShmPeerHost()
        tcp_host = TcpPeerHost()
        core = ServerCore(handler=lambda m: {"via": "tcp"})
        try:
            addr = tcp_host.serve(core, "w0")
            link = shm_host.connect(addr, "w1")
            assert link.request(MessageType.ACK, {})["via"] == "tcp"
            link.close()
        finally:
            tcp_host.close()
            shm_host.close()


class TestCrashCleanup:
    def test_sigkilled_client_leaves_no_segments(self, shm_server):
        """A worker SIGKILL'd mid-conversation must not leak segments:
        its resource tracker (or the surviving server) unlinks them."""
        script = textwrap.dedent(f"""
            import time
            from repro.coordination.messages import MessageType
            from repro.net.shm import shm_link

            link, _t = shm_link({shm_server.path!r}, "doomed")
            link.request(MessageType.ACK, {{"alive": True}})
            print("READY", flush=True)
            time.sleep(60)
        """)
        env = child_env()
        process = subprocess.Popen(
            [sys.executable, "-c", script], env=env,
            stdout=subprocess.PIPE, text=True,
        )
        try:
            line = process.stdout.readline()
            assert "READY" in line, line
            assert leaked_segments(), "client should hold live segments"
            process.send_signal(signal.SIGKILL)
            process.wait(timeout=10.0)
        finally:
            if process.poll() is None:
                process.kill()
                process.wait(timeout=10.0)
        # The autouse fixture polls the leak set on the way out; here we
        # just wait for the server's EOF probe to notice the death.
        deadline = time.monotonic() + 5.0
        while time.monotonic() < deadline and leaked_segments():
            time.sleep(0.05)
        assert not leaked_segments()

    def test_both_ends_of_one_process_unlink_at_once(self):
        """A server closing under live same-process links wakes both
        ends of every pair at once, and both unlink.  The resource
        tracker must see each name unregistered exactly once — a
        double unregister surfaces as a KeyError traceback on stderr."""
        script = textwrap.dedent("""
            import time
            from repro.coordination.messages import MessageType
            from repro.net import ServerCore, ShmServer, shm_link

            core = ServerCore(handler=lambda m: {"ok": True})
            for _ in range(4):
                server = ShmServer(core).start()
                links = [
                    shm_link(server.path, f"w{i}", capacity=1 << 16)[0]
                    for i in range(6)
                ]
                for link in links:
                    link.request(MessageType.ACK, {})
                server.close()
                time.sleep(0.2)
                for link in links:
                    link.close()
            time.sleep(0.3)
        """)
        env = child_env()
        done = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True,
            text=True, timeout=60.0,
        )
        assert done.returncode == 0, done.stderr
        assert "KeyError" not in done.stderr, done.stderr

