"""Shared-memory peer transport tests: ring buffer, frames, reliability.

Every test asserts the no-leak invariant on the way out: after a clean
close — or a SIGKILL — no ``elanshm_*`` segment may survive in
``/dev/shm``.
"""

import glob
import os
import random
import resource
import signal
import subprocess
import sys
import textwrap
import threading
import time

import numpy as np
import pytest

from repro.coordination.messages import MessageType
from repro.net import (
    RingMailbox,
    RingNode,
    ServerCore,
    ShmPeerHost,
    ShmRing,
    TransportClosed,
)
from repro.net import shm, wire
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

    def test_drained_ring_rewinds_to_the_lap_start(self):
        """Once the consumer has released every record, the next record
        starts at offset 0 of a new lap as soon as it fits before the
        current position: a steady link reuses the pages it touched."""
        ring = ShmRing(capacity=4096)
        try:
            record = 4 + 300
            for cycle in range(50):
                payload = os.urandom(300)
                assert ring.write([payload]) == record
                # The record ends at ``record``, so it starts at 0.
                assert ring._head % ring.capacity == record
                assert ring._head // ring.capacity == cycle
                assert bytes(ring.read()) == payload
                ring.advance()
        finally:
            ring.close(unlink=True)

    def test_no_rewind_while_the_consumer_holds_or_lags(self):
        ring = ShmRing(capacity=4096)
        try:
            record = 4 + 300
            payloads = [os.urandom(300) for _ in range(4)]
            ring.write([payloads[0]])
            held = ring.read()  # read but not advanced
            ring.write([payloads[1]])
            assert ring._head % ring.capacity == 2 * record
            assert bytes(held) == payloads[0]
            del held
            ring.advance()
            # Lagging by one: payloads[1] is still unread.
            ring.write([payloads[2]])
            assert ring._head % ring.capacity == 3 * record
            for expected in payloads[1:3]:
                assert bytes(ring.read()) == expected
                ring.advance()
            # Drained: now the next record rewinds.
            ring.write([payloads[3]])
            assert ring._head % ring.capacity == record
            assert bytes(ring.read()) == payloads[3]
            ring.advance()
            assert ring.read(timeout=0.05) is None
        finally:
            ring.close(unlink=True)

    def test_records_from_another_process_arrive_intact_and_in_order(self):
        """A child creates a ring and writes 200 random-size records —
        skips, rewinds and full-ring waits included — while this process
        attaches and drains it."""
        count, seed = 200, 27
        script = textwrap.dedent(f"""
            import random, sys
            from repro.net.shm import ShmRing

            ring = ShmRing(capacity=1 << 16)
            print(ring.name, flush=True)
            rng = random.Random({seed})
            for _ in range({count}):
                payload = rng.randbytes(rng.randint(0, 20000))
                assert ring.write([payload], timeout=10.0) > 0
            sys.stdin.readline()
            ring.close(unlink=True)
        """)
        process = subprocess.Popen(
            [sys.executable, "-c", script], env=child_env(),
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )
        try:
            ring = ShmRing(name=process.stdout.readline().strip())
            try:
                rng = random.Random(seed)
                for index in range(count):
                    expected = rng.randbytes(rng.randint(0, 20000))
                    view = ring.read(timeout=10.0)
                    assert view is not None, index
                    got = bytes(view)
                    del view
                    ring.advance()
                    assert got == expected, index
            finally:
                ring.close()
            process.communicate("done\n", timeout=10.0)
            assert process.returncode == 0
        finally:
            if process.poll() is None:
                process.kill()
                process.wait(timeout=10.0)

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


class TestTrackerCalls:
    @pytest.mark.parametrize("error", [OSError, ValueError])
    def test_tracker_failures_are_best_effort(self, monkeypatch, error):
        from multiprocessing import resource_tracker

        def fail(name, rtype):
            raise error("tracker gone")

        monkeypatch.setattr(resource_tracker, "unregister", fail)
        shm._tracker_call("unregister", "elanshm_gone")

    def test_a_tracker_bug_propagates(self, monkeypatch):
        from multiprocessing import resource_tracker

        def buggy(name, rtype):
            raise TypeError("not a tracker failure")

        monkeypatch.setattr(resource_tracker, "register", buggy)
        with pytest.raises(TypeError, match="not a tracker failure"):
            shm._tracker_call("register", "elanshm_bug")


class TestPageReuse:
    def test_steady_ring_rounds_touch_no_fresh_pages(self):
        """Four ring nodes over one ShmPeerHost, 512 KiB gradients: once
        warm, a round reuses the ring pages earlier rounds touched.
        Appending every record to the 16 MiB lap instead puts each
        128 KiB segment on fresh tmpfs pages until the first wrap —
        ≈ 840 minor faults per round, ≈ 320 averaged over rounds 10–39
        on a 2-core x86 host, against ≈ 10 with the rewind."""
        rounds, workers = 40, ["w0", "w1", "w2", "w3"]
        host = ShmPeerHost()
        nodes, addrs = {}, {}
        # Long-lived member threads keep their malloc arenas warm, so
        # the count is the ring's pages and not thread start-up.
        start = threading.Barrier(len(workers) + 1, timeout=30.0)
        end = threading.Barrier(len(workers) + 1, timeout=30.0)
        errors, faults = [], []

        def member(worker, grads):
            try:
                for iteration in range(rounds):
                    start.wait()
                    nodes[worker].allreduce(0, iteration, grads)
                    end.wait()
            except Exception as exc:
                errors.append(exc)
                start.abort()
                end.abort()

        try:
            for worker in workers:
                mailbox = RingMailbox()
                addrs[worker] = host.serve(
                    ServerCore(mailbox.handle, node_id=f"{worker}/peer"),
                    worker,
                )
                nodes[worker] = RingNode(
                    worker, mailbox,
                    lambda addr, w=worker: host.connect(addr, node_id=w),
                    step_timeout=10.0,
                )
            ring = {
                "epoch": 0, "order": workers, "peers": addrs,
                "active_from": 0,
            }
            rng = np.random.default_rng(0)
            threads = []
            for worker in workers:
                nodes[worker].install(ring)
                grads = {"g": rng.standard_normal(1 << 16)}
                threads.append(threading.Thread(
                    target=member, args=(worker, grads), daemon=True
                ))
                threads[-1].start()
            for _ in range(rounds):
                before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
                start.wait()
                end.wait()
                after = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
                faults.append(after - before)
            for thread in threads:
                thread.join(timeout=30.0)
        finally:
            for node in nodes.values():
                node.close()
            host.close()
        assert not errors, errors
        assert not any(thread.is_alive() for thread in threads)
        steady = faults[10:]
        assert sum(steady) / len(steady) < 50, faults

