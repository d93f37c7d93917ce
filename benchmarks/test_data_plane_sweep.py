"""Payload-size sweep of the binary data plane on its three paths.

A message holding arrays travels as a binary frame — a JSON header plus
the arrays' own buffers, rebuilt as ``np.frombuffer`` views on the far
side (there is no other form).  This sweep measures
serialization+transfer for payloads from 1 KB to 64 MB on each side of
the transport seam:

* ``memory`` — the state-blob path without a socket: the gather list
  over live buffers, the one contiguous copy a receiver makes, decoded
  views.
* ``tcp``    — a real loopback-TCP round trip through
  ``write_frame``/``read_frame`` including decode on the far side.
* ``shm``    — the same binary frame through a shared-memory ring
  buffer: one copy into the ring, ``np.frombuffer`` views out.

``BandwidthProfile.measured_loopback`` cites these rows (64 MB frames
for peak bandwidth, 1 KB frames for latency).  The shm bar: shipping
the binary frame through the ring is no slower than shipping it over
loopback TCP at the acceptance size.
"""

import socket
import threading
import time

import numpy as np
from conftest import fmt_row

from repro.coordination.messages import MessageFactory, MessageType
from repro.net import ShmRing, StateBlob, decode_state_blob
from repro.net import wire
from repro.net.shm import decode_shm_frame

SIZES = (
    ("1KB", 1_000),
    ("64KB", 64_000),
    ("1MB", 1_000_000),
    ("16MB", 16_000_000),
    ("64MB", 64_000_000),
)

ACCEPTANCE_SIZE = "16MB"

PATHS = ("memory", "tcp", "shm")


def make_state(nbytes):
    return {"params": {"w": np.arange(nbytes // 8, dtype=np.float64)}}


def timed(fn, repeats=3):
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


# -- memory path: serialize + deserialize, no socket --------------------------


def memory_round_trip(state):
    """Encode via the blob path (gather list over live buffers), make
    the one contiguous copy a receiver would, and decode views."""
    def run():
        blob = StateBlob.encode(state)
        data = bytearray(blob.total_bytes)
        offset = 0
        for seq in range(blob.total_chunks):
            chunk = blob.chunk(seq)
            data[offset:offset + len(chunk)] = chunk
            offset += len(chunk)
        decoded = decode_state_blob(data)
        assert decoded["params"]["w"].nbytes == state["params"]["w"].nbytes
    return run


# -- tcp path: loopback socket round trip --------------------------------------


def loopback_pair():
    listener = socket.socket()
    listener.bind(("127.0.0.1", 0))
    listener.listen(1)
    client = socket.create_connection(listener.getsockname())
    accepted, _ = listener.accept()
    listener.close()
    for sock in (client, accepted):
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    return client, accepted


def tcp_round_trip(state):
    """One full message over loopback TCP: build the frame, write it,
    read and decode it on the far side.  Timed end to end."""
    factory = MessageFactory()

    def run():
        client, accepted = loopback_pair()
        try:
            result = {}

            def read():
                result["frame"] = wire.read_frame(accepted)

            reader = threading.Thread(target=read, daemon=True)
            reader.start()
            message = factory.make(MessageType.SYNC, "bench", state)
            wire.write_frame(client, wire.message_frame(message))
            reader.join(timeout=120)
            decoded = wire.decode_message(result["frame"])
            assert (
                decoded.payload["params"]["w"].nbytes
                == state["params"]["w"].nbytes
            )
        finally:
            client.close()
            accepted.close()

    return run


# -- shm path: binary frame through a shared-memory ring -----------------------


def shm_round_trip(state):
    """One full message through a :class:`ShmRing`: build the binary
    frame's buffer list, write it into the ring (the one copy), read the
    record back and decode ``np.frombuffer`` views out of it."""
    factory = MessageFactory()
    # Records must fit in half the ring (the no-wrap guarantee), with
    # headroom for the frame header.
    capacity = 2 * state["params"]["w"].nbytes + 1_000_000

    def run():
        ring = ShmRing(capacity=capacity)
        try:
            message = factory.make(MessageType.SYNC, "bench", state)
            buffers, _ = wire.frame_buffers(wire.message_frame(message))
            assert ring.write(buffers) > 0
            view = ring.read()
            decoded = wire.decode_message(decode_shm_frame(view))
            assert (
                decoded.payload["params"]["w"].nbytes
                == state["params"]["w"].nbytes
            )
            del decoded, view
            ring.advance()
        finally:
            ring.close(unlink=True)

    return run


def sweep():
    rows = []
    for label, nbytes in SIZES:
        state = make_state(nbytes)
        repeats = 3 if nbytes <= 1_000_000 else 1
        rows.append({
            "label": label,
            "memory": timed(memory_round_trip(state), repeats),
            "tcp": timed(tcp_round_trip(state), repeats),
            "shm": timed(shm_round_trip(state), repeats),
        })
    return rows


def test_data_plane_sweep(benchmark, save_result):
    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)

    widths = (6, 14, 14, 14)
    lines = [
        fmt_row(("Size", "mem bin (ms)", "tcp bin (ms)", "shm bin (ms)"), widths)
    ]
    for row in rows:
        lines.append(fmt_row(
            (row["label"], *(f"{row[path] * 1e3:.2f}" for path in PATHS)),
            widths,
        ))
    lines.append(
        "binary frames (JSON header + raw arrays), the only form; "
        "tcp and shm pay a fresh socket / ring per frame"
    )
    save_result("data_plane_sweep", lines)

    # The shm bar: the ring's single-copy path is no slower than the
    # loopback socket's two-copy path at the acceptance size.
    target = next(r for r in rows if r["label"] == ACCEPTANCE_SIZE)
    assert target["shm"] <= target["tcp"], (
        f"shm {target['shm'] * 1e3:.1f} ms vs "
        f"tcp {target['tcp'] * 1e3:.1f} ms at {ACCEPTANCE_SIZE}"
    )
