"""Gradient-plane sweep: star vs ring, across transports.

The PR-5 ring exists for one reason: the star plane funnels ``2·N·S``
gradient bytes through the AM every iteration (N uploads of S bytes, N
mean downloads), serializing the whole job's gradient traffic through
one process, while the ring moves ``2·S·(N-1)/N`` bytes per member over
direct peer links and the AM moves **zero**.  This sweep measures both
planes end to end — N worker threads per iteration, real reliable
links — and runs the ring over in-memory links, loopback TCP, and the
``shm://`` shared-memory ring-buffer transport for co-located workers.

The acceptance bars: ring AM bytes are exactly zero, the ring is
bit-identical to the star reference, and SHM beats loopback TCP at the
largest payload.
"""

import threading
import time

import numpy as np
from conftest import fmt_row

from repro.coordination.messages import MessageType
from repro.net import (
    JobSpec,
    MemoryPeerHost,
    NetworkedApplicationMaster,
    RingMailbox,
    RingNode,
    ServerCore,
    ShmPeerHost,
    TcpPeerHost,
    memory_link,
    ring_reference_average,
    tcp_link,
)
from repro.observability import MetricRegistry

WORKERS = 4
ITERATIONS = 5

SIZES = (
    ("64KB", 64_000),
    ("512KB", 512_000),
    ("2MB", 2_000_000),
)

RING_TRANSPORTS = ("memory", "tcp", "shm")


def make_grads(nbytes, seed):
    rng = np.random.default_rng(seed)
    return {"w": rng.standard_normal(nbytes // 8)}


def run_threads(fn, workers):
    errors = {}

    def wrapped(worker):
        try:
            fn(worker)
        except Exception as exc:  # pragma: no cover - surfaced below
            errors[worker] = exc

    threads = [
        threading.Thread(target=wrapped, args=(w,), daemon=True)
        for w in workers
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=120.0)
    assert not errors, errors


def star_plane(transport, nbytes):
    """N workers rendezvous at the AM for ITERATIONS iterations."""
    workers = [f"w{i}" for i in range(WORKERS)]
    spec = JobSpec(allreduce_timeout=60.0, ring_enabled=False)
    master = NetworkedApplicationMaster(spec, workers)
    server = master.serve_tcp() if transport == "tcp" else None
    grads = {w: make_grads(nbytes, seed=i) for i, w in enumerate(workers)}
    links = {}
    for worker in workers:
        if transport == "tcp":
            links[worker], _ = tcp_link(
                server.host, server.port, worker, ack_timeout=30.0,
                heartbeat_interval=None,
            )
        else:
            links[worker] = memory_link(
                master.core, worker, ack_timeout=30.0
            )
    try:
        started = time.perf_counter()

        def iterate(worker):
            for iteration in range(ITERATIONS):
                reply = links[worker].request(
                    MessageType.SYNC,
                    {"generation": 0, "iteration": iteration,
                     "grads": grads[worker]},
                )
                assert reply["grads"] is not None

        run_threads(iterate, workers)
        elapsed = time.perf_counter() - started
        am_bytes = master.metrics.snapshot()["net.sync.grad_bytes"]
    finally:
        for link in links.values():
            link.close()
        master.close()
    return {
        "sec_per_iter": elapsed / ITERATIONS,
        "am_bytes_per_iter": am_bytes / ITERATIONS,
    }


def make_host(transport):
    return {
        "memory": MemoryPeerHost,
        "tcp": TcpPeerHost,
        "shm": ShmPeerHost,
    }[transport]()


def ring_plane(transport, nbytes):
    """The same collective over direct peer links; the AM is not even
    instantiated — there is nothing for it to do."""
    workers = [f"w{i}" for i in range(WORKERS)]
    host = make_host(transport)
    metrics = MetricRegistry()
    grads = {w: make_grads(nbytes, seed=i) for i, w in enumerate(workers)}
    nodes, addrs = {}, {}
    for worker in workers:
        mailbox = RingMailbox(metrics=metrics)
        core = ServerCore(mailbox.handle, node_id=f"{worker}/peer")
        addrs[worker] = host.serve(core, worker)
        connect = (
            lambda addr, w=worker: host.connect(
                addr, node_id=w, ack_timeout=30.0
            )
        )
        nodes[worker] = RingNode(
            worker, mailbox, connect, step_timeout=60.0, metrics=metrics,
        )
    ring = {"epoch": 0, "order": workers, "peers": addrs, "active_from": 0}
    for node in nodes.values():
        node.install(ring)
    results = {}
    try:
        started = time.perf_counter()

        def iterate(worker):
            for iteration in range(ITERATIONS):
                results[worker] = nodes[worker].allreduce(
                    0, iteration, grads[worker]
                )

        run_threads(iterate, workers)
        elapsed = time.perf_counter() - started
        snap = metrics.snapshot()
    finally:
        for node in nodes.values():
            node.close()
        host.close()
    # Correctness oracle: the distributed mean is bit-identical to the
    # reference the star path would have served.
    reference = ring_reference_average([grads[w] for w in workers])
    for worker in workers:
        assert results[worker]["w"].tobytes() == reference["w"].tobytes()
    return {
        "sec_per_iter": elapsed / ITERATIONS,
        "am_bytes_per_iter": 0.0,  # no AM in the gradient path at all
        "peer_bytes_per_member_iter": (
            snap["net.allreduce.bytes_sent"] / WORKERS / ITERATIONS
        ),
    }


def sweep():
    rows = []
    for label, nbytes in SIZES:
        star = {t: star_plane(t, nbytes) for t in ("memory", "tcp")}
        ring = {t: ring_plane(t, nbytes) for t in RING_TRANSPORTS}
        rows.append({
            "label": label, "nbytes": nbytes, "star": star, "ring": ring,
        })
    return rows


def test_allreduce_sweep(benchmark, save_result):
    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)

    widths = (7, 12, 12, 12, 12, 12, 15)
    lines = [
        fmt_row(
            (
                "Size", "star-mem ms", "star-tcp ms",
                "ring-mem ms", "ring-tcp ms", "ring-shm ms", "peer B/mbr/it",
            ),
            widths,
        )
    ]
    for row in rows:
        star, ring = row["star"], row["ring"]
        lines.append(
            fmt_row(
                (
                    row["label"],
                    *(f"{star[t]['sec_per_iter'] * 1e3:.2f}"
                      for t in ("memory", "tcp")),
                    *(f"{ring[t]['sec_per_iter'] * 1e3:.2f}"
                      for t in RING_TRANSPORTS),
                    f"{ring['shm']['peer_bytes_per_member_iter']:.0f}",
                ),
                widths,
            )
        )
    lines.append(
        f"{WORKERS} workers, {ITERATIONS} iterations per cell; star AM "
        f"bytes = 2*N*S (N uploads + N mean downloads), ring AM bytes "
        f"= 0 by construction, ring peer bytes/member ~= 2*S*(N-1)/N; "
        f"every ring mean is bit-identical to the star reference"
    )
    save_result("allreduce_sweep", lines)

    for row in rows:
        nbytes = row["nbytes"]
        # Star: every iteration hauls ~2*N*S gradient bytes through the
        # AM (exactly 2*N*S of ndarray payload; wire framing is extra).
        for transport in ("memory", "tcp"):
            star_bytes = row["star"][transport]["am_bytes_per_iter"]
            assert star_bytes >= 2 * WORKERS * nbytes * 0.99, row["label"]
        for transport in RING_TRANSPORTS:
            ring = row["ring"][transport]
            # Ring: the AM sees zero gradient bytes.
            assert ring["am_bytes_per_iter"] == 0.0, row["label"]
            # And the bytes that do flow are spread across peer links
            # at the textbook 2*S*(N-1)/N per member.
            expected_peer = 2 * nbytes * (WORKERS - 1) / WORKERS
            peer = ring["peer_bytes_per_member_iter"]
            assert 0.9 * expected_peer <= peer <= 1.3 * expected_peer, (
                row["label"], transport, peer,
            )

    # The SHM acceptance bar: at the largest payload, shared-memory
    # links beat loopback TCP.
    largest = rows[-1]
    shm = largest["ring"]["shm"]["sec_per_iter"]
    tcp = largest["ring"]["tcp"]["sec_per_iter"]
    assert shm < tcp, (
        f"shm {shm * 1e3:.2f} ms/it not faster than tcp {tcp * 1e3:.2f} "
        f"ms/it at {largest['label']}"
    )
