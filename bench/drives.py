"""Isolated drives: one public function of one layer, nothing else running.

Each drive calls the program's public API in a tight loop on this
thread (plus whatever threads the layer itself needs) and returns one
number.  They run after the jobs of a traced run, so no job competes
for the cores.  A workload only runs the drives of layers it uses; the
catalog says which read 0 where.
"""

from __future__ import annotations

import struct
import threading
import time

import numpy as np

from repro.coordination.messages import Message, MessageType
from repro.net import (
    Journal,
    RingMailbox,
    RingNode,
    ServerCore,
    ShmPeerHost,
    ShmServer,
    StateBlob,
    TcpPeerHost,
    TcpServer,
    decode_bucket,
    decode_state_blob,
    encode_bucket,
    memory_link,
    ring_reference_average,
    shm_link,
    tcp_link,
)
from repro.net import wire
from repro.net.chunks import ShardedFetcher, ShardStore
from repro.replication.planner import plan_replication
from repro.topology.builder import ServerSpec, build_node
from repro.topology.tree import DeviceKind, TopologyNode
from repro.training.architectures import mlp_architecture

from . import oracle, stats

MB = 1024.0 * 1024.0
_now = time.perf_counter


def _time(fn, repeats: int) -> "list[float]":
    samples = []
    for _ in range(repeats):
        t0 = _now()
        fn()
        samples.append(_now() - t0)
    return samples


def gradients(spec, members: int = 1, seed: int = 0):
    """Gradient-shaped float64 dicts for ``spec``'s model."""
    template = mlp_architecture(
        spec.input_dim, spec.hidden_dim, spec.num_classes
    ).init(spec.seed)
    rng = np.random.default_rng(seed)
    return [
        {k: rng.standard_normal(v.shape) for k, v in template.items()}
        for _ in range(members)
    ]


def _nbytes(grads) -> int:
    return sum(a.nbytes for a in grads.values())


# -- training ------------------------------------------------------------------


def training(spec, sizes) -> dict:
    steps = []
    t0 = _now()
    oracle.serial_replay(spec, sizes, timer=steps.append)
    wall = _now() - t0
    return {
        "training.step_ms_p50": stats.median(steps) * 1e3,
        "training.serial_samples_per_s":
            len(sizes) * spec.total_batch_size / wall,
    }


# -- wire ----------------------------------------------------------------------


def wire_codec(spec, repeats: int = 40) -> dict:
    """Encode / decode one SYNC-sized binary frame, no socket."""
    grads = gradients(spec)[0]
    message = Message(
        msg_id=1, msg_type=MessageType.SYNC, sender="w0",
        payload={"generation": 0, "iteration": 1, "grads": grads},
    )
    size_mb = _nbytes(grads) / MB

    def encode():
        buffers, _total = wire.binary_frame_buffers(
            wire.message_frame(message, raw=True)
        )
        return b"".join(buffers)

    blob = encode()

    def decode():
        (length,) = struct.unpack(">I", blob[:4])
        header_len = length & ~wire.BINARY_FLAG
        frame = wire.decode_frame(blob[4:4 + header_len])
        view = memoryview(blob)[4 + header_len:]
        segments, offset = [], 0
        for seg_len in frame.pop("__segs__"):
            segments.append(view[offset:offset + seg_len])
            offset += seg_len
        return wire.decode_message(wire.join_buffers(frame, segments))

    assert decode().payload["grads"]["w1"].shape == grads["w1"].shape
    return {
        "wire.encode_ms_per_mb":
            stats.median(_time(encode, repeats)) * 1e3 / size_mb,
        "wire.decode_ms_per_mb":
            stats.median(_time(decode, repeats)) * 1e3 / size_mb,
    }


# -- transports ----------------------------------------------------------------


def _echo_core() -> ServerCore:
    def echo(message):
        data = message.payload.get("data")
        # a copy: the shm transport hands out views that die with the record
        return {"echo": None if data is None else np.array(data)}

    return ServerCore(echo, node_id="echo")


def _link_numbers(link, prefix: str, small: int, bulk: int) -> dict:
    payload = np.zeros(int(MB) // 8)
    link.request(MessageType.STATUS, {})
    rtts = _time(lambda: link.request(MessageType.STATUS, {}), small)
    t0 = _now()
    for _ in range(bulk):
        link.request(MessageType.STATUS, {"data": payload})
    seconds = _now() - t0
    return {
        f"{prefix}.rtt_us_p50": stats.median(rtts) * 1e6,
        # each echo moves the megabyte out and back
        f"{prefix}.bulk_mb_per_s": 2 * bulk * payload.nbytes / MB / seconds,
    }


def memory_transport(repeats: int = 400) -> dict:
    link = memory_link(_echo_core(), "drive")
    try:
        rtts = _time(lambda: link.request(MessageType.STATUS, {}), repeats)
    finally:
        link.close()
    return {"transport.memory_rtt_us_p50": stats.median(rtts) * 1e6}


def tcp_transport(small: int = 300, bulk: int = 24) -> dict:
    server = TcpServer(_echo_core(), port=0).start()
    link, _ = tcp_link(server.host, server.port, "drive",
                       heartbeat_interval=None)
    try:
        return _link_numbers(link, "tcp", small, bulk)
    finally:
        link.close()
        server.close()


def shm_transport(small: int = 300, bulk: int = 24) -> dict:
    server = ShmServer(_echo_core()).start()
    link, _ = shm_link(server.path, "drive")
    try:
        return _link_numbers(link, "shm", small, bulk)
    finally:
        link.close()
        server.close()


# -- collective ----------------------------------------------------------------


def allreduce(spec, peer: str, members: int = 4, rounds: int = 6) -> dict:
    """``RingNode.allreduce`` in lockstep on the workload's peer host."""
    host = TcpPeerHost() if peer == "tcp" else ShmPeerHost()
    workers = [f"d{i}" for i in range(members)]
    grads = dict(zip(workers, gradients(spec, members)))
    nodes, addrs = {}, {}
    for worker in workers:
        mailbox = RingMailbox()
        core = ServerCore(mailbox.handle, node_id=f"{worker}/peer")
        addrs[worker] = host.serve(core, worker)
        nodes[worker] = RingNode(
            worker, mailbox,
            lambda addr, w=worker: host.connect(
                addr, node_id=w, ack_timeout=spec.ring_ack_timeout
            ),
            bucket_bytes=spec.ring_bucket_bytes, window=spec.ring_window,
            step_timeout=30.0,
        )
    ring = {"epoch": 0, "order": workers, "peers": addrs, "active_from": 0}
    for node in nodes.values():
        node.install(ring)
    samples: "list[float]" = []
    results, errors = {}, []
    barrier = threading.Barrier(members)

    def member(worker):
        try:
            for iteration in range(rounds):
                barrier.wait(timeout=60.0)
                t0 = _now()
                results[worker] = nodes[worker].allreduce(
                    0, iteration, grads[worker]
                )
                if worker == workers[0]:
                    samples.append(_now() - t0)
        except Exception as exc:  # surfaced below
            errors.append(repr(exc))
            barrier.abort()

    threads = [
        threading.Thread(target=member, args=(w,), daemon=True)
        for w in workers
    ]
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120.0)
    finally:
        for node in nodes.values():
            node.close()
        host.close()
    if errors:
        raise RuntimeError(f"allreduce drive failed: {errors}")
    reference = ring_reference_average([grads[w] for w in workers])
    for worker in workers:
        for name, array in reference.items():
            if results[worker][name].tobytes() != array.tobytes():
                raise RuntimeError("allreduce drive: mean differs")
    # the first round dials the peers; it is the warm-up
    return {"collective.allreduce_ms_p50": stats.median(samples[1:]) * 1e3}


def codecs(spec, repeats: int = 12) -> dict:
    views = [np.ravel(a) for a in gradients(spec)[0].values()]
    size_mb = sum(v.nbytes for v in views) / MB
    out = {}
    for codec in ("fp16", "int8"):
        def roundtrip():
            encoded = encode_bucket(codec, views)
            decode_bucket(encoded.data, encoded.meta)

        out[f"codecs.{codec}_ms_per_mb"] = (
            stats.median(_time(roundtrip, repeats)) * 1e3 / size_mb
        )
    return out


# -- master --------------------------------------------------------------------


def reduce(spec, members: int = 4, repeats: int = 20) -> dict:
    grads = gradients(spec, members)
    samples = _time(lambda: ring_reference_average(grads), repeats)
    return {"master.reduce_ms_p50": stats.median(samples) * 1e3}


# -- chunks --------------------------------------------------------------------


def _snapshot(spec) -> dict:
    params, velocity = gradients(spec, 2)
    return {
        "params": params,
        "optimizer": {"lr": spec.base_lr, "momentum": spec.momentum,
                      "velocity": velocity},
        "loader": {"epoch": 1, "position": 64},
    }


def chunk_codec(spec, repeats: int = 12) -> dict:
    state = _snapshot(spec)
    blob = StateBlob.encode(state, chunk_bytes=spec.chunk_bytes)
    data = blob.tobytes()
    size_mb = blob.total_bytes / MB
    encode = _time(
        lambda: StateBlob.encode(
            state, chunk_bytes=spec.chunk_bytes
        ).tobytes(),
        repeats,
    )
    decode = _time(lambda: decode_state_blob(data), repeats)
    return {
        "chunks.encode_ms_per_mb": stats.median(encode) * 1e3 / size_mb,
        "chunks.decode_ms_per_mb": stats.median(decode) * 1e3 / size_mb,
    }


class _RoundGate:
    """The AM's part of a sharded join: opens the round, serves nothing."""

    node_id = "joiner"

    def request(self, msg_type, payload=None, ack_timeout=None):
        if payload and (payload.get("probe") or payload.get("complete")):
            return {"ok": True, "open": True}
        raise RuntimeError("shard fan-in fell back to the AM")


def shard_fanin(spec, owners: int = 2, repeats: int = 6) -> dict:
    """Digest-addressed fan-in from ``owners`` ShardStores over shm."""
    host = ShmPeerHost()
    blob = StateBlob.encode(_snapshot(spec), chunk_bytes=spec.chunk_bytes)
    addrs = []
    try:
        for index in range(owners):
            store = ShardStore()
            store.register("drive/g1", blob)
            core = ServerCore(
                lambda m, s=store: s.handle_fetch(m.sender, m.payload),
                node_id=f"owner{index}/peer",
            )
            addrs.append(host.serve(core, f"owner{index}"))
        descriptor = blob.describe("drive/g1")
        shards = blob.shard_plan(owners)
        for shard in shards:
            shard["owner"] = f"owner{shard['index'] % owners}"
            shard["addr"] = addrs[shard["index"] % owners]
        descriptor["shards"] = shards

        def fetch():
            fetcher = ShardedFetcher(
                _RoundGate(),
                connect=lambda addr: host.connect(addr, node_id="joiner"),
                window=spec.replication_window, timeout=30.0,
            )
            fetcher.fetch(descriptor)

        samples = _time(fetch, repeats)
    finally:
        host.close()
    return {
        "chunks.shard_fanin_mb_per_s":
            blob.total_bytes / MB / stats.median(samples),
    }


# -- planner, journal ----------------------------------------------------------


def planner(fan_in: int, repeats: int = 100) -> dict:
    """``plan_replication`` for the churn's scale-out: 2 survivors, 2
    joiners, ~1 MB, on the flat one-GPU-per-node topology the AM uses
    (chained fan-out through the AM, or fan-in from the shard owners)."""
    cluster = TopologyNode(DeviceKind.CLUSTER, "drive")
    shape = ServerSpec(sockets=1, switches_per_socket=1, gpus_per_switch=1)
    gpus = [
        next(build_node(f"n{i}", spec=shape, parent=cluster).iter_gpus())
        for i in range(4)
    ]

    def plan():
        plan_replication(
            existing=gpus[:2], new=gpus[2:], gpu_bytes=int(MB), cpu_bytes=0,
            allow_chaining=fan_in <= 1, fan_in=fan_in,
        )

    return {"planner.plan_us_p50": stats.median(_time(plan, repeats)) * 1e6}


def journal(repeats: int = 2000) -> dict:
    log = Journal()
    samples = _time(
        lambda: log.append("ack", worker="w0", generation=1), repeats
    )
    log.close()
    return {"journal.append_us_p50": stats.median(samples) * 1e6}
