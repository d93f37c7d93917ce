"""The metric and workload catalog: the one place names are decided.

``BENCHMARK.json`` at the repository root must say exactly what this
module says (``run.py --check`` compares them); the README's table is
this catalog printed (``run.py --catalog``).
"""

from __future__ import annotations

import dataclasses

from .stats import HIGHER, LOWER

W1, W2, W3, W4 = (
    "star_tcp_churn", "ring_tcp_steady", "ring_shm_churn_sharded",
    "cluster_waves_mem",
)

#: name -> one-line reason (the ``why`` in BENCHMARK.json).
#:
#: Deviation on W4, recorded here and in every ledger (``DEVIATIONS``):
#: ISSUE 12 gives every workload one job shape and W4 64-iteration jobs.
#: W4's jobs are what ``ElasticJobRunner`` builds from a ``JobRequest``
#: (a 16-16-4 MLP at batch 32 -- a request carries no model shape), and
#: they run 256 iterations: a 64-iteration in-memory job is over in
#: ~50 ms, before a grow's joiner thread has polled JOIN, so the flips
#: landed anywhere and late joiners sat out their timeout.  With 256
#: iterations and pins at 96 / 176 every flip lands on its pin.
WORKLOADS = {
    W1: "4 workers, no peer mesh, 4->2->4 churn: every gradient byte and "
        "both state hand-offs cross wire, tcp, ServerCore and the AM; "
        "the ring does nothing, so ring work must show no change here",
    W2: "fixed 4 workers over TcpPeerHost, codec none: collective, peers "
        "and TCP peer links do the work and the AM sees only COORDINATE; "
        "chunk, commit and scheduler work must show no change here",
    W3: "the same churn over ShmPeerHost with 2 shard owners: shm records, "
        "ring re-formed at every commit, digest-addressed peer fan-in "
        "instead of AM upload/fetch",
    W4: "e-fifo ClusterScheduler with in-memory runners, waves of four "
        "small jobs under 4->8->4 capacity flips: no socket, no mesh, no "
        "ring; guards the in-memory path",
}

RUN_SECONDS = 32

#: departures from ISSUE 12's sketch; every ledger file carries them.
DEVIATIONS = (
    "cluster_waves_mem: jobs are ElasticJobRunner's own 16-16-4 MLP at "
    "batch 32 and run 256 iterations (pins 96/176), not the 256-248-8 "
    "shape and 64 iterations: shorter jobs end before a flip can land "
    "on a pin",
    "churn workloads run replication_window=1: the default pipelined "
    "upload races its own restart heuristic (about 1 job in 50 dies)",
    "the workload process is pinned to one core and every end-to-end "
    "sample is divided by the core's measured slowness over the "
    "sample's own interval (bench/hostspeed.py); raw values are stored "
    "beside the reported ones",
    "a peer link closed by its owner stays open until the job ends "
    "(proxies.TimedPeerHost): a leaving worker otherwise drops ring sends "
    "still in flight and about 1 shm churn job in 200 dies",
)


@dataclasses.dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str
    #: P proxy log | C count from public state | D isolated drive |
    #: E end to end (proxy log, whole job)
    source: str
    #: which end-to-end metric it should move, on which workloads.
    moves: str
    #: workloads whose code path bypasses the layer (it reads 0 there).
    zero_on: "tuple[str, ...]" = ()
    bound: "float | None" = None


#: No end-to-end bound may exceed this (ISSUE 12); ``--check`` and the
#: A/A verdict both hold the catalog to it.
BOUND_CAP = 0.10

#: Bounds come from the committed A/A ledger (baseline/AA_12.json), not
#: from hope: each is <= BOUND_CAP and must stay >= 2x the worst pairwise
#: disagreement of at least five quiet sets of identical code -- the
#: ledger's verdict says whether that held when it was taken.  A cell
#: that cannot get there gets more / shorter segments, never a wider
#: bound.
END_TO_END = (
    Metric("train_samples_per_s", "samples/s", HIGHER, "E",
           "what a user of the job sees; adjustments included", bound=0.10),
    Metric("iter_ms_p50", "ms", LOWER, "E",
           "steady iteration at the base group size", bound=0.10),
    Metric("setup_s", "s", LOWER, "E",
           "bring-up to the end of warm-up iteration 8", bound=0.10),
)

JOBS = (W1, W2, W3)
PER_LAYER = (
    Metric("training.step_ms_p50", "ms", LOWER, "D",
           "floor of iter_ms_p50 on W1-W3"),
    Metric("training.serial_samples_per_s", "samples/s", HIGHER, "D",
           "single-worker baseline of train_samples_per_s"),
    Metric("wire.encode_ms_per_mb", "ms/MB", LOWER, "D",
           "iter_ms_p50 W1, W2", (W4,)),
    Metric("wire.decode_ms_per_mb", "ms/MB", LOWER, "D",
           "iter_ms_p50 W1, W2", (W4,)),
    Metric("transport.memory_rtt_us_p50", "us", LOWER, "D",
           "train_samples_per_s W4", JOBS),
    Metric("transport.dedup_hits", "count", LOWER, "C",
           "watch: 0 on a clean run"),
    Metric("transport.retransmits", "count", LOWER, "C",
           "watch: 0 on a clean run"),
    Metric("tcp.rtt_us_p50", "us", LOWER, "D",
           "iter_ms_p50 W1, W2", (W4,)),
    Metric("tcp.bulk_mb_per_s", "MB/s", HIGHER, "D",
           "iter_ms_p50 W1, W2", (W4,)),
    Metric("shm.rtt_us_p50", "us", LOWER, "D",
           "iter_ms_p50 W3", (W1, W2, W4)),
    Metric("shm.bulk_mb_per_s", "MB/s", HIGHER, "D",
           "iter_ms_p50 W3", (W1, W2, W4)),
    Metric("shm.leaked_segments", "count", LOWER, "C",
           "must be 0", (W1, W2, W4)),
    Metric("peers.connect_ms_p50", "ms", LOWER, "P",
           "setup_s W2, W3; stalls W3", (W1, W4)),
    Metric("collective.allreduce_ms_p50", "ms", LOWER, "D",
           "iter_ms_p50 W2, W3", (W1, W4)),
    Metric("collective.segment_rtt_us_p50", "us", LOWER, "P",
           "iter_ms_p50 W2, W3", (W1, W4)),
    Metric("collective.segments_per_member_iter", "count", LOWER, "P",
           "iter_ms_p50 W2, W3", (W1, W4)),
    Metric("collective.peer_bytes_per_member_iter", "B", LOWER, "C",
           "~2*S*(N-1)/N; iter_ms_p50 W2, W3", (W1, W4)),
    Metric("collective.ring_iteration_share", "ratio", HIGHER, "C",
           "ring / all worker iterations: ~0.8 on W2 (4 star iterations "
           "before the ring installs, 1 closing), 0 on W1", (W1, W4)),
    Metric("collective.reform_ms_p50", "ms", LOWER, "P",
           "train_samples_per_s W3", (W1, W2, W4)),
    Metric("codecs.fp16_ms_per_mb", "ms/MB", LOWER, "D",
           "none today; kept for the codec-or-drop decision", (W1, W4)),
    Metric("codecs.int8_ms_per_mb", "ms/MB", LOWER, "D",
           "none today; kept for the codec-or-drop decision", (W1, W4)),
    Metric("master.sync_wait_ms_p50", "ms", LOWER, "P",
           "iter_ms_p50 W1", (W4,)),
    Metric("master.sync_barrier_spread_ms_p50", "ms", LOWER, "P",
           "iter_ms_p50 W1", (W4,)),
    Metric("master.reduce_ms_p50", "ms", LOWER, "D",
           "iter_ms_p50 W1", (W4,)),
    Metric("master.am_bytes_per_iter", "B", LOWER, "C",
           "2*N*S on the star, ~0 on a steady ring", (W4,)),
    Metric("master.msgs_per_iter", "count", LOWER, "C",
           "iter_ms_p50 W1"),
    Metric("master.coordinate_ms_p50", "ms", LOWER, "P",
           "iter_ms_p50 W1-W3", (W4,)),
    Metric("master.coord_overhead_permille", "permille", LOWER, "P",
           "Fig 14 analogue, target < 3", (W4,)),
    Metric("master.commit_ms_p50", "ms", LOWER, "C",
           "train_samples_per_s W1, W3", (W2, W4)),
    Metric("agent.scale_out_stall_ms_p50", "ms", LOWER, "P",
           "Fig 15 analogue; train_samples_per_s W1, W3", (W2, W4)),
    Metric("agent.scale_in_stall_ms_p50", "ms", LOWER, "P",
           "Fig 15 analogue; train_samples_per_s W1, W3", (W2, W4)),
    Metric("agent.join_ms_p50", "ms", LOWER, "P",
           "train_samples_per_s W1, W3", (W2, W4)),
    Metric("agent.iter_ms_tail", "ms", LOWER, "P",
           "train_samples_per_s everywhere"),
    Metric("chunks.state_fetch_ms_p50", "ms", LOWER, "P",
           "train_samples_per_s W1 (mono), W3 (fan-in)", (W2, W4)),
    Metric("chunks.upload_ms_p50", "ms", LOWER, "P",
           "train_samples_per_s W1, W3", (W2, W4)),
    Metric("chunks.fetch_mb_per_s", "MB/s", HIGHER, "P",
           "train_samples_per_s W1, W3", (W2, W4)),
    Metric("chunks.pending_polls_per_fetch", "count", LOWER, "P",
           "train_samples_per_s W1, W3", (W2, W4)),
    Metric("chunks.encode_ms_per_mb", "ms/MB", LOWER, "D",
           "stalls W1, W3", (W2, W4)),
    Metric("chunks.decode_ms_per_mb", "ms/MB", LOWER, "D",
           "stalls W1, W3", (W2, W4)),
    Metric("chunks.shard_fanin_mb_per_s", "MB/s", HIGHER, "D",
           "train_samples_per_s W3", (W1, W2, W4)),
    Metric("chunks.am_chunks_served", "count", LOWER, "C",
           "W1 only; 0 on W3 (fan-in bypasses the AM)", (W2, W3, W4)),
    Metric("chunks.replans", "count", LOWER, "C",
           "watch: 0 unless an owner died", (W1, W2, W4)),
    Metric("planner.plan_us_p50", "us", LOWER, "D",
           "stalls W1, W3 (small); W4", (W2,)),
    Metric("journal.append_us_p50", "us", LOWER, "D",
           "stalls W1, W3 (small); W4", (W2,)),
    Metric("journal.records_per_adjust", "count", LOWER, "C",
           "stalls W1, W3 (small); W4", (W2,)),
    Metric("cluster.admit_ms_p50", "ms", LOWER, "P",
           "train_samples_per_s W4 only", JOBS),
    Metric("cluster.resize_ms_p50", "ms", LOWER, "P",
           "train_samples_per_s W4 only", JOBS),
    Metric("cluster.step_ms_p50", "ms", LOWER, "P",
           "train_samples_per_s W4 only", JOBS),
    Metric("obs.trace_overhead_ratio", "ratio", LOWER, "P",
           "budget < 0.01; reported, not gated"),
    Metric("obs.spans_per_iter", "count", LOWER, "C",
           "cost of the program's own tracer"),
    Metric("proc.cpu_ms_per_iter", "ms", LOWER, "C", "cost watch"),
    Metric("proc.peak_rss_mb", "MB", LOWER, "C", "cost watch"),
    Metric("proc.threads_peak", "count", LOWER, "C", "cost watch"),
    Metric("harness.import_s", "s", LOWER, "C",
           "interpreter + imports; kept out of setup_s"),
    Metric("harness.host_factor", "ratio", LOWER, "C",
           "mean probe time of the run over the reference: the core that minute"),
)

BY_NAME = {m.name: m for m in END_TO_END + PER_LAYER}


def benchmark_json() -> dict:
    """What BENCHMARK.json must contain, key for key."""
    return {
        "command": ["python3", "bench/run.py"],
        "paths": ["bench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [
            {"name": name, "why": why} for name, why in WORKLOADS.items()
        ],
        "end_to_end": [
            {"name": m.name, "unit": m.unit, "better": m.better,
             "bound": m.bound}
            for m in END_TO_END
        ],
        "per_layer": [
            {"name": m.name, "unit": m.unit, "better": m.better}
            for m in PER_LAYER
        ],
    }


def markdown_table() -> str:
    """The catalog as the README prints it."""
    short = {W1: "W1", W2: "W2", W3: "W3", W4: "W4"}
    rows = ["| metric | unit | better | source | expected mover | reads 0 on |",
            "|---|---|---|---|---|---|"]
    for m in END_TO_END + PER_LAYER:
        rows.append(
            f"| `{m.name}` | {m.unit} | {m.better} | {m.source} | "
            f"{m.moves} | {', '.join(short[w] for w in m.zero_on) or '-'} |"
        )
    return "\n".join(rows)
