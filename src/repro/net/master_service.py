"""The networked application master: §V-B over a real control plane.

:class:`NetworkedApplicationMaster` wraps the transport-free
:class:`~repro.coordination.master.ApplicationMaster` in a message
handler so an elastic job can run as N separate processes (or threads)
talking to the AM through :mod:`repro.net` links — in-memory or TCP,
identically.

The AM is also the gradient rendezvous: workers post their per-shard
gradients with ``SYNC`` and block until every member of their generation
contributed, then all receive the same server-computed mean.  Because
every replica starts from the same seed-initialized parameters and
applies identical averaged updates, replicas stay bit-identical — which
the final sha256 parameter digests assert end-to-end.

Adjustments follow Fig. 2 over the wire:

1. the driver sends ``ADJUSTMENT_REQUEST``;
2. joining workers poll ``JOIN`` (each poll doubles as the
   worker-report, idempotently) until the commit plan and the uploaded
   state snapshot are both ready;
3. existing workers ``COORDINATE`` at boundaries; the first ``adjust``
   directive mints the commit plan and elects the state uploader;
4. the uploader pushes its snapshot with ``STATE_UPLOAD``
   (replication), joiners receive it inside their ``join`` reply;
5. once every old-group member saw the directive and the snapshot is
   in, the adjustment is finished and the new generation is live.
"""

from __future__ import annotations

import dataclasses
import threading
import time
import typing

import numpy as np

from ..coordination.master import (
    AdjustmentKind,
    AdjustmentRequest,
    ApplicationMaster,
    DirectiveKind,
    MasterState,
)
from ..coordination.messages import Message, MessageType
from ..coordination.store import KeyValueStore
from ..coordination.telemetry import RuntimeTelemetry
from ..observability import FleetCollector, MetricRegistry
from ..replication.planner import plan_replication
from ..topology.builder import ServerSpec, build_node
from ..topology.tree import DeviceKind, TopologyNode
from ..training.nn import average_gradients
from .chunks import (
    DEFAULT_CHUNK_BYTES,
    ChunkAssembler,
    ChunkStore,
    _digest,
    shard_ranges,
)
from .collective import DEFAULT_RING_BUCKET_BYTES, ring_reference_average
from .journal import Journal, JournalError, JournalState
from .transport import ServerCore
from .wire import payload_nbytes


@dataclasses.dataclass(frozen=True)
class JobSpec:
    """Everything a worker needs to reconstruct the job locally.

    Shipped inside the ``join`` reply, so worker processes need no
    configuration beyond the AM's address and their own id.  The
    dataset and initial parameters are derived deterministically from
    the seed; only optimizer/loader/parameter state ever crosses the
    wire (and only at adjustments).
    """

    train_size: int = 512
    test_size: int = 128
    input_dim: int = 16
    hidden_dim: int = 16
    num_classes: int = 4
    seed: int = 7
    total_batch_size: int = 32
    base_lr: float = 0.05
    momentum: float = 0.9
    iterations: int = 24
    coordination_interval: int = 4
    #: server-side rendezvous wait — must cover the slowest member's
    #: arrival (including a joiner still fetching state at a commit).
    allreduce_timeout: float = 15.0
    #: simulated per-iteration compute time (seconds).  The numpy MLP
    #: steps in microseconds, so without pacing a whole job can finish
    #: before a scale-out's joiners even get their first poll in;
    #: examples and chaos tests use this to keep the job running while
    #: the adjustment plays out.
    iteration_sleep: float = 0.0
    #: client-side ack timeout per SYNC attempt.  Deliberately far below
    #: ``allreduce_timeout``: a dropped contribution must be resent while
    #: the other members are still waiting at the barrier, not after
    #: they have timed out.
    sync_ack_timeout: float = 2.0
    #: chunk size of the replication data plane; snapshots larger than
    #: this stream as multiple ``STATE_CHUNK`` messages.
    chunk_bytes: int = DEFAULT_CHUNK_BYTES
    #: how many chunk requests an uploader/fetcher keeps in flight.
    #: 1 = strictly serial (chaos tests use this to aim faults at exact
    #: chunk indices).
    replication_window: int = 4
    #: gradient plane: True routes per-iteration gradients over the
    #: decentralized ring (direct worker-peer links) once every member
    #: of a generation has a peer address; the star rendezvous stays as
    #: the pre-activation / degraded fallback path.  Workers without a
    #: peer host simply keep the whole job on the star path.
    ring_enabled: bool = True
    #: ring bucket size (bytes, element-aligned); one RING_SEGMENT per
    #: bucket per hop.
    ring_bucket_bytes: int = DEFAULT_RING_BUCKET_BYTES
    #: segments a ring node may have posted but not yet acknowledged.
    ring_window: int = 4
    #: how long a rank waits for one expected segment before declaring
    #: the ring degraded and falling back.
    ring_step_timeout: float = 2.0
    #: peer-link ack timeout (resend cadence between ring neighbours).
    ring_ack_timeout: float = 0.5
    #: gradient compression codec on the ring plane (``none`` | ``fp16``
    #: | ``int8``).  Negotiated per ring epoch: the value rides the ring
    #: payload the AM freezes at plan mint, so every member of an epoch
    #: agrees.  ``none`` (the default) keeps the ring bit-identical to
    #: the star path; a codec trades bounded, error-feedback-compensated
    #: precision for per-iteration ring bytes.
    ring_codec: str = "none"
    #: heartbeat-derived worker lease TTL (seconds).  0 disables lease
    #: tracking entirely — the default, so small tests and legacy jobs
    #: run without a supervisor thread.  With a TTL, any message or TCP
    #: heartbeat from a worker refreshes its lease; a worker whose lease
    #: expires is condemned and proactively evicted (scale-in) instead
    #: of stalling its generation's sync barriers until they time out.
    worker_lease_ttl: float = 0.0
    #: cadence of the lease supervisor's expiry sweep.
    lease_check_interval: float = 0.25
    #: live telemetry shipping cadence (seconds).  0 disables shipping —
    #: the default, so jobs without a fleet collector pay nothing.  With
    #: an interval, every worker periodically ships a bounded delta of
    #: its metric registry and trace-event buffer to the AM over a
    #: TELEMETRY message; the knob rides the join-reply spec, so setting
    #: it on the AM enables every worker.
    telemetry_interval: float = 0.0
    #: largest number of trace events per TELEMETRY delta (backpressure
    #: bound; the rest wait for the next tick).
    telemetry_max_events: int = 512
    #: largest unshipped trace-event backlog per worker; beyond it the
    #: oldest unshipped events are dropped (and counted) rather than
    #: letting a slow AM grow the shipper's cursor debt forever.
    telemetry_backlog: int = 4096
    #: sharded state migration: how many shard owners each adjustment
    #: elects among the survivors.  0 (the default) keeps the monolithic
    #: fan-out path: joiners pull the whole blob from the AM.  With
    #: ``k > 0`` the snapshot is cut into ``k`` contiguous digest-
    #: addressed shards, each owned by one survivor that freezes the
    #: (bit-identical) blob locally and serves its chunks over the peer
    #: mesh — joiners fan in from all owners concurrently.
    replication_shards: int = 0
    #: ZeRO-style sharded optimizer state: each worker persists only its
    #: rank's shard of the optimizer (velocity) state, so replication
    #: traffic per worker drops by 1/N; adjustments reshard the flat
    #: velocity space across the new world size at commit boundaries.
    zero_optimizer: bool = False

    @property
    def reply_wait(self) -> float:
        """Server-side wait for a duplicate of an in-flight request.

        Derived, not configured: a retransmission must be willing to
        wait out the longest legitimately-blocking handler — the sync
        rendezvous (``allreduce_timeout``) — plus slack, so the two
        timeouts cannot silently diverge.
        """
        return self.allreduce_timeout + 5.0

    def per_worker_batch(self, group_size: int) -> int:
        """Strong scaling: the total batch is split across the group."""
        return max(1, self.total_batch_size // max(1, group_size))

    def to_payload(self) -> dict:
        """Codec-safe dict form (for the ``join`` reply)."""
        return dataclasses.asdict(self)

    @classmethod
    def from_payload(cls, payload: dict) -> "JobSpec":
        """Inverse of :meth:`to_payload`."""
        fields = {f.name for f in dataclasses.fields(cls)}
        return cls(**{k: v for k, v in payload.items() if k in fields})


class _SyncBarrier:
    """One (generation, iteration) gradient rendezvous."""

    __slots__ = ("expected", "contributions", "collected", "event", "result")

    def __init__(self, expected: typing.Iterable[str]):
        self.expected = frozenset(expected)
        self.contributions: "dict[str, typing.Any]" = {}
        #: members whose handler call has returned the result — once all
        #: have, the barrier can be dropped (dedup means no member's
        #: handler runs twice, so nobody will need it again).
        self.collected: set = set()
        self.event = threading.Event()
        self.result: "dict | None" = None


class _CommitPlan:
    """Bookkeeping for one in-flight adjustment commit (steps 3-5)."""

    __slots__ = (
        "generation", "commit_iteration", "old_group", "new_group",
        "add_workers", "uploader", "snapshot", "acked", "requested_at",
        "transfer_id", "ring", "shard_spec",
    )

    def __init__(self, generation, commit_iteration, old_group, new_group,
                 requested_at):
        self.generation = generation
        self.commit_iteration = commit_iteration
        self.old_group = tuple(old_group)
        self.new_group = tuple(new_group)
        self.add_workers = tuple(
            w for w in new_group if w not in set(old_group)
        )
        # The first surviving old-group member replicates state to the
        # joiners; without joiners there is nothing to replicate.
        self.uploader = self.old_group[0] if self.add_workers else None
        self.snapshot: "dict | None" = None
        self.acked: set = set()
        self.requested_at = requested_at
        #: set once a chunked upload for this plan completed (the
        #: monolithic legacy path leaves it None).
        self.transfer_id: "str | None" = None
        #: the new generation's ring (order + peer addresses), frozen at
        #: mint time so every directive and offer ships the same mesh.
        self.ring: "dict | None" = None
        #: sharded-migration assignment frozen at mint time: the
        #: deterministic transfer id plus the elected shard owners
        #: (survivors with peer addresses).  None = monolithic fan-out.
        self.shard_spec: "dict | None" = None


class _Download:
    """One completed snapshot served chunk-by-chunk to joiners.

    The application master never decodes the blob — it verified the
    whole-blob digest at ``STATE_DONE`` and now serves byte ranges of
    it.  ``rounds`` carries the replication planner's ordering: a
    joiner's fetches are gated until every earlier-round joiner has
    pulled its last chunk, mirroring the plan's contention-free rounds.
    """

    __slots__ = (
        "blob", "total_bytes", "total_chunks", "chunk_bytes", "codec",
        "digest", "chunk_digests", "rounds", "progress", "generation",
        "shards",
    )

    def __init__(self, assembler, rounds: "dict[str, int]", generation: int):
        self.blob = memoryview(assembler.buffer)
        self.total_bytes = assembler.total_bytes
        self.total_chunks = assembler.total_chunks
        self.chunk_bytes = assembler.chunk_bytes
        self.codec = assembler.codec
        self.digest = _digest(assembler.buffer)
        self.chunk_digests = [
            _digest(self.chunk(seq)) for seq in range(self.total_chunks)
        ]
        self.rounds = dict(rounds)
        self.progress: "dict[str, set]" = {w: set() for w in rounds}
        self.generation = generation
        #: sharded mode: the shard plan (ranges + digests + owner + peer
        #: addr per shard), shipped verbatim in every joiner's offer.
        #: None = monolithic fan-out.
        self.shards: "list[dict] | None" = None

    def chunk(self, seq: int) -> memoryview:
        start = seq * self.chunk_bytes
        return self.blob[start:min(start + self.chunk_bytes, self.total_bytes)]

    def fetched(self, joiner: str) -> bool:
        return len(self.progress.get(joiner, ())) == self.total_chunks

    @property
    def complete(self) -> bool:
        return all(self.fetched(joiner) for joiner in self.rounds)

    def round_open(self, joiner: str) -> bool:
        mine = self.rounds[joiner]
        return all(
            self.fetched(other)
            for other, r in self.rounds.items()
            if r < mine
        )

    def describe(self, transfer_id: str, joiner: str) -> dict:
        """The ``state_transfer`` descriptor for one joiner's offer."""
        descriptor = {
            "transfer_id": transfer_id,
            "total_bytes": self.total_bytes,
            "total_chunks": self.total_chunks,
            "chunk_bytes": self.chunk_bytes,
            "codec": self.codec,
            "digest": self.digest,
            "round": self.rounds[joiner],
        }
        if self.shards is not None:
            descriptor["shards"] = [dict(shard) for shard in self.shards]
        return descriptor


def _fanout_rounds(
    sources: typing.Sequence[str], joiners: typing.Sequence[str],
    state_bytes: int, fan_in: int = 1,
) -> "dict[str, int]":
    """The replication planner's round index per joiner.

    Workers are modeled as single-GPU nodes of a flat cluster (every
    pair is an L4/NET hop whose path claims only the two endpoint
    NICs), so the planner's contention rules reduce to exactly the
    paper's: distinct node pairs copy concurrently, a shared source
    serializes, and chained fan-out lets round-``r`` joiners serve
    round ``r+1``.

    ``fan_in > 1`` models the sharded migration instead: each joiner
    pulls disjoint shards from up to ``fan_in`` sources at once, so the
    planner schedules per-joiner fan-in groups as units — same-round
    joiners never share an owner link (chaining is off; shard owners
    are elected among the survivors only).
    """
    cluster = TopologyNode(DeviceKind.CLUSTER, "netjob")
    spec = ServerSpec(sockets=1, switches_per_socket=1, gpus_per_switch=1)
    gpus = {}
    for worker in (*sources, *joiners):
        node = build_node(worker, spec=spec, parent=cluster)
        gpus[worker] = next(node.iter_gpus())
    plan = plan_replication(
        existing=[gpus[w] for w in sources],
        new=[gpus[w] for w in joiners],
        gpu_bytes=state_bytes,
        cpu_bytes=0,
        allow_chaining=fan_in <= 1,
        fan_in=fan_in,
    )
    rounds: "dict[str, int]" = {}
    for index, round_ in enumerate(plan.rounds):
        for transfer in round_:
            rounds[transfer.target.name.rsplit("/", 1)[0]] = index
    return rounds


class NetworkedApplicationMaster:
    """Message-driven AM + parameter rendezvous for multi-process jobs."""

    def __init__(
        self,
        spec: JobSpec,
        workers: typing.Sequence[str],
        job_id: str = "netjob",
        tracer: "typing.Any | None" = None,
        metrics: "MetricRegistry | None" = None,
        journal: "Journal | None" = None,
        clock: "typing.Callable[[], float] | None" = None,
        _replay: "JournalState | None" = None,
    ):
        self.spec = spec
        self.tracer = tracer
        self.metrics = metrics if metrics is not None else MetricRegistry()
        #: write-ahead journal (in-memory unless the caller hands in a
        #: file-backed one).  Every externally visible transition is
        #: appended *before* the reply that makes it observable, so a
        #: successor AM replaying the journal can never forget a
        #: commitment a worker might act on.
        self.journal = journal if journal is not None else Journal(
            metrics=self.metrics
        )
        self._clock = clock or time.monotonic
        self.am = ApplicationMaster(
            job_id,
            workers,
            coordination_interval=spec.coordination_interval,
            tracer=tracer,
        )
        self._lock = threading.RLock()
        self._generation = 0
        self._groups: "dict[int, tuple]" = {0: tuple(workers)}
        self._plan: "_CommitPlan | None" = None
        self._pending_request_at: "float | None" = None
        self._barriers: "dict[tuple, _SyncBarrier]" = {}
        self._join_offers: "dict[str, dict]" = {}
        #: worker id -> advertised peer-mesh address (from JOIN polls).
        self._peer_addrs: "dict[str, str]" = {}
        self._final: "dict[str, dict]" = {}
        self._departed: "dict[str, dict]" = {}
        self._latest_sync_iteration = 0
        self.commit_latencies: "list[float]" = []
        self._complete = threading.Event()
        self._chunks = ChunkStore(metrics=self.metrics)
        self._downloads: "dict[str, _Download]" = {}
        #: the last committed adjustment (journal ``commit`` shape) —
        #: kept so a retransmitted COORDINATE at the old commit boundary
        #: can be re-answered with the adjust directive after failover.
        self._last_commit: "dict | None" = None
        #: per-generation sync floor: the highest iteration any *fresh*
        #: SYNC arrived at.  A fresh sync below the floor belongs to a
        #: barrier the group already moved past (possible only after a
        #: failover lost the reply cache) and is answered with a
        #: retryable stale-barrier error instead of seeding a barrier
        #: that can never complete.
        self._sync_floors: "dict[int, int]" = {}
        #: boundary watermark already journaled (one ``progress`` record
        #: per boundary, not one per coordination).
        self._journaled_progress = 0
        #: condemned workers (lease expired) -> condemnation clock time.
        self._condemned: "dict[str, float]" = {}
        #: condemned workers whose eviction has not committed yet ->
        #: detection clock time (MTTR measurement start).
        self._recovering: "dict[str, float]" = {}
        self._fenced = False
        #: heartbeat-lease substrate (PR 1 semantics, injectable clock).
        self._leases = KeyValueStore(clock=clock)
        self.telemetry = RuntimeTelemetry(clock=clock, metrics=self.metrics)
        #: live fleet view fed by workers' TELEMETRY deltas.  Never
        #: journaled: a successor AM starts with an empty collector and
        #: every worker re-ships a full snapshot after re-enrollment,
        #: which rebuilds the view without bloating the write-ahead log.
        self.fleet = FleetCollector(job_id=job_id)
        self.core = ServerCore(
            handler=self.handle, node_id="am", tracer=tracer,
            reply_wait=spec.reply_wait,
            metrics=self.metrics,
            on_activity=self._on_activity,
        )
        self._server = None
        if _replay is None:
            self.epoch = 1
            self.journal.append(
                "init", job_id=job_id, spec=spec.to_payload(),
                workers=list(workers),
            )
            self.journal.append("epoch", epoch=self.epoch)
        else:
            # A successor incarnation: fence the predecessor out by
            # journaling a strictly higher epoch before acting on
            # anything it replayed.
            self.epoch = _replay.epoch + 1
            self.journal.append("epoch", epoch=self.epoch)
            self._restore(_replay)
        self.core.epoch = self.epoch
        self._lease_stop = threading.Event()
        self._lease_thread = None
        if spec.worker_lease_ttl > 0 and clock is None:
            self._lease_thread = threading.Thread(
                target=self._lease_loop, name="am-lease-supervisor",
                daemon=True,
            )
            self._lease_thread.start()

    # -- serving ---------------------------------------------------------------

    def serve_tcp(self, host: str = "127.0.0.1", port: int = 0):
        """Start listening; returns the :class:`~repro.net.tcp.TcpServer`."""
        from .tcp import TcpServer

        self._server = TcpServer(
            self.core, host=host, port=port, tracer=self.tracer,
            metrics=self.metrics,
        ).start()
        return self._server

    def close(self) -> None:
        """Stop the TCP server (if any) and release waiting barriers."""
        self._lease_stop.set()
        if self._server is not None:
            self._server.close()
        with self._lock:
            barriers = list(self._barriers.values())
        for barrier in barriers:
            barrier.event.set()
        self.journal.close()

    def abandon(self) -> None:
        """Fence this incarnation out so a successor can take over.

        Unlike :meth:`close` this releases blocked workers with a
        *retryable* error — they back off, re-enroll with the successor,
        and retransmit — and leaves the journal open for hand-off (a
        file-backed journal's own handle is closed; the successor
        re-reads the file).
        """
        self._lease_stop.set()
        with self._lock:
            self._fenced = True
            barriers = list(self._barriers.values())
            for barrier in barriers:
                if barrier.result is None:
                    barrier.result = self._superseded_reply()
            if self.tracer is not None:
                self.tracer.instant(
                    "am.abandoned", track="am", cat="am", epoch=self.epoch,
                )
        for barrier in barriers:
            barrier.event.set()
        if self._server is not None:
            self._server.close()
        if self.journal.path is not None:
            self.journal.close()

    def _superseded_reply(self) -> dict:
        return {
            "__error__": f"AM epoch {self.epoch} superseded",
            "__retry__": "am_superseded",
        }

    # -- the message handler (single entry point, both transports) ------------

    def handle(self, message: Message) -> dict:
        """Dispatch one deduplicated message to its protocol handler."""
        if self._fenced:
            # A fenced incarnation must never act: the worker backs off
            # and re-resolves the live AM (its endpoint list / the
            # redirected in-memory transport) before retrying.
            return self._superseded_reply()
        payload = message.payload
        worker = message.sender
        if message.msg_type is MessageType.ENROLL:
            return self._handle_enroll(worker, payload)
        if message.msg_type is MessageType.JOIN:
            return self._handle_join(worker, payload)
        if message.msg_type is MessageType.COORDINATE:
            return self._handle_coordinate(
                worker, int(payload["iteration"]),
                ring_epoch=payload.get("ring_epoch"),
            )
        if message.msg_type is MessageType.SYNC:
            return self._handle_sync(worker, payload)
        if message.msg_type is MessageType.STATE_UPLOAD:
            return self._handle_state_upload(worker, payload)
        if message.msg_type is MessageType.STATE_CHUNK:
            return self._handle_state_chunk(worker, payload)
        if message.msg_type is MessageType.STATE_DONE:
            return self._handle_state_done(worker, payload)
        if message.msg_type is MessageType.STATE_FETCH:
            return self._handle_state_fetch(worker, payload)
        if message.msg_type is MessageType.ADJUSTMENT_REQUEST:
            return self._handle_adjustment_request(payload)
        if message.msg_type is MessageType.RESIZE:
            return self._handle_adjustment_request(payload, origin="scheduler")
        if message.msg_type is MessageType.STATUS:
            return self.status()
        if message.msg_type is MessageType.TELEMETRY:
            return self._handle_telemetry(worker, payload)
        raise ValueError(f"unhandled message type {message.msg_type!r}")

    def _handle_telemetry(self, sender: str, payload: dict) -> dict:
        """One TELEMETRY round: worker push or driver query.

        Workers push metric/trace deltas (folded into the fleet
        collector); a driver sends ``{"query": ...}`` to read the
        collected view back — ``"fleet"`` for the raw per-worker dump,
        ``"report"`` for the derived per-job + fleet goodput reports,
        ``"rollup"`` for the fleet metric rollup.
        """
        query = payload.get("query")
        if query is None:
            reply = self.fleet.ingest(payload, sender=sender)
            if self.metrics is not None:
                self.metrics.counter("telemetry.deltas").inc()
                self.metrics.counter("telemetry.events_received").inc(
                    len(payload.get("events") or ())
                )
            return reply
        am_events = (
            self.tracer.to_events() if self.tracer is not None else None
        )
        if query == "report":
            reports = self.fleet.report(
                am_events=am_events, am_metrics=self.metrics.snapshot()
            )
            return {
                "reports": {
                    name: {
                        "job": report.job,
                        "goodput": report.goodput,
                        "busy_seconds": report.busy_seconds,
                        "wall_seconds": report.wall_seconds,
                        "iterations": report.iterations,
                        "workers": report.workers,
                        "recoveries": report.recoveries,
                        "mean_mttr": report.mean_mttr,
                        "max_mttr": report.max_mttr,
                        "mean_detection": report.mean_detection,
                        "counts": report.counts,
                        "overhead": report.overhead,
                        "upload_series": report.upload_series,
                    }
                    for name, report in reports.items()
                },
                "workers": self.fleet.workers(),
            }
        if query == "rollup":
            return {
                "rollup": self.fleet.rollup([self.metrics.snapshot()]),
                "workers": self.fleet.workers(),
            }
        # default: the raw fleet view (collector dump + AM events).
        return {
            "fleet": self.fleet.to_payload(),
            "am_events": am_events,
            "epoch": self.epoch,
        }

    # -- step 2: joining -------------------------------------------------------

    def _handle_join(self, worker: str, payload: "dict | None" = None) -> dict:
        with self._lock:
            # Record the worker's peer-mesh address first: by the time a
            # commit plan is minted every reported joiner has polled at
            # least once, so the frozen ring payload is never partial.
            peer = (payload or {}).get("peer")
            if peer and self._peer_addrs.get(worker) != str(peer):
                self.journal.append("peer", worker=worker, addr=str(peer))
                self._peer_addrs[worker] = str(peer)
            # Consume the offer: a retransmission of this very poll is
            # answered from the ServerCore reply cache, and the offer
            # must not survive to be replayed — stale generation, stale
            # snapshot — if the same worker id is scaled out and back
            # in by a later adjustment.
            offer = self._join_offers.pop(worker, None)
            if offer is not None:
                # Only the offer minted for the live (or in-flight)
                # generation may be served; anything older belongs to a
                # previous incarnation of this worker id and would park
                # the joiner at a dead iteration where its SYNC
                # barriers never complete.
                current = (
                    self._plan.generation if self._plan is not None
                    else self._generation
                )
                if offer["generation"] == current:
                    return offer
            # Initial workers start from scratch at iteration 0.
            if self._generation == 0 and worker in self._groups[0]:
                return {
                    "status": "start",
                    "spec": self.spec.to_payload(),
                    "group": list(self._groups[0]),
                    "generation": 0,
                    "iteration": 0,
                    "epoch": self.epoch,
                    "job": self.am.job_id,
                }
            # A scale-out joiner: the poll doubles as the worker-report
            # (idempotent — the AM ignores reports it is not waiting
            # for, so polling before the request lands is harmless).
            self.am.worker_report(worker)
        return {"status": "pending"}

    # -- step 3: boundary coordination ----------------------------------------

    def _handle_coordinate(
        self, worker: str, iteration: int,
        ring_epoch: "int | None" = None,
    ) -> dict:
        with self._lock:
            if worker in self._condemned:
                # A condemned worker that turns out to be merely slow is
                # fenced out: it must re-enroll, learn it was evicted,
                # and depart — not keep feeding a generation that is
                # being rebuilt without it.
                return self._condemned_reply(worker)
            # With the ring plane active the AM no longer sees
            # per-iteration syncs; boundary coordinates are its view of
            # training progress.
            self._latest_sync_iteration = max(
                self._latest_sync_iteration, iteration
            )
            if iteration > self._journaled_progress:
                # One watermark per boundary (the first worker to reach
                # it): enough that a successor never schedules a commit
                # in the workers' past.
                self.journal.append("progress", iteration=iteration)
                self._journaled_progress = iteration
            directive = self.am.coordinate(worker, iteration)
            if directive.kind is DirectiveKind.CONTINUE:
                last = self._last_commit
                if (
                    last is not None
                    and iteration == int(last["commit_iteration"])
                    and worker in tuple(last["old_group"])
                ):
                    # The predecessor committed this adjustment but its
                    # adjust reply to this worker died with it; the
                    # retransmitted COORDINATE must be answered with the
                    # directive again or the worker would miss the
                    # membership change entirely.
                    return self._replayed_adjust_reply(last, worker)
                reply = {"kind": "continue"}
                # Piggyback the current generation's ring on boundary
                # replies until the worker reports it installed; every
                # member coordinating at this boundary receives the
                # identical payload (same order, same activation), so
                # the plane switches atomically at the boundary.
                if ring_epoch != self._generation:
                    ring = self._ring_payload(
                        self._generation,
                        self._groups[self._generation],
                        active_from=iteration,
                    )
                    if ring is not None:
                        reply["ring"] = ring
                return reply
            if self._plan is None:
                self._mint_plan(directive)
            plan = self._plan
            if worker not in plan.acked:
                self.journal.append(
                    "ack", worker=worker, generation=plan.generation,
                )
                plan.acked.add(worker)
            reply = {
                "kind": "adjust",
                "group": list(plan.new_group),
                "generation": plan.generation,
                "commit_iteration": plan.commit_iteration,
                "upload": worker == plan.uploader,
            }
            if plan.ring is not None:
                reply["ring"] = plan.ring
            if plan.shard_spec is not None:
                # Owners freeze the blob locally; the uploader reuses
                # the deterministic transfer id so the AM's copy and
                # the owners' copies are the same addressable transfer.
                reply["shards"] = dict(plan.shard_spec)
            self._maybe_finish()
            return reply

    def _condemned_reply(self, worker: str) -> dict:
        return {
            "__error__": f"worker {worker!r} was condemned by lease expiry",
            "__retry__": "am_superseded",
        }

    def _replayed_adjust_reply(self, last: dict, worker: str) -> dict:
        """Re-serve a committed adjustment's directive (lock held)."""
        generation = int(last["generation"])
        new_group = tuple(last["new_group"])
        reply = {
            "kind": "adjust",
            "group": list(new_group),
            "generation": generation,
            "commit_iteration": int(last["commit_iteration"]),
            # The snapshot was already replicated before the commit;
            # nobody re-uploads.
            "upload": False,
        }
        ring = self._ring_payload(
            generation, new_group,
            active_from=int(last["commit_iteration"]) + 1,
        )
        if ring is not None:
            reply["ring"] = ring
        return reply

    def _ring_payload(
        self, generation: int, group: typing.Sequence[str],
        active_from: int,
    ) -> "dict | None":
        """The ring installed for ``generation`` — or None if any
        member lacks a peer address (the job then stays on the star
        path; mixed planes within a generation are never distributed).
        """
        if not self.spec.ring_enabled or len(group) < 2:
            return None
        peers = {}
        for member in group:
            addr = self._peer_addrs.get(member)
            if addr is None:
                return None
            peers[member] = addr
        ring = {
            "epoch": generation,
            "order": list(group),
            "peers": peers,
            "active_from": int(active_from),
        }
        # "none" ships no codec key at all: the default ring payload —
        # and everything downstream of it — stays byte-identical to the
        # uncompressed protocol.
        if self.spec.ring_codec != "none":
            ring["codec"] = self.spec.ring_codec
        return ring

    def _mint_plan(self, directive) -> None:
        plan = _CommitPlan(
            generation=self._generation + 1,
            commit_iteration=directive.commit_iteration,
            old_group=self.am.group,
            new_group=directive.new_group,
            requested_at=self._pending_request_at or time.perf_counter(),
        )
        self.journal.append(
            "plan",
            generation=plan.generation,
            commit_iteration=plan.commit_iteration,
            old_group=list(plan.old_group),
            new_group=list(plan.new_group),
            uploader=plan.uploader,
        )
        self._plan = plan
        # A joiner that never polled its offer from an earlier
        # adjustment (it crashed, or was scaled out before joining)
        # must wait for *this* plan's snapshot, not receive the old one.
        for joiner in plan.add_workers:
            self._join_offers.pop(joiner, None)
        # Fully-fetched downloads from earlier adjustments are dead
        # weight now; in-flight ones stay so straggling joiners finish.
        for transfer_id in [
            t for t, d in self._downloads.items() if d.complete
        ]:
            del self._downloads[transfer_id]
        # The new generation's rendezvous membership must exist before
        # the first survivor syncs at the commit boundary — which can
        # happen well before the adjustment finishes.
        self._groups[plan.generation] = plan.new_group
        # Freeze the new generation's ring now: every joiner reported
        # (scale-out plans are only minted after all reports, and a
        # report is a JOIN poll that recorded the peer address), so the
        # mesh is complete — and freezing means survivors' directives
        # and joiners' offers all ship the identical ring.  The commit
        # iteration itself still runs on the star path (activation is
        # one past it), giving joiners the slack to fetch state.
        plan.ring = self._ring_payload(
            plan.generation, plan.new_group,
            active_from=plan.commit_iteration + 1,
        )
        # Sharded migration: elect shard owners among the survivors that
        # have a peer address (they must be reachable over the mesh) and
        # fix the deterministic transfer id now, so the uploader, every
        # owner, and every joiner agree on it without another exchange.
        if self.spec.replication_shards > 0 and plan.add_workers:
            survivors = [
                w for w in plan.old_group
                if w not in self._condemned and w in self._peer_addrs
            ]
            owners = survivors[:max(1, int(self.spec.replication_shards))]
            if owners:
                plan.shard_spec = {
                    "transfer_id": f"shard/g{plan.generation}",
                    "owners": list(owners),
                    "count": len(owners),
                }
        if not plan.add_workers:
            # Nothing to replicate: joiner offers never materialize.
            plan.snapshot = {}

    def _maybe_finish(self) -> None:
        plan = self._plan
        if plan is None:
            return
        # A condemned member will never ack its directive — the commit
        # must not wait for the very worker the adjustment is evicting.
        needed = set(plan.old_group) - set(self._condemned)
        if not plan.acked >= needed:
            return
        if plan.add_workers and plan.snapshot is None:
            return
        removed = tuple(
            w for w in plan.old_group if w not in set(plan.new_group)
        )
        latency = time.perf_counter() - plan.requested_at
        now = self._clock()
        evicted = {}
        for worker in removed:
            started = self._recovering.pop(worker, None)
            if started is not None:
                evicted[worker] = {
                    "iteration": plan.commit_iteration,
                    "digest": None,
                    "evicted": True,
                }
                self.telemetry.record_recovery([worker], max(0.0, now - started))
        # Journal the commit *before* the inner AM transitions: once any
        # worker observes the new generation the successor must agree it
        # exists.
        self.journal.append(
            "commit",
            generation=plan.generation,
            commit_iteration=plan.commit_iteration,
            old_group=list(plan.old_group),
            new_group=list(plan.new_group),
            uploader=plan.uploader,
            latency=latency,
            departed=evicted,
        )
        self._last_commit = {
            "generation": plan.generation,
            "commit_iteration": plan.commit_iteration,
            "old_group": tuple(plan.old_group),
            "new_group": tuple(plan.new_group),
        }
        for worker, info in evicted.items():
            self._departed[worker] = dict(info)
        self.am.finish_adjustment()
        self._generation = plan.generation
        self._plan = None
        self._pending_request_at = None
        self.commit_latencies.append(latency)
        self._drop_superseded_barriers()
        # Membership of retired generations is dead weight: any sync
        # for them is rejected by the generation guard anyway.
        self._groups = {
            g: grp for g, grp in self._groups.items()
            if g >= self._generation
        }
        # More condemned workers may have queued up while this plan was
        # in flight; evict them in the next adjustment immediately.
        self._mint_evictions()
        self._check_complete()

    def _drop_superseded_barriers(self) -> None:
        """Release sync barriers stranded by the commit.

        A barrier for a superseded generation can never complete (its
        membership no longer syncs); without this it would pin its
        gradient arrays and park its waiters for the full
        ``allreduce_timeout``.  Waking them with a generation-changed
        error turns a silent stall into an immediate, explicit signal.
        """
        for key in [k for k in self._barriers if k[0] < self._generation]:
            barrier = self._barriers.pop(key)
            if barrier.result is None:
                barrier.result = {
                    "__error__": (
                        f"sync generation {key[0]} superseded by "
                        f"generation {self._generation}"
                    ),
                    "__retry__": "generation_superseded",
                }
            barrier.event.set()

    def _advance_sync_floor(self, generation: int, iteration: int) -> None:
        """Raise a generation's barrier floor and release what it strands.

        Lock held.  In fault-free operation lockstep guarantees no
        result-less barrier exists below a fresh sync's iteration (the
        group can only advance once every member collected the previous
        mean), so this only ever fires on the retransmission patterns a
        failover produces.
        """
        floor = self._sync_floors.get(generation, -1)
        if iteration <= floor:
            return
        self._sync_floors[generation] = iteration
        for key in [
            k for k in self._barriers
            if k[0] == generation and k[1] < iteration
        ]:
            barrier = self._barriers[key]
            if barrier.result is None:
                self._barriers.pop(key)
                barrier.result = {
                    "__error__": (
                        f"sync {key} is below the barrier floor {iteration}"
                    ),
                    "__retry__": "stale_barrier",
                }
                barrier.event.set()

    # -- step 4: state replication ---------------------------------------------

    def _handle_state_upload(self, worker: str, payload: dict) -> dict:
        if payload.get("final"):
            with self._lock:
                record = {
                    "iteration": int(payload.get("iteration", 0)),
                    "digest": payload.get("digest"),
                }
                self.journal.append(
                    "final", worker=worker, iteration=record["iteration"],
                    digest=record["digest"],
                    removed=bool(payload.get("removed")),
                )
                if payload.get("removed"):
                    self._departed[worker] = record
                else:
                    self._final[worker] = record
                # A finishing worker proves the whole group completed
                # every earlier barrier (lockstep); raise the floor so
                # post-failover retransmissions of those syncs are
                # answered with a repairable error, not a fresh barrier
                # nobody else will ever join.
                self._advance_sync_floor(
                    self._generation, record["iteration"]
                )
                self._check_complete()
            return {"ok": True}
        with self._lock:
            plan = self._plan
            if plan is None or worker != plan.uploader:
                return {"ok": False, "reason": "no snapshot expected"}
            # Copy the parameter arrays: over the in-memory transport the
            # payload aliases the uploader's *live* tensors (TCP would
            # have serialized them), and the uploader keeps training.
            plan.snapshot = {
                "params": {
                    name: np.array(array)
                    for name, array in payload["params"].items()
                },
                "optimizer": payload["optimizer"],
                "loader": payload["loader"],
            }
            self.journal.append(
                "snapshot", generation=plan.generation,
                state=plan.snapshot,
            )
            for joiner in plan.add_workers:
                self._join_offers[joiner] = {
                    "status": "join",
                    "spec": self.spec.to_payload(),
                    "group": list(plan.new_group),
                    "generation": plan.generation,
                    "iteration": plan.commit_iteration,
                    "state": plan.snapshot,
                    "epoch": self.epoch,
                    "job": self.am.job_id,
                    **({"ring": plan.ring} if plan.ring else {}),
                }
            self._maybe_finish()
        return {"ok": True}

    # -- step 4, chunked: the replication data plane ---------------------------

    def _handle_state_chunk(self, worker: str, payload: dict) -> dict:
        """One verified chunk of the uploader's snapshot blob."""
        with self._lock:
            plan = self._plan
            if plan is None or worker != plan.uploader:
                return {"ok": False, "reason": "no snapshot expected"}
            assembler = self._chunks.assembler(worker)
            seq = payload.get("seq")
            if (
                (assembler is None
                 or assembler.transfer_id != payload.get("transfer_id"))
                and isinstance(seq, int) and seq > 0
            ):
                # A mid-stream chunk for a transfer this AM has no
                # assembler for: the predecessor held chunks 0..seq-1
                # and died with them.  Telling the uploader to restart
                # (instead of letting the ChunkStore auto-create an
                # assembler that can never complete) keeps the transfer
                # finite.
                return {
                    "ok": False, "restart": True,
                    "reason": (
                        f"no assembler holds transfer "
                        f"{payload.get('transfer_id')!r} at seq {seq}"
                    ),
                }
            return self._chunks.handle_chunk(worker, payload)

    def _handle_state_done(self, worker: str, payload: dict) -> dict:
        """Finalize a chunked upload: verify, plan fan-out, mint offers.

        The AM stores the assembled blob verbatim (digest-verified,
        never decoded) and serves it back to joiners chunk by chunk in
        the replication planner's round order.
        """
        with self._lock:
            plan = self._plan
            if plan is None or worker != plan.uploader:
                return {"ok": False, "reason": "no snapshot expected"}
            transfer_id = str(payload.get("transfer_id"))
            if plan.transfer_id == transfer_id and plan.snapshot is not None:
                # Duplicate DONE for a transfer this AM (or its
                # predecessor, pre-journal) already finalized.
                download = self._downloads.get(transfer_id)
                return {
                    "ok": True,
                    "chunks": download.total_chunks if download else 0,
                    "payload_bytes": download.total_bytes if download else 0,
                    "duplicates": 0,
                }
            reply, assembler = self._chunks.handle_done(worker, payload)
            if assembler is None:
                if reply.get("reason") == "unknown transfer":
                    # Post-failover DONE for chunks the predecessor held:
                    # the uploader must restart the transfer from zero.
                    reply = dict(reply, restart=True)
                return reply
            shard_spec = plan.shard_spec
            owners: "list[str]" = []
            if shard_spec is not None:
                owners = [
                    o for o in shard_spec["owners"]
                    if o not in self._condemned and o in self._peer_addrs
                ]
            if owners:
                # Sharded fan-in: per-joiner groups pull one shard slice
                # from every owner concurrently; the planner schedules
                # the groups so same-round joiners never share an owner.
                rounds = _fanout_rounds(
                    owners, plan.add_workers, assembler.total_bytes,
                    fan_in=len(owners),
                )
            else:
                rounds = _fanout_rounds(
                    plan.old_group, plan.add_workers, assembler.total_bytes
                )
            download = _Download(assembler, rounds, plan.generation)
            if owners:
                shards = shard_ranges(
                    assembler.total_chunks, assembler.chunk_bytes,
                    assembler.total_bytes, len(owners),
                )
                for shard in shards:
                    shard["digest"] = _digest(
                        download.blob[shard["start_byte"]:shard["end_byte"]]
                    )
                    owner = owners[shard["index"] % len(owners)]
                    shard["owner"] = owner
                    shard["addr"] = self._peer_addrs.get(owner)
                download.shards = shards
                self.metrics.counter("net.shards.planned").inc(len(shards))
            self._downloads[transfer_id] = download
            plan.transfer_id = transfer_id
            self.journal.append(
                "snapshot", generation=plan.generation,
                transfer_id=transfer_id,
                blob=bytes(assembler.buffer),
                total_bytes=assembler.total_bytes,
                total_chunks=assembler.total_chunks,
                chunk_bytes=assembler.chunk_bytes,
                codec=assembler.codec,
                digest=download.digest,
            )
            # Sentinel: _maybe_finish only needs to know replication
            # data exists; the offers below carry the real descriptor.
            plan.snapshot = {"transfer": transfer_id}
            for joiner in plan.add_workers:
                self._join_offers[joiner] = {
                    "status": "join",
                    "spec": self.spec.to_payload(),
                    "group": list(plan.new_group),
                    "generation": plan.generation,
                    "iteration": plan.commit_iteration,
                    "state_transfer": download.describe(transfer_id, joiner),
                    "epoch": self.epoch,
                    "job": self.am.job_id,
                    **({"ring": plan.ring} if plan.ring else {}),
                }
            if self.tracer is not None:
                self.tracer.instant(
                    "replicate.fanout", track="am", cat="replicate",
                    transfer_id=transfer_id, rounds=rounds,
                    payload_bytes=assembler.total_bytes,
                    chunks=assembler.total_chunks,
                    **(
                        {"shards": len(download.shards),
                         "owners": list(owners)}
                        if download.shards is not None else {}
                    ),
                )
            self._maybe_finish()
            return reply

    def _handle_state_fetch(self, worker: str, payload: dict) -> dict:
        """Serve one chunk of a stored snapshot to a joiner."""
        transfer_id = payload.get("transfer_id")
        with self._lock:
            download = self._downloads.get(transfer_id)
            if download is None:
                return {"ok": False, "reason": "unknown transfer"}
            if worker not in download.rounds:
                return {"ok": False, "reason": "not a planned joiner"}
            if payload.get("complete"):
                # A sharded joiner's chunks crossed the peer mesh, not
                # this link; its completion report is what advances the
                # round gate for later fan-in rounds.
                download.progress[worker] = set(range(download.total_chunks))
                self.metrics.counter("net.shards.joins_completed").inc()
                return {"ok": True}
            if not download.round_open(worker):
                # Earlier planner rounds are still copying; the joiner
                # polls until its round opens.
                return {"status": "pending"}
            if payload.get("probe"):
                # Sharded round gate: the joiner only asks whether its
                # fan-in round is open before turning to the owners.
                return {"ok": True, "open": True}
            seq = payload.get("seq")
            if not isinstance(seq, int) or not 0 <= seq < download.total_chunks:
                return {"ok": False, "reason": f"bad seq {seq!r}"}
            download.progress[worker].add(seq)
            chunk = download.chunk(seq)
            self.metrics.counter("net.chunks.served").inc()
            return {
                "ok": True,
                "seq": seq,
                "data": chunk,
                "digest": download.chunk_digests[seq],
            }

    # -- the gradient rendezvous -----------------------------------------------

    def _handle_sync(self, worker: str, payload: dict) -> dict:
        generation = int(payload["generation"])
        iteration = int(payload["iteration"])
        key = (generation, iteration)
        with self._lock:
            if self._fenced:
                # The dispatch-time fence check races abandon(): a sync
                # that slipped past it must not seed a fresh barrier
                # after the fence swept the old ones — nobody would ever
                # resolve it and the worker would hang for the full
                # allreduce timeout instead of re-enrolling.
                return self._superseded_reply()
            if generation < self._generation:
                # Lockstep means live members never sync a retired
                # generation; anything arriving here is a straggler of
                # a superseded incarnation and must not seed a barrier
                # that can never complete.
                raise KeyError(
                    f"sync generation {generation} superseded by "
                    f"generation {self._generation}"
                )
            group = self._groups.get(generation)
            if group is None or worker not in group:
                raise KeyError(
                    f"{worker!r} is not in generation {generation}"
                )
            if worker in self._condemned:
                return self._condemned_reply(worker)
            floor = self._sync_floors.get(generation, -1)
            if iteration < floor:
                # The rest of the group already synced past this
                # iteration — its barrier completed and was dropped (or
                # died with a predecessor AM).  Seeding a new one would
                # strand this worker for the full allreduce timeout; a
                # retryable error lets it repair the missed mean from a
                # peer's cache instead.
                return {
                    "__error__": (
                        f"sync ({generation}, {iteration}) is below the "
                        f"barrier floor {floor}"
                    ),
                    "__retry__": "stale_barrier",
                }
            if iteration > floor:
                self._advance_sync_floor(generation, iteration)
            self.metrics.counter("net.sync.grad_bytes").inc(
                payload_nbytes(payload.get("grads"))
            )
            if payload.get("ring_fallback"):
                self.metrics.counter("net.sync.ring_fallbacks").inc()
            barrier = self._barriers.get(key)
            if barrier is None:
                barrier = self._barriers[key] = _SyncBarrier(
                    w for w in group if w not in self._condemned
                )
            barrier.contributions[worker] = payload.get("grads")
            self._latest_sync_iteration = max(
                self._latest_sync_iteration, iteration
            )
            if set(barrier.contributions) >= barrier.expected:
                barrier.result = {
                    "grads": self._average(group, barrier.contributions),
                    "members": len(barrier.expected),
                }
                barrier.event.set()
        if not barrier.event.wait(self.spec.allreduce_timeout):
            missing = sorted(barrier.expected - set(barrier.contributions))
            raise TimeoutError(
                f"sync ({generation}, {iteration}) timed out waiting "
                f"for {missing}"
            )
        result = barrier.result or {}
        with self._lock:
            barrier.collected.add(worker)
            if barrier.collected >= barrier.expected:
                # Everyone has this iteration's mean; keeping the
                # barrier (and its gradient ndarrays) any longer would
                # grow memory linearly with iterations run.
                self._barriers.pop(key, None)
        self.metrics.counter("net.sync.grad_bytes").inc(
            payload_nbytes(result.get("grads"))
        )
        return result

    def _average(self, group: "tuple[str, ...]", contributions: dict):
        """Average one barrier's gradients, matching the ring's order.

        Ring-enabled jobs must get bit-identical means from both
        planes, and IEEE float addition is not associative — so when
        the ring is on, the AM replays the ring's exact reduction
        (ring-order chained adds over zero-filled absentees) instead
        of the naive sum.  Legacy star-only jobs keep the historical
        ``average_gradients`` arithmetic.
        """
        concrete = [
            grads for grads in contributions.values() if grads
        ]
        if not concrete:
            return None
        if not self.spec.ring_enabled:
            return average_gradients(concrete)
        template = concrete[0]
        ordered = [
            contributions.get(member) or
            {name: np.zeros_like(arr) for name, arr in template.items()}
            for member in group
        ]
        return ring_reference_average(ordered)

    # -- step 1: the scheduler/driver API ---------------------------------------

    def _handle_adjustment_request(
        self, payload: dict, origin: str = "driver"
    ) -> dict:
        """Accept one externally driven adjustment (step 1).

        ``ADJUSTMENT_REQUEST`` is the classic driver call; ``RESIZE`` is
        the cluster scheduler's directive and defaults its ``origin`` to
        ``"scheduler"``.  The journaled request records who asked
        (``origin``) and any pinned commit boundary (``at_iteration``),
        so a successor AM re-drives the same decision after failover.
        """
        origin = str(payload.get("origin", origin))
        pin = payload.get("at_iteration")
        request = AdjustmentRequest(
            kind=AdjustmentKind(payload["kind"]),
            add_workers=tuple(payload.get("add", ())),
            remove_workers=tuple(payload.get("remove", ())),
            at_iteration=None if pin is None else int(pin),
        )
        with self._lock:
            accepted = self.am.request_adjustment(request)
            if accepted:
                self.journal.append(
                    "request", kind=request.kind.value,
                    add=list(request.add_workers),
                    remove=list(request.remove_workers),
                    origin=origin, at_iteration=request.at_iteration,
                )
                self._pending_request_at = time.perf_counter()
                if self.tracer is not None:
                    self.tracer.instant(
                        "am.resize_accepted", track="am", cat="am",
                        kind=request.kind.value, origin=origin,
                        at_iteration=request.at_iteration,
                    )
                self.metrics.counter(f"am.resizes.{origin}").inc()
        return {"accepted": accepted, "epoch": self.epoch}

    # -- failover: re-enrollment ------------------------------------------------

    def _handle_enroll(self, worker: str, payload: dict) -> dict:
        """A surviving worker re-introduces itself to a successor AM.

        The worker reports where it stands (generation, iteration, ring
        epoch, peer address); the AM answers with its fencing epoch and
        a verdict: ``ok`` (resume), ``evicted`` (you were condemned or
        already scaled out — finish and depart), or ``unknown``.
        """
        payload = payload or {}
        with self._lock:
            peer = payload.get("peer")
            if peer and self._peer_addrs.get(worker) != str(peer):
                self.journal.append("peer", worker=worker, addr=str(peer))
                self._peer_addrs[worker] = str(peer)
            if worker in self._condemned or worker in self._departed:
                status = "evicted"
            elif worker in self._groups.get(self._generation, ()) or (
                self._plan is not None and worker in self._plan.new_group
            ):
                status = "ok"
            else:
                status = "unknown"
            self.metrics.counter("am.enrollments").inc()
            if self.tracer is not None:
                self.tracer.instant(
                    "worker.enroll", track="am", cat="failover",
                    worker=worker, status=status, epoch=self.epoch,
                    generation=self._generation,
                    worker_generation=payload.get("generation"),
                    worker_iteration=payload.get("iteration"),
                )
            return {
                "epoch": self.epoch,
                "generation": self._generation,
                "status": status,
                "job": self.am.job_id,
            }

    # -- lease-based worker failure detection -----------------------------------

    def _on_activity(self, sender: str) -> None:
        """Every dispatched message (and TCP heartbeat) renews a lease.

        Called *before* dedup on purpose: a worker blocked at a sync
        barrier keeps retransmitting the same request, and those
        duplicates are exactly the liveness signal that must keep its
        lease fresh.
        """
        ttl = self.spec.worker_lease_ttl
        if ttl <= 0 or self._fenced:
            return
        with self._lock:
            if sender in self._condemned or sender in self._departed:
                return
            live = set(self._groups.get(self._generation, ()))
            if self._plan is not None:
                live.update(self._plan.new_group)
            elif self.am.pending is not None:
                live.update(self.am.pending.add_workers)
            if sender not in live:
                return  # the driver, or a worker not (yet) in the job
            key = f"lease/{sender}"
            if not self._leases.keep_alive(key, ttl):
                self._leases.lease(key, sender, ttl)

    def _lease_loop(self) -> None:
        while not self._lease_stop.wait(self.spec.lease_check_interval):
            try:
                self.check_leases()
            except Exception:
                self.metrics.counter("am.lease_check_errors").inc()

    def check_leases(self, now: "float | None" = None) -> "list[str]":
        """Condemn workers whose lease expired; mint their eviction.

        Public so injectable-clock tests (and the chaos soak) can drive
        detection deterministically without the supervisor thread.
        Returns the workers condemned by this sweep.
        """
        condemned_now: "list[str]" = []
        with self._lock:
            if self._fenced or self.spec.worker_lease_ttl <= 0:
                return condemned_now
            if now is None:
                now = self._clock()
            parked = {
                worker
                for barrier in self._barriers.values()
                if barrier.result is None
                for worker in barrier.contributions
            }
            for key in self._leases.expired_keys("lease/"):
                worker = key.split("/", 1)[1]
                if worker in self._condemned or worker in self._departed:
                    continue
                if worker in parked:
                    # The worker's request is parked in an open barrier
                    # the AM itself is holding: it delivered a message
                    # we have not answered, so it is live by definition
                    # (and on the in-memory transport a parked sender
                    # produces no other traffic at all — its request
                    # thread is blocked inside our handler).
                    self._leases.lease(
                        f"lease/{worker}", worker,
                        self.spec.worker_lease_ttl,
                    )
                    continue
                deadline = self._leases.lease_deadline(key) or now
                self._condemn(worker, now=now, deadline=deadline)
                condemned_now.append(worker)
            if condemned_now:
                self._mint_evictions()
        return condemned_now

    def _condemn(self, worker: str, now: float, deadline: float) -> None:
        """Lock held: mark one worker dead and release what it blocks."""
        self.journal.append("condemn", worker=worker)
        self._condemned[worker] = now
        self._recovering[worker] = now
        # Fence the (possibly merely slow) holder out: its keep-alives
        # must fail from here on so it cannot resurrect the lease the
        # eviction is already acting on.
        self._leases.force_expire(f"lease/{worker}")
        self.telemetry.record_detection(
            worker, max(0.0, now - deadline), cause="lease_expired"
        )
        self.metrics.counter("worker.lease.expired").inc()
        if self.tracer is not None:
            self.tracer.instant(
                "worker.condemned", track="am", cat="failover",
                worker=worker, detection_latency=max(0.0, now - deadline),
            )
        plan = self._plan
        if (
            plan is not None and plan.uploader == worker
            and plan.snapshot is None
        ):
            # The elected uploader died before replicating: the
            # scale-out cannot ever gather its snapshot, so the plan is
            # aborted back to the last committed generation rather than
            # wedging every joiner.
            self.abort_plan()
        self._release_worker_barriers(worker)

    def _release_worker_barriers(self, worker: str) -> None:
        """Lock held: drop a dead worker from every waiting barrier.

        Survivors blocked on the dead member's contribution get their
        mean now — computed over the same ring-ordered, zero-filled
        reduction both planes use, so every survivor stays bit-identical
        with the others.
        """
        for key, barrier in list(self._barriers.items()):
            if barrier.result is not None or worker not in barrier.expected:
                continue
            barrier.expected = frozenset(barrier.expected - {worker})
            barrier.contributions.pop(worker, None)
            if not barrier.expected:
                self._barriers.pop(key)
                continue
            if set(barrier.contributions) >= barrier.expected:
                group = self._groups.get(key[0], ())
                barrier.result = {
                    "grads": self._average(tuple(group), barrier.contributions),
                    "members": len(barrier.expected),
                }
                barrier.event.set()

    def _mint_evictions(self) -> None:
        """Lock held: turn condemned workers into a scale-in request."""
        group = set(self._groups.get(self._generation, ()))
        pending = sorted(
            w for w in self._condemned
            if w in group and w not in self._departed
        )
        if not pending:
            return
        if self._plan is not None or self.am.pending is not None:
            return  # queued behind the in-flight adjustment
        if set(pending) >= group:
            return  # scale-in cannot remove every worker
        self.journal.append(
            "request", kind=AdjustmentKind.SCALE_IN.value,
            add=[], remove=pending, auto=True, origin="lease",
        )
        accepted = self.am.request_adjustment(AdjustmentRequest(
            kind=AdjustmentKind.SCALE_IN, remove_workers=tuple(pending),
        ))
        if accepted:
            self._pending_request_at = time.perf_counter()
            self.metrics.counter("am.evictions").inc(len(pending))
            if self.tracer is not None:
                self.tracer.instant(
                    "am.eviction_minted", track="am", cat="failover",
                    remove=pending,
                )

    def abort_plan(self) -> None:
        """Lock held: abandon the in-flight plan (uploader death only).

        Any survivor that already acked the directive has advanced into
        the aborted generation and will fail loudly at its next sync —
        an explicit error beats the silent wedge of a snapshot that can
        never arrive.
        """
        plan = self._plan
        if plan is None:
            return
        self.journal.append("abort")
        self._plan = None
        self._pending_request_at = None
        self._groups.pop(plan.generation, None)
        for joiner in plan.add_workers:
            self._join_offers.pop(joiner, None)
        self.am.pending = None
        self.am.reported = set()
        self.am.commit_iteration = -1
        self.am.state = MasterState.RUNNING
        self.metrics.counter("am.plans_aborted").inc()
        if self.tracer is not None:
            self.tracer.instant(
                "am.plan_aborted", track="am", cat="failover",
                generation=plan.generation,
            )

    # -- failover: journal replay -----------------------------------------------

    @classmethod
    def from_journal(
        cls,
        journal: Journal,
        tracer: "typing.Any | None" = None,
        metrics: "MetricRegistry | None" = None,
        clock: "typing.Callable[[], float] | None" = None,
    ) -> "NetworkedApplicationMaster":
        """Rebuild a crashed AM from its journal (the standby path).

        The successor replays every journaled transition, journals a
        strictly higher fencing epoch (locking the predecessor out of
        the wire handshake), and resumes: an in-flight commit whose
        acks and snapshot are all journaled is completed; one whose
        uploader is gone is aborted back to the last committed
        generation.
        """
        state = JournalState.replay(journal.records())
        if state.job_id is None or state.spec_payload is None:
            raise JournalError("journal holds no init record to recover from")
        spec = JobSpec.from_payload(state.spec_payload)
        master = cls(
            spec, state.initial_workers, job_id=state.job_id,
            tracer=tracer, metrics=metrics, journal=journal, clock=clock,
            _replay=state,
        )
        return master

    def _restore(self, state: JournalState) -> None:
        """Apply a replayed :class:`JournalState` (constructor path)."""
        now = self._clock()
        self._generation = state.generation
        self._groups = {
            g: tuple(grp) for g, grp in state.groups.items()
            if g >= state.generation
        }
        self._peer_addrs = dict(state.peers)
        self._final = {w: dict(i) for w, i in state.final.items()}
        self._departed = {w: dict(i) for w, i in state.departed.items()}
        self._latest_sync_iteration = state.progress
        self._journaled_progress = state.progress
        # Everything at or past the journaled watermark is live; any
        # fresh sync below it is a retransmission whose barrier died
        # with the predecessor and must take the repair path.
        self._sync_floors = {state.generation: state.progress}
        self._last_commit = (
            dict(state.last_commit) if state.last_commit is not None else None
        )
        self.commit_latencies = list(state.commit_latencies)
        for worker in state.condemned:
            if worker in self._departed:
                continue
            self._condemned[worker] = now
            self._recovering[worker] = now
        self.am.group = state.current_group
        self.am.latest_iteration = state.progress
        self.am.adjustments_committed = state.adjustments_committed
        pending = state.pending_request
        request = None
        if pending is not None:
            pin = pending.get("at_iteration")
            request = AdjustmentRequest(
                kind=AdjustmentKind(pending["kind"]),
                add_workers=tuple(pending.get("add", ())),
                remove_workers=tuple(pending.get("remove", ())),
                at_iteration=None if pin is None else int(pin),
            )
        if state.plan is not None:
            self._restore_plan(state, request)
        elif request is not None:
            # Accepted but not yet minted: no worker saw a directive
            # (plans are journaled before the first one is served), so
            # the successor is free to re-drive step 1 and schedule a
            # fresh boundary from its own watermark.
            if self.am.request_adjustment(request):
                self._pending_request_at = time.perf_counter()
        self._restore_downloads(state)
        self.metrics.counter("am.journal.replayed").inc(state.replayed)
        self.metrics.counter("am.failover").inc()
        if self.tracer is not None:
            self.tracer.instant(
                "am.failover", track="am", cat="failover",
                epoch=self.epoch, generation=self._generation,
                replayed=state.replayed,
            )
        self._mint_evictions()
        self._maybe_finish()

    def _restore_plan(
        self, state: JournalState, request: "AdjustmentRequest | None"
    ) -> None:
        """Reinstate the journaled in-flight commit plan (ctor path)."""
        data = state.plan
        plan = _CommitPlan(
            generation=int(data["generation"]),
            commit_iteration=int(data["commit_iteration"]),
            old_group=tuple(data["old_group"]),
            new_group=tuple(data["new_group"]),
            requested_at=time.perf_counter(),
        )
        plan.acked = set(state.acked)
        plan.ring = self._ring_payload(
            plan.generation, plan.new_group,
            active_from=plan.commit_iteration + 1,
        )
        self._groups[plan.generation] = plan.new_group
        snap = state.last_snapshot
        if snap is not None and int(snap["generation"]) == plan.generation:
            self._install_snapshot(plan, snap)
        if (
            plan.add_workers and plan.snapshot is None
            and plan.uploader in self._condemned
        ):
            # The only worker that could still produce the snapshot is
            # dead: install then immediately abort, so the abort is
            # journaled and survivors fail fast.
            self._plan = plan
            self._restore_inner_am(plan, request)
            self.abort_plan()
            return
        self._plan = plan
        self._restore_inner_am(plan, request)
        self._pending_request_at = time.perf_counter()

    def _restore_inner_am(
        self, plan: _CommitPlan, request: "AdjustmentRequest | None"
    ) -> None:
        if request is None:
            # Plan without a journaled request cannot happen (requests
            # are journaled before plans), but stay defensive.
            removed = set(plan.old_group) - set(plan.new_group)
            added = set(plan.new_group) - set(plan.old_group)
            request = AdjustmentRequest(
                kind=AdjustmentKind.SCALE_OUT if added
                else AdjustmentKind.SCALE_IN,
                add_workers=tuple(sorted(added)),
                remove_workers=tuple(sorted(removed)),
            )
        self.am.group = plan.old_group
        self.am.pending = request
        self.am.reported = set(request.add_workers)
        self.am.commit_iteration = plan.commit_iteration
        self.am.state = MasterState.COMMIT_SCHEDULED

    def _install_snapshot(self, plan: _CommitPlan, snap: dict) -> None:
        """Rebuild offers (and the chunk download) from a journaled
        snapshot record (ctor path, lock not yet contended)."""
        if "blob" in snap:
            transfer_id = str(snap["transfer_id"])
            assembler = ChunkAssembler(
                transfer_id=transfer_id,
                total_bytes=int(snap["total_bytes"]),
                total_chunks=int(snap["total_chunks"]),
                chunk_bytes=int(snap["chunk_bytes"]),
                codec=str(snap.get("codec", "json")),
            )
            blob = snap["blob"]
            assembler.buffer[:] = (
                blob if isinstance(blob, (bytes, bytearray)) else bytes(blob)
            )
            assembler.received = set(range(assembler.total_chunks))
            # Post-failover there is no way to know which planner round
            # each joiner had reached; serving everyone from round 0
            # trades the contention-free schedule for guaranteed
            # progress.
            rounds = {w: 0 for w in plan.add_workers}
            download = _Download(assembler, rounds, plan.generation)
            self._downloads[transfer_id] = download
            plan.transfer_id = transfer_id
            plan.snapshot = {"transfer": transfer_id}
            for joiner in plan.add_workers:
                self._join_offers[joiner] = {
                    "status": "join",
                    "spec": self.spec.to_payload(),
                    "group": list(plan.new_group),
                    "generation": plan.generation,
                    "iteration": plan.commit_iteration,
                    "state_transfer": download.describe(transfer_id, joiner),
                    "epoch": self.epoch,
                    "job": self.am.job_id,
                    **({"ring": plan.ring} if plan.ring else {}),
                }
        else:
            plan.snapshot = {
                "params": {
                    name: np.array(array)
                    for name, array in snap["state"]["params"].items()
                },
                "optimizer": snap["state"]["optimizer"],
                "loader": snap["state"]["loader"],
            }
            for joiner in plan.add_workers:
                self._join_offers[joiner] = {
                    "status": "join",
                    "spec": self.spec.to_payload(),
                    "group": list(plan.new_group),
                    "generation": plan.generation,
                    "iteration": plan.commit_iteration,
                    "state": plan.snapshot,
                    "epoch": self.epoch,
                    "job": self.am.job_id,
                    **({"ring": plan.ring} if plan.ring else {}),
                }

    def _restore_downloads(self, state: JournalState) -> None:
        """Re-serve the last *committed* generation's snapshot.

        A joiner whose offer reply was lost keeps polling JOIN after
        the commit; the successor must still be able to answer with the
        committed generation's state (``last_snapshot`` survives the
        commit in the journal for exactly this reason).
        """
        snap = state.last_snapshot
        last = state.last_commit
        if snap is None or last is None or self._plan is not None:
            return
        if int(snap["generation"]) != int(last["generation"]):
            return
        joiners = [
            w for w in last["new_group"]
            if w not in set(last["old_group"])
            and w not in self._final and w not in self._departed
        ]
        if not joiners:
            return
        plan = _CommitPlan(
            generation=int(last["generation"]),
            commit_iteration=int(last["commit_iteration"]),
            old_group=tuple(last["old_group"]),
            new_group=tuple(last["new_group"]),
            requested_at=time.perf_counter(),
        )
        plan.ring = self._ring_payload(
            plan.generation, plan.new_group,
            active_from=plan.commit_iteration + 1,
        )
        self._install_snapshot(plan, snap)
        # Only the offers/downloads were needed; the plan scaffold is
        # discarded (the adjustment already committed).

    # -- progress ---------------------------------------------------------------

    def _check_complete(self) -> None:
        group = self._groups[self._generation]
        if self._plan is None and all(w in self._final for w in group):
            self._complete.set()

    @property
    def complete(self) -> bool:
        """True once every current-group member uploaded a final digest."""
        return self._complete.is_set()

    def wait_complete(self, timeout: "float | None" = None) -> bool:
        """Block until the job completes (or the timeout lapses)."""
        return self._complete.wait(timeout)

    def final_digests(self) -> "dict[str, str]":
        """Final parameter digest per completing worker."""
        with self._lock:
            return {w: r["digest"] for w, r in self._final.items()}

    def status(self) -> dict:
        """Snapshot of job progress (the ``STATUS`` reply)."""
        with self._lock:
            return {
                "iteration": self._latest_sync_iteration,
                "generation": self._generation,
                "group": list(self._groups[self._generation]),
                "adjustments_committed": self.am.adjustments_committed,
                "adjustment_pending": self._plan is not None
                or self.am.pending is not None,
                "complete": self._complete.is_set(),
                "digests": {
                    w: r["digest"] for w, r in self._final.items()
                },
                "departed": sorted(self._departed),
                "commit_latencies": list(self.commit_latencies),
                "handled": self.core.handled,
                "duplicates": self.core.duplicates,
                "uploads_completed": self._chunks.completed,
                "downloads_active": len(self._downloads),
                "epoch": self.epoch,
                "condemned": sorted(self._condemned),
                "journal_records": len(self.journal),
            }
