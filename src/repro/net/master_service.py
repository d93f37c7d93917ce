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
4. the uploader streams its snapshot with ``STATE_CHUNK`` /
   ``STATE_DONE`` (replication); joiners' ``join`` replies name the
   transfer and they pull it with ``STATE_FETCH``;
5. once every old-group member saw the directive and the snapshot is
   in, the adjustment is finished and the new generation is live.

The AM *is* its journal: :class:`~repro.net.journal.JournalState`, the
fold of the write-ahead journal, is the only durable control state and
:meth:`NetworkedApplicationMaster._record` the only code that changes
it.  Everything else — barriers (:mod:`.sync_barriers`), downloads and
offers (:mod:`.replication_gate`), leases (:mod:`.leases`), the inner
decision engine's position — is volatile and derived from that state,
by the same functions on the live path and after a failover replay.
"""

from __future__ import annotations

import dataclasses
import threading
import time
import typing

from ..coordination.master import (
    AdjustmentKind,
    AdjustmentRequest,
    ApplicationMaster,
    DirectiveKind,
    MasterState,
)
from ..coordination.messages import Message, MessageType
from ..coordination.telemetry import RuntimeTelemetry
from ..observability import FleetCollector, MetricRegistry
from .chunks import DEFAULT_CHUNK_BYTES
from .collective import DEFAULT_RING_BUCKET_BYTES
from .journal import Journal, JournalError, JournalState, joiners_of
from .leases import LeaseSupervisor
from .replication_gate import ReplicationGate
from .sync_barriers import SyncBarriers, condemned_reply
from .transport import ServerCore


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
    #: elects among the survivors.  0 (the default) keeps the AM-served
    #: fan-out: joiners pull the whole blob from the AM.  With
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


def _adjustment_request(data: dict) -> AdjustmentRequest:
    """An :class:`AdjustmentRequest` from its wire / ``request``-record form."""
    pin = data.get("at_iteration")
    return AdjustmentRequest(
        kind=AdjustmentKind(data["kind"]),
        add_workers=tuple(data.get("add", ())),
        remove_workers=tuple(data.get("remove", ())),
        at_iteration=None if pin is None else int(pin),
    )


class NetworkedApplicationMaster:
    """Message-driven AM + parameter rendezvous for multi-process jobs.

    Wiring, dispatch, lifecycle and ``STATUS`` around four parts: the
    journal fold ``state`` (the only durable control state, changed only
    by :meth:`_record`), and three volatile ones derived from it —
    ``barriers`` (:class:`SyncBarriers`), ``replication``
    (:class:`ReplicationGate`) and ``leases`` (:class:`LeaseSupervisor`).
    The adjustment procedure itself (request → plan → acks + snapshot →
    commit, or abort) lives here: every step is *decide →*
    :meth:`_record` *→ reply*.
    """

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
        #: the fold of ``journal`` — a successor is handed the replayed
        #: one and carries on applying records to it.
        self.state = _replay if _replay is not None else JournalState()
        #: the fold's list itself (``apply`` appends in place).
        self.commit_latencies = self.state.commit_latencies
        self._clock = clock or time.monotonic
        #: the decision engine (when does the commit land, who is in the
        #: new group).  Volatile: positioned from the fold.
        self.am = ApplicationMaster(
            job_id,
            workers,
            coordination_interval=spec.coordination_interval,
            tracer=tracer,
        )
        self._lock = threading.RLock()
        self._fenced = False
        #: ``perf_counter`` at which the in-flight adjustment was asked
        #: for (commit-latency clock; restarted by a successor).
        self._requested_at: "float | None" = None
        #: the in-flight plan's ring (order + peer addresses), frozen at
        #: mint time so every directive and offer ships the same mesh.
        self._plan_ring: "dict | None" = None
        self._complete = threading.Event()
        self.telemetry = RuntimeTelemetry(clock=clock, metrics=self.metrics)
        #: live fleet view fed by workers' TELEMETRY deltas.  Never
        #: journaled: a successor AM starts with an empty collector and
        #: every worker re-ships a full snapshot after re-enrollment,
        #: which rebuilds the view without bloating the write-ahead log.
        self.fleet = FleetCollector(job_id=job_id)
        self.barriers = SyncBarriers(
            spec, self.state, self._lock, self.metrics
        )
        self.replication = ReplicationGate(
            self.state, self._lock, self.metrics, tracer,
            record=self._record, mint_offer=self._join_offer,
            on_snapshot=self._maybe_finish,
        )
        self.leases = LeaseSupervisor(
            spec, self.state, self._lock, clock, self.metrics, tracer,
            self.telemetry, sweep=self.check_leases,
        )
        self.core = ServerCore(
            handler=self.handle, node_id="am", tracer=tracer,
            reply_wait=spec.reply_wait,
            metrics=self.metrics,
            on_activity=self.leases.renew,
        )
        self._server = None
        if _replay is None:
            self._record(
                "init", job_id=job_id, spec=spec.to_payload(),
                workers=list(workers),
            )
        # Every incarnation journals a strictly higher epoch before
        # acting on anything — which fences a predecessor out.
        self._record("epoch", epoch=self.state.epoch + 1)
        self.epoch = self.core.epoch = self.state.epoch
        #: what a fenced incarnation answers: the worker backs off and
        #: re-resolves the live AM before retrying.
        self._superseded = {
            "__error__": f"AM epoch {self.epoch} superseded",
            "__retry__": "am_superseded",
        }
        if _replay is not None:
            self._derive()
        self.leases.start()

    def _record(self, kind: str, /, **data) -> None:
        """The AM's one transition: journal the record, then apply it.

        The only ``journal.append`` call site and the only caller of
        ``state.apply`` on the live path — so nothing a reply can reveal
        exists before its record is durable (journaled ⊇ replied, by
        construction), and the live state cannot drift from what a
        successor replays.
        """
        with self._lock:
            self.state.apply(kind, self.journal.append(kind, **data)["data"])
            if self.state.complete:
                self._complete.set()

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
        self.leases.stop()
        if self._server is not None:
            self._server.close()
        self.barriers.release_all()
        self.journal.close()

    def abandon(self) -> None:
        """Fence this incarnation out so a successor can take over.

        Unlike :meth:`close` this releases blocked workers with a
        *retryable* error — they back off, re-enroll with the successor,
        and retransmit — and leaves the journal open for hand-off (a
        file-backed journal's own handle is closed; the successor
        re-reads the file).
        """
        self.leases.stop()
        with self._lock:
            self._fenced = True
            self.barriers.release_all(self._superseded)
            if self.tracer is not None:
                self.tracer.instant(
                    "am.abandoned", track="am", cat="am", epoch=self.epoch,
                )
        if self._server is not None:
            self._server.close()
        if self.journal.path is not None:
            self.journal.close()

    # -- the message handler (single entry point, both transports) ------------

    def handle(self, message: Message) -> dict:
        """Dispatch one deduplicated message to its protocol handler."""
        if self._fenced:
            # A fenced incarnation must never act: the worker backs off
            # and re-resolves the live AM (its endpoint list / the
            # redirected in-memory transport) before retrying.
            return self._superseded
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
            return self.barriers.sync(worker, payload)
        if message.msg_type is MessageType.STATE_UPLOAD:
            return self._handle_final(worker, payload)
        if message.msg_type is MessageType.STATE_CHUNK:
            return self.replication.handle_chunk(worker, payload)
        if message.msg_type is MessageType.STATE_DONE:
            return self.replication.handle_done(worker, payload)
        if message.msg_type is MessageType.STATE_FETCH:
            return self.replication.handle_fetch(worker, payload)
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
        state = self.state
        with self._lock:
            # Record the worker's peer-mesh address first: by the time a
            # commit plan is minted every reported joiner has polled at
            # least once, so the frozen ring payload is never partial.
            peer = (payload or {}).get("peer")
            if peer and state.peers.get(worker) != str(peer):
                self._record("peer", worker=worker, addr=str(peer))
            offer = self.replication.take_offer(
                worker,
                state.plan["generation"] if state.plan is not None
                else state.generation,
            )
            if offer is not None:
                return offer
            # Initial workers start from scratch at iteration 0.
            if state.generation == 0 and worker in state.initial_workers:
                return {
                    "status": "start",
                    "spec": self.spec.to_payload(),
                    "group": list(state.initial_workers),
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

    def _join_offer(self, plan: dict, descriptor: dict) -> dict:
        """A joiner's ``join`` reply around its ``state_transfer``."""
        offer = {
            "status": "join",
            "spec": self.spec.to_payload(),
            "group": list(plan["new_group"]),
            "generation": plan["generation"],
            "iteration": plan["commit_iteration"],
            "state_transfer": descriptor,
            "epoch": self.epoch,
            "job": self.am.job_id,
        }
        ring = self._ring_for(plan)
        if ring is not None:
            offer["ring"] = ring
        return offer

    # -- step 3: boundary coordination ----------------------------------------

    def _handle_coordinate(
        self, worker: str, iteration: int,
        ring_epoch: "int | None" = None,
    ) -> dict:
        state = self.state
        with self._lock:
            if worker in state.condemned:
                return condemned_reply(worker)
            # With the ring plane active the AM no longer sees
            # per-iteration syncs; boundary coordinates are its view of
            # training progress.  One watermark per boundary (the first
            # worker to reach it): enough that a successor never
            # schedules a commit in the workers' past.
            if iteration > state.progress:
                self._record("progress", iteration=iteration)
            directive = self.am.coordinate(worker, iteration)
            if directive.kind is DirectiveKind.CONTINUE:
                last = state.last_commit
                if (
                    last is not None
                    and iteration == last["commit_iteration"]
                    and worker in last["old_group"]
                ):
                    # The predecessor committed this adjustment but its
                    # adjust reply to this worker died with it; the
                    # retransmitted COORDINATE must be answered with the
                    # directive again or the worker would miss the
                    # membership change entirely.
                    return self._adjust_directive(last, worker)
                reply = {"kind": "continue"}
                # Piggyback the current generation's ring on boundary
                # replies until the worker reports it installed; every
                # member coordinating at this boundary receives the
                # identical payload (same order, same activation), so
                # the plane switches atomically at the boundary.
                if ring_epoch != state.generation:
                    ring = self._ring_payload(
                        state.generation, state.current_group,
                        active_from=iteration,
                    )
                    if ring is not None:
                        reply["ring"] = ring
                return reply
            if state.plan is None:
                self._mint_plan(directive)
            if worker not in state.acked:
                self._record(
                    "ack", worker=worker,
                    generation=state.plan["generation"],
                )
            reply = self._adjust_directive(state.plan, worker)
            self._maybe_finish()
            return reply

    def _adjust_directive(self, plan: dict, worker: str) -> dict:
        """The adjust directive of ``plan`` — the in-flight ``plan``
        record, or a ``commit`` record being re-served (lock held)."""
        in_flight = plan is self.state.plan
        reply = {
            "kind": "adjust",
            "group": list(plan["new_group"]),
            "generation": plan["generation"],
            "commit_iteration": plan["commit_iteration"],
            # A committed adjustment's snapshot was replicated before
            # the commit; nobody re-uploads.
            "upload": in_flight and worker == plan["uploader"],
        }
        ring = self._ring_for(plan)
        if ring is not None:
            reply["ring"] = ring
        if in_flight and plan.get("shards"):
            # Owners freeze the blob locally; the uploader reuses
            # the deterministic transfer id so the AM's copy and
            # the owners' copies are the same addressable transfer.
            reply["shards"] = dict(plan["shards"])
        return reply

    def _ring_for(self, plan: dict) -> "dict | None":
        """``plan``'s ring: the frozen one while the plan is in flight,
        recomputed when a committed one is re-served."""
        if plan is self.state.plan:
            return self._plan_ring
        return self._ring_payload(
            plan["generation"], plan["new_group"],
            active_from=plan["commit_iteration"] + 1,
        )

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
            addr = self.state.peers.get(member)
            if addr is None:
                return None
            peers[member] = addr
        return {
            "epoch": generation,
            "order": list(group),
            "peers": peers,
            "active_from": int(active_from),
        }

    def _mint_plan(self, directive) -> None:
        """Lock held: the first adjust directive mints the commit plan."""
        state = self.state
        generation = state.generation + 1
        old_group = list(self.am.group)
        new_group = list(directive.new_group)
        joins = any(w not in old_group for w in new_group)
        shards = None
        if self.spec.replication_shards > 0 and joins:
            # Sharded migration: elect shard owners among the survivors
            # that have a peer address (they must be reachable over the
            # mesh) and fix the deterministic transfer id now, so the
            # uploader, every owner, and every joiner agree on it
            # without another exchange.
            owners = [
                w for w in old_group
                if w not in state.condemned and w in state.peers
            ][:self.spec.replication_shards]
            if owners:
                shards = {
                    "transfer_id": f"shard/g{generation}",
                    "owners": owners,
                    "count": len(owners),
                }
        self._record(
            "plan",
            generation=generation,
            commit_iteration=directive.commit_iteration,
            old_group=old_group,
            new_group=new_group,
            # The first surviving old-group member replicates state to
            # the joiners; without joiners there is nothing to replicate.
            uploader=old_group[0] if joins else None,
            shards=shards,
        )
        self._install_plan()

    def _install_plan(self) -> None:
        """Lock held: what an in-flight plan needs beyond the fold —
        derived at live mint and, identically, after replay."""
        plan = self.state.plan
        if self._requested_at is None:
            self._requested_at = time.perf_counter()
        # Freeze the new generation's ring now: every joiner reported
        # (scale-out plans are only minted after all reports, and a
        # report is a JOIN poll that recorded the peer address), so the
        # mesh is complete — and freezing means survivors' directives
        # and joiners' offers all ship the identical ring.  The commit
        # iteration itself still runs on the star path (activation is
        # one past it), giving joiners the slack to fetch state.
        self._plan_ring = self._ring_payload(
            plan["generation"], plan["new_group"],
            active_from=plan["commit_iteration"] + 1,
        )
        self.replication.forget(joiners_of(plan))

    def _maybe_finish(self) -> None:
        """Lock held: commit the plan once its acks and snapshot are in."""
        state = self.state
        plan = state.plan
        if plan is None:
            return
        # A condemned member will never ack its directive — the commit
        # must not wait for the very worker the adjustment is evicting.
        if not state.acked >= set(plan["old_group"]) - state.condemned:
            return
        if plan["uploader"] is not None and state.plan_snapshot is None:
            return
        removed = [
            w for w in plan["old_group"] if w not in plan["new_group"]
        ]
        # Journal the commit *before* the inner AM transitions: once any
        # worker observes the new generation the successor must agree it
        # exists.
        self._record(
            "commit",
            generation=plan["generation"],
            commit_iteration=plan["commit_iteration"],
            old_group=plan["old_group"],
            new_group=plan["new_group"],
            uploader=plan["uploader"],
            latency=time.perf_counter() - self._requested_at,
            departed={
                worker: {
                    "iteration": plan["commit_iteration"],
                    "digest": None,
                    "evicted": True,
                }
                for worker in self.leases.recovered(removed, self._clock())
            },
        )
        self.am.finish_adjustment()
        self._requested_at = None
        self.barriers.drop_superseded()
        # More condemned workers may have queued up while this plan was
        # in flight; evict them in the next adjustment immediately.
        self._mint_evictions()

    # -- final reports ----------------------------------------------------------

    def _handle_final(self, worker: str, payload: dict) -> dict:
        """``STATE_UPLOAD``: a worker's closing report (digest, removed)."""
        if not payload.get("final"):
            return {"ok": False, "reason": "only final reports are uploaded"}
        iteration = int(payload.get("iteration", 0))
        with self._lock:
            self._record(
                "final", worker=worker, iteration=iteration,
                digest=payload.get("digest"),
                removed=bool(payload.get("removed")),
            )
            # A finishing worker proves the whole group completed
            # every earlier barrier (lockstep); raise the floor so
            # post-failover retransmissions of those syncs are
            # answered with a repairable error, not a fresh barrier
            # nobody else will ever join.
            self.barriers.advance_floor(self.state.generation, iteration)
        return {"ok": True}

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
        request = _adjustment_request(payload)
        with self._lock:
            accepted = self._accept(
                kind=request.kind.value, add=list(request.add_workers),
                remove=list(request.remove_workers), origin=origin,
                at_iteration=request.at_iteration,
            )
            if accepted:
                if self.tracer is not None:
                    self.tracer.instant(
                        "am.resize_accepted", track="am", cat="am",
                        kind=request.kind.value, origin=origin,
                        at_iteration=request.at_iteration,
                    )
                self.metrics.counter(f"am.resizes.{origin}").inc()
        return {"accepted": accepted, "epoch": self.epoch}

    def _accept(self, **request) -> bool:
        """Lock held: offer ``request`` (its ``request``-record form) to
        the inner AM; journal it and start the latency clock if taken."""
        if not self.am.request_adjustment(_adjustment_request(request)):
            return False
        self._record("request", **request)
        self._requested_at = time.perf_counter()
        return True

    # -- failover: re-enrollment ------------------------------------------------

    def _handle_enroll(self, worker: str, payload: dict) -> dict:
        """A surviving worker re-introduces itself to a successor AM.

        The worker reports where it stands (generation, iteration, ring
        epoch, peer address); the AM answers with its fencing epoch and
        a verdict: ``ok`` (resume), ``evicted`` (you were condemned or
        already scaled out — finish and depart), or ``unknown``.
        """
        payload = payload or {}
        state = self.state
        with self._lock:
            peer = payload.get("peer")
            if peer and state.peers.get(worker) != str(peer):
                self._record("peer", worker=worker, addr=str(peer))
            if worker in state.condemned or worker in state.departed:
                status = "evicted"
            elif worker in state.current_group or (
                state.plan is not None and worker in state.plan["new_group"]
            ):
                status = "ok"
            else:
                status = "unknown"
            self.metrics.counter("am.enrollments").inc()
            if self.tracer is not None:
                self.tracer.instant(
                    "worker.enroll", track="am", cat="failover",
                    worker=worker, status=status, epoch=self.epoch,
                    generation=state.generation,
                    worker_generation=payload.get("generation"),
                    worker_iteration=payload.get("iteration"),
                )
            return {
                "epoch": self.epoch,
                "generation": state.generation,
                "status": status,
                "job": self.am.job_id,
            }

    # -- lease-based worker failure detection -----------------------------------

    def check_leases(self, now: "float | None" = None) -> "list[str]":
        """Condemn workers whose lease expired; mint their eviction.

        Public so injectable-clock tests (and the chaos soak) can drive
        detection deterministically without the supervisor thread.
        Returns the workers condemned by this sweep.
        """
        with self._lock:
            if self._fenced or self.spec.worker_lease_ttl <= 0:
                return []
            if now is None:
                now = self._clock()
            doomed = self.leases.expired(self.barriers.parked(), now)
            for worker, deadline in doomed:
                self._record("condemn", worker=worker)
                self.leases.condemned(worker, now, deadline)
                self._abort_if_uploader_dead()
                self.barriers.release_worker(worker)
            if doomed:
                self._mint_evictions()
            return [worker for worker, _ in doomed]

    def _mint_evictions(self) -> None:
        """Lock held: turn condemned workers into a scale-in request."""
        state = self.state
        group = set(state.current_group)
        pending = sorted(
            w for w in state.condemned
            if w in group and w not in state.departed
        )
        if not pending:
            return
        if state.plan is not None or state.pending_request is not None:
            return  # queued behind the in-flight adjustment
        if set(pending) >= group:
            return  # scale-in cannot remove every worker
        if self._accept(
            kind=AdjustmentKind.SCALE_IN.value, add=[], remove=pending,
            auto=True, origin="lease",
        ):
            self.metrics.counter("am.evictions").inc(len(pending))
            if self.tracer is not None:
                self.tracer.instant(
                    "am.eviction_minted", track="am", cat="failover",
                    remove=pending,
                )

    def _abort_if_uploader_dead(self) -> None:
        """Lock held: abandon a plan whose snapshot can never arrive.

        The elected uploader died before replicating: the scale-out
        cannot ever gather its snapshot, so the plan is aborted back to
        the last committed generation rather than wedging every joiner.
        Any survivor that already acked the directive has advanced into
        the aborted generation and will fail loudly at its next sync —
        an explicit error beats the silent wedge.
        """
        state = self.state
        plan = state.plan
        if (
            plan is None or plan["uploader"] not in state.condemned
            or state.plan_snapshot is not None
        ):
            return
        self._record("abort")
        self._requested_at = None
        self.replication.forget(joiners_of(plan))
        self._position_inner_am()
        self.metrics.counter("am.plans_aborted").inc()
        if self.tracer is not None:
            self.tracer.instant(
                "am.plan_aborted", track="am", cat="failover",
                generation=plan["generation"],
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

        Replay, journal a higher epoch, derive: the successor folds
        every journaled record into its state, journals a strictly
        higher fencing epoch (locking the predecessor out of the wire
        handshake), rebuilds everything volatile from the fold
        (:meth:`_derive`) and resumes: an in-flight commit whose acks
        and snapshot are all journaled is completed; one whose uploader
        is gone is aborted back to the last committed generation.
        """
        state = JournalState.replay(journal.records())
        if state.job_id is None or state.spec_payload is None:
            raise JournalError("journal holds no init record to recover from")
        return cls(
            JobSpec.from_payload(state.spec_payload), state.initial_workers,
            job_id=state.job_id, tracer=tracer, metrics=metrics,
            journal=journal, clock=clock, _replay=state,
        )

    def _derive(self) -> None:
        """Rebuild everything volatile from a replayed fold (ctor path).

        The same functions the live path runs after a record — nothing
        here is a second spelling of a handler.  Not rebuilt, because
        the workers' own retransmissions and re-enrollment rebuild them:
        open barriers, leases, the fleet view, the reply cache.
        """
        state = self.state
        # Everything at or past the journaled watermark is live; any
        # fresh sync below it is a retransmission whose barrier died
        # with the predecessor and must take the repair path.
        self.barriers.floors[state.generation] = state.progress
        self.leases.adopt(self._clock())
        self._position_inner_am()
        if state.plan is not None:
            self._install_plan()
        self.replication.derive()
        self.metrics.counter("am.journal.replayed").inc(state.replayed)
        self.metrics.counter("am.failover").inc()
        if self.tracer is not None:
            self.tracer.instant(
                "am.failover", track="am", cat="failover",
                epoch=self.epoch, generation=state.generation,
                replayed=state.replayed,
            )
        self._abort_if_uploader_dead()
        self._mint_evictions()
        self._maybe_finish()

    def _position_inner_am(self) -> None:
        """Put the inner AM where the fold says the job stands.

        Run after a live ``abort`` and after replay.  Reports are not
        journaled and need not be: a plan is only minted once every
        joiner reported, and without one the joiners' JOIN polls
        re-report to whoever answers.
        """
        state = self.state
        plan = state.plan
        request = (
            None if state.pending_request is None
            else _adjustment_request(state.pending_request)
        )
        if plan is not None:
            self.am.reposition(
                MasterState.COMMIT_SCHEDULED, plan["old_group"], request,
                reported=request.add_workers,
                commit_iteration=plan["commit_iteration"],
                latest_iteration=state.progress,
                adjustments_committed=state.adjustments_committed,
            )
            return
        self.am.reposition(
            MasterState.RUNNING, state.current_group, None,
            latest_iteration=state.progress,
            adjustments_committed=state.adjustments_committed,
        )
        # Accepted but not yet minted: no worker saw a directive (plans
        # are journaled before the first one is served), so a successor
        # is free to re-drive step 1 and schedule a fresh boundary from
        # its own watermark.
        if request is not None and self.am.request_adjustment(request):
            self._requested_at = time.perf_counter()

    # -- progress ---------------------------------------------------------------

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
            return {w: r["digest"] for w, r in self.state.final.items()}

    def status(self) -> dict:
        """Snapshot of job progress (the ``STATUS`` reply)."""
        state = self.state
        with self._lock:
            plan = state.plan
            return {
                "iteration": max(
                    state.progress, self.barriers.latest_iteration
                ),
                "generation": state.generation,
                "group": list(state.current_group),
                "adjustments_committed": state.adjustments_committed,
                "adjustment_pending": plan is not None
                or state.pending_request is not None,
                "complete": self._complete.is_set(),
                "digests": self.final_digests(),
                "departed": sorted(state.departed),
                "commit_latencies": list(state.commit_latencies),
                "handled": self.core.handled,
                "duplicates": self.core.duplicates,
                "uploads_completed": self.replication.chunks.completed,
                "downloads_active": len(self.replication.downloads),
                "epoch": self.epoch,
                "condemned": sorted(state.condemned),
                "journal_records": len(self.journal),
                # What the AM is waiting on: per open barrier the
                # members not yet contributed; for an in-flight plan
                # the un-acked members, whether its snapshot arrived
                # (``uploader`` None: none is expected) and the joiners
                # that have not fetched it.
                "waiting_on": {
                    "barriers": self.barriers.waiting(),
                    "plan": None if plan is None else {
                        "generation": plan["generation"],
                        "unacked": sorted(
                            set(plan["old_group"]) - state.condemned
                            - state.acked
                        ),
                        "uploader": plan["uploader"],
                        "snapshot": state.plan_snapshot is not None,
                        "unfetched": self.replication.unfetched(plan),
                    },
                },
            }
