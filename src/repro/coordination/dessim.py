"""The Elan control plane on simulated time.

Drives the *real* :class:`~repro.coordination.master.ApplicationMaster`
from discrete-event processes: a lockstep training group iterating at the
calibrated iteration time, new-worker processes that start + initialize
(with jitter) before reporting, and commits whose pause is computed from
the topology-aware replication plan.  The same AM code thus runs in three
harnesses — unit tests, the networked AM, and this simulator —
and the simulator's measured adjustment latencies cross-validate the
closed-form :class:`~repro.baselines.timing.ElanAdjustmentModel`.

The twin records what the live AM records, on simulated time: spans and
instants on ``job.tracer``, metrics under the live AM's names on
``job.metrics``.  It supervises workers through a
:class:`~repro.coordination.store.LeaseTable` and fails its AM over the
way the live AM does: a fresh engine placed by
:meth:`~repro.coordination.master.ApplicationMaster.reposition` where its
predecessor stood.
"""

from __future__ import annotations

import dataclasses
import typing

import numpy as np

from ..observability import MetricRegistry, Tracer
from ..perfmodel import calibration
from ..perfmodel.models import ModelSpec
from ..perfmodel.throughput import ClusterSpec, PAPER_CLUSTER, ThroughputModel
from ..replication import plan_migration, plan_replication
from ..topology import BandwidthProfile, TopologyNode, cluster_for_gpu_count
from .faults import FaultPlan
from .master import (
    AdjustmentKind,
    AdjustmentRequest,
    ApplicationMaster,
    DirectiveKind,
)
from .store import LeaseTable
from ..simcore import Simulator


@dataclasses.dataclass(frozen=True)
class SimulatedAdjustment:
    """Measured outcome of one adjustment in the simulation."""

    kind: AdjustmentKind
    request_time: float
    commit_time: float
    resume_time: float
    iterations_during_startup: int

    @property
    def pause(self) -> float:
        """Training downtime (the Fig. 15 metric)."""
        return self.resume_time - self.commit_time

    @property
    def request_to_resume(self) -> float:
        """End-to-end latency including the hidden start + init."""
        return self.resume_time - self.request_time


class SimulatedElasticJob:
    """One elastic job's control plane executing on the DES kernel."""

    def __init__(
        self,
        model: ModelSpec,
        workers: int = 8,
        total_batch_size: int = 256,
        coordination_interval: int = 1,
        cluster: ClusterSpec = PAPER_CLUSTER,
        profile: "BandwidthProfile | None" = None,
        seed: int = 0,
        lease_ttl: "float | None" = None,
        supervision_interval: "float | None" = None,
        fault_plan: "FaultPlan | None" = None,
        tracer: "Tracer | None" = None,
    ):
        self.sim = Simulator()
        #: Span recorder on *simulated* time — the adjustment spans the
        #: live stack emits on wall time (docs/OBSERVABILITY.md).  An
        #: externally supplied tracer must read this job's ``sim.now``.
        self.tracer = tracer or Tracer(
            clock=lambda: self.sim.now, process="elan-dessim"
        )
        #: The live AM's metric names (failure detection, MTTR,
        #: failovers) plus the twin's adjustment counts.
        self.metrics = MetricRegistry()
        self.model = model
        self.throughput = ThroughputModel(model, cluster)
        self.profile = profile or BandwidthProfile()
        self.rng = np.random.default_rng(seed)
        self.coordination_interval = coordination_interval
        self.total_batch_size = total_batch_size
        self.iteration = 0
        self.iterations_by_time: typing.List[tuple] = []
        self.adjustments: typing.List[SimulatedAdjustment] = []
        self._pending_request_time: "float | None" = None
        self._worker_gpus: typing.Dict[str, TopologyNode] = {}
        self._next_index = workers
        self._running = True
        self._actions: typing.List = []

        # -- supervision twin (lease detect -> recover on sim time) --
        if lease_ttl is not None and lease_ttl <= 0:
            raise ValueError("lease_ttl must be > 0")
        self.lease_ttl = lease_ttl
        self.supervision_interval = supervision_interval or (
            lease_ttl / 4.0 if lease_ttl else 1.0
        )
        self.fault_plan = fault_plan
        #: Worker leases, ticking on *simulated* time: deadlines are
        #: measured in sim seconds.
        self.leases = LeaseTable(clock=lambda: self.sim.now)
        #: (worker_id, detection latency in sim seconds) per detection.
        self.detections: typing.List[tuple] = []
        #: (removed worker ids, MTTR in sim seconds) per auto-recovery.
        self.recoveries: typing.List[tuple] = []
        self._dead: typing.Set[str] = set()
        self._forced_expiries_done: typing.Set[str] = set()
        self._am_crash_fired = False

        worker_ids = [f"w{i}" for i in range(workers)]
        self.am = ApplicationMaster(
            "sim-job", worker_ids,
            coordination_interval=coordination_interval,
            tracer=self.tracer,
        )
        #: the open ``am.directive`` span (ADJUST issue -> commit).
        self._directive_span = None
        _cluster, gpus = cluster_for_gpu_count(workers + 64)
        self._gpu_pool = list(gpus)
        for worker_id in worker_ids:
            self._worker_gpus[worker_id] = self._gpu_pool.pop(0)
            self._publish_lease(worker_id)
        self._trainer = self.sim.process(self._training_loop(), name="trainer")
        if self._supervision_enabled:
            self.sim.process(self._supervise_loop(), name="supervisor")

    @property
    def _supervision_enabled(self) -> bool:
        plan = self.fault_plan
        return self.lease_ttl is not None or (
            plan is not None
            and (plan.am_crash_iteration is not None or plan.lease_expiries)
        )

    # -- the lockstep training group -------------------------------------------

    def _iteration_time(self) -> float:
        workers = len(self.am.group)
        base = self.throughput.iteration_time(workers, self.total_batch_size)
        if self.iteration % self.coordination_interval == 0:
            base += calibration.COORDINATION_BLOCKING_COST
        return base

    def _training_loop(self):
        while self._running:
            if self._group_stalled():
                # A dead (or fenced-out) member never contributes to the
                # allreduce: the lockstep group blocks — and, crucially,
                # the blocked survivors stop heartbeating too.  Progress
                # resumes only once the supervisor repairs the group.
                yield self.sim.timeout(self.supervision_interval)
                continue
            iteration_started = self.sim.now
            yield self.sim.timeout(self._iteration_time())
            if self._group_stalled():
                continue  # a member died mid-iteration; the round aborts
            self.iteration += 1
            self.tracer.add_span(
                "iteration", iteration_started, self.sim.now,
                track="trainer", cat="train", iteration=self.iteration,
            )
            self.iterations_by_time.append((self.sim.now, self.iteration))
            self._heartbeat()
            if self.iteration % self.coordination_interval != 0:
                continue
            directive = None
            for worker_id in self.am.group:
                directive = self.am.coordinate(worker_id, self.iteration)
            if directive.kind is DirectiveKind.ADJUST:
                self._directive_span = self.tracer.begin(
                    "am.directive", track="am", cat="am",
                    kind=directive.adjustment.kind.value,
                    commit_iteration=directive.commit_iteration,
                    epoch=self._epoch(),
                )
                yield from self._commit(directive)

    # -- leases & supervision (the live supervisor's simulated twin) -----------

    def _lease_key(self, worker_id: str) -> str:
        return f"elan/{self.am.job_id}/lease/{worker_id}"

    @property
    def _lease_prefix(self) -> str:
        return f"elan/{self.am.job_id}/lease/"

    def _publish_lease(self, worker_id: str) -> None:
        if self.lease_ttl is not None:
            self.leases.lease(self._lease_key(worker_id), self.lease_ttl)

    def _worker_dead(self, worker_id: str) -> bool:
        """True once the fault plan has killed (or fenced out) the worker."""
        if worker_id in self._dead:
            return True
        plan = self.fault_plan
        if plan is not None and plan.crashes_by(worker_id, self.iteration):
            return True
        return self.leases.lease_revoked(self._lease_key(worker_id))

    def _group_stalled(self) -> bool:
        return any(self._worker_dead(w) for w in self.am.group)

    def _heartbeat(self) -> None:
        """Per-iteration lease renewal by every live group member."""
        if self.lease_ttl is None:
            return
        for worker_id in self.am.group:
            if not self._worker_dead(worker_id):
                self.leases.keep_alive(self._lease_key(worker_id), self.lease_ttl)

    def _supervise_loop(self):
        while self._running:
            yield self.sim.timeout(self.supervision_interval)
            plan = self.fault_plan
            now = self.sim.now
            if plan is not None:
                if (
                    plan.am_crash_iteration is not None
                    and not self._am_crash_fired
                    and self.iteration >= plan.am_crash_iteration
                ):
                    self._am_crash_fired = True
                    self._fail_over()
                for key in plan.due_lease_expiries(now):
                    if key in self._forced_expiries_done:
                        continue
                    if self.leases.lease_deadline(key) is None:
                        continue
                    self._forced_expiries_done.add(key)
                    self.leases.force_expire(key)
            if self.lease_ttl is None:
                continue
            victims = []
            for key in self.leases.expired_keys(self._lease_prefix):
                worker_id = key.rsplit("/", 1)[-1]
                if worker_id not in self.am.group:
                    self.leases.delete(key)  # orphan lease; reap
                    continue
                # Expiry alone is ambiguous (blocked survivors lapse
                # too): condemn only plan-certified deaths and forced
                # revocations — the sim analogue of the live
                # thread-dead / revoked criteria.
                if self._worker_dead(worker_id):
                    deadline = self.leases.lease_deadline(key)
                    latency = max(0.0, now - deadline)
                    self.detections.append((worker_id, latency))
                    self.metrics.histogram(
                        "failure.detection_latency_seconds"
                    ).observe(latency)
                    self.metrics.counter("events.failure_detected").inc()
                    self.tracer.instant(
                        "failure.detected", track="supervisor",
                        cat="failure", worker=worker_id, latency=latency,
                        cause="lease_expired",
                    )
                    victims.append(worker_id)
            if victims:
                yield from self._recover(victims, detected_at=now)

    def _recover(self, victims: typing.List[str], detected_at: float):
        """Group surgery: evict the victims, resume the survivors."""
        survivors = tuple(w for w in self.am.group if w not in victims)
        if not survivors:
            raise RuntimeError(
                "every worker crashed; recovery needs a checkpoint"
            )
        yield self.sim.timeout(
            calibration.GROUP_RECONSTRUCT_TIME
            + calibration.DATA_REPARTITION_TIME
        )
        self._dead.update(victims)
        self._place(self.am, survivors)
        for worker_id in victims:
            self.leases.delete(self._lease_key(worker_id))
            self._gpu_pool.insert(0, self._worker_gpus.pop(worker_id))
        for worker_id in survivors:
            self.leases.delete(self._lease_key(worker_id))
            self._publish_lease(worker_id)
        mttr = self.sim.now - detected_at
        self.recoveries.append((list(victims), mttr))
        self.metrics.histogram("failure.mttr_seconds").observe(mttr)
        self.metrics.counter("events.recovery").inc()
        self.tracer.add_span(
            "recover", detected_at, self.sim.now,
            track="supervisor", cat="failure", removed=list(victims),
        )
        self.metrics.gauge("workers").set(len(survivors))

    # -- AM failover (the live promote's twin) -----------------------------------

    def _epoch(self) -> int:
        """The acting AM incarnation: 1, plus one per failover."""
        return 1 + int(self.metrics.counter("am.failover").value)

    def _fail_over(self) -> None:
        """The AM dies; a fresh engine takes over where it stood."""
        successor = ApplicationMaster(
            self.am.job_id, self.am.group,
            coordination_interval=self.coordination_interval,
            tracer=self.tracer,
        )
        self.am = self._place(successor, self.am.group)
        self.metrics.counter("am.failover").inc()
        self.tracer.instant(
            "am.failover", track="am", cat="am", epoch=self._epoch(),
        )

    def _place(
        self, engine: ApplicationMaster, group: typing.Sequence[str]
    ) -> ApplicationMaster:
        """Reposition ``engine`` at the acting AM's position with
        ``group`` as the membership."""
        am = self.am
        engine.reposition(
            am.state, group, am.pending, reported=am.reported,
            commit_iteration=am.commit_iteration,
            latest_iteration=am.latest_iteration,
            adjustments_committed=am.adjustments_committed,
        )
        return engine

    def _commit(self, directive):
        request = directive.adjustment
        commit_time = self.sim.now
        old_size = len(self.am.group)
        replicate_pause, reconfigure_pause = self._pause_components(request)
        # Step 4 (state replication), then step 5 (group reconstruction +
        # data repartition) — the same sub-span split the live commit
        # records, so phase breakdowns line up across harnesses.
        yield self.sim.timeout(replicate_pause)
        self.tracer.add_span(
            "commit.replicate", commit_time, self.sim.now,
            track="am", cat="adjust", targets=len(request.add_workers),
        )
        reconfigure_started = self.sim.now
        yield self.sim.timeout(reconfigure_pause)
        self.tracer.add_span(
            "commit.reconfigure", reconfigure_started, self.sim.now,
            track="am", cat="adjust",
        )
        startup_iters = self._iterations_since(self._pending_request_time)
        self.am.finish_adjustment()
        self.tracer.end(self._directive_span, group_size=len(self.am.group))
        for worker_id in request.remove_workers:
            self._gpu_pool.insert(0, self._worker_gpus.pop(worker_id))
            if self.lease_ttl is not None:
                self.leases.delete(self._lease_key(worker_id))
        for worker_id in request.add_workers:
            self._publish_lease(worker_id)
        self.tracer.add_span(
            "adjust.commit", commit_time, self.sim.now,
            track="am", cat="adjust", kind=request.kind.value,
            commit_iteration=directive.commit_iteration,
            old_workers=old_size, new_workers=len(self.am.group),
        )
        metrics = self.metrics
        metrics.histogram("commit_seconds").observe(self.sim.now - commit_time)
        metrics.counter(f"adjustments.{request.kind.value}").inc()
        metrics.gauge("workers").set(len(self.am.group))
        self.adjustments.append(
            SimulatedAdjustment(
                kind=request.kind,
                request_time=self._pending_request_time,
                commit_time=commit_time,
                resume_time=self.sim.now,
                iterations_during_startup=startup_iters,
            )
        )
        self._pending_request_time = None

    def _pause_components(self, request: AdjustmentRequest) -> "tuple[float, float]":
        """The commit pause split into (replicate, reconfigure) seconds."""
        fixed = (
            calibration.GROUP_RECONSTRUCT_TIME
            + calibration.DATA_REPARTITION_TIME
        )
        if request.kind is AdjustmentKind.SCALE_IN:
            return 0.0, fixed
        sources = [self._worker_gpus[w] for w in self.am.group]
        targets = [self._worker_gpus[w] for w in request.add_workers]
        if request.kind is AdjustmentKind.MIGRATION:
            plain = plan_migration(
                sources, targets, self.model.gpu_state_bytes,
                self.model.cpu_state_bytes,
            ).estimated_time(self.profile)
            chained = plan_replication(
                sources, targets, self.model.gpu_state_bytes,
                self.model.cpu_state_bytes, allow_chaining=True,
            ).estimated_time(self.profile)
            return min(plain, chained), fixed
        plan = plan_replication(
            sources, targets, self.model.gpu_state_bytes,
            self.model.cpu_state_bytes, allow_chaining=True,
        )
        return plan.estimated_time(self.profile), fixed

    def _pause_duration(self, request: AdjustmentRequest) -> float:
        """Total commit pause (kept for cost-model cross-validation)."""
        return sum(self._pause_components(request))

    def _iterations_since(self, when: "float | None") -> int:
        if when is None:
            return 0
        return sum(1 for t, _i in self.iterations_by_time if t >= when)

    # -- the scheduler side -----------------------------------------------------

    def _new_worker_process(self, worker_id: str):
        start = calibration.WORKER_START_TIME
        init = calibration.WORKER_INIT_TIME
        jitter = abs(float(self.rng.normal(0, calibration.WORKER_STARTUP_JITTER)))
        started = self.sim.now
        yield self.sim.timeout(start + init + jitter)
        self.tracer.add_span(
            "worker.start_init", started, self.sim.now,
            track=worker_id, cat="adjust", worker=worker_id,
        )
        self.tracer.instant(
            "worker.report", track=worker_id, cat="adjust", worker=worker_id
        )
        self.am.worker_report(worker_id)

    def request_scale_out(self, count: int):
        """Process: request a scale-out and launch new-worker processes."""
        new_ids = [f"w{self._next_index + i}" for i in range(count)]
        self._next_index += count
        for worker_id in new_ids:
            self._worker_gpus[worker_id] = self._gpu_pool.pop(0)
        accepted = self.am.request_adjustment(
            AdjustmentRequest(AdjustmentKind.SCALE_OUT,
                              add_workers=tuple(new_ids))
        )
        if not accepted:
            raise RuntimeError("an adjustment is already in flight")
        self.tracer.instant(
            "adjust.request", track="am", cat="adjust",
            kind="scale_out", workers=new_ids,
        )
        self._pending_request_time = self.sim.now
        for worker_id in new_ids:
            self.sim.process(self._new_worker_process(worker_id))

    def request_scale_in(self, count: int):
        """Request removal of the last ``count`` workers."""
        victims = tuple(self.am.group[-count:])
        if not self.am.request_adjustment(
            AdjustmentRequest(AdjustmentKind.SCALE_IN, remove_workers=victims)
        ):
            raise RuntimeError("an adjustment is already in flight")
        self.tracer.instant(
            "adjust.request", track="am", cat="adjust",
            kind="scale_in", workers=list(victims),
        )
        self._pending_request_time = self.sim.now

    def at(self, when: float, action: typing.Callable[[], None]) -> None:
        """Schedule a scheduler action at simulated time ``when``."""

        def fire():
            yield self.sim.timeout(max(0.0, when - self.sim.now))
            action()

        self._actions.append(self.sim.process(fire(), name=f"action@{when}"))

    def run(self, until: float) -> None:
        """Advance the simulation to ``until`` and stop training there.

        Re-raises the first exception any scheduled action hit (a failed
        scheduler call must not be swallowed by the event loop).
        """
        self.sim.run(until=until)
        self._running = False
        for action in self._actions:
            if action.triggered and not action.ok:
                action.value  # re-raises the stored exception

    # -- measurements --------------------------------------------------------------

    def effective_throughput(self, start: float, end: float) -> float:
        """Samples/second processed inside [start, end]."""
        iters = [
            i for t, i in self.iterations_by_time if start <= t <= end
        ]
        if len(iters) < 2:
            return 0.0
        return (iters[-1] - iters[0]) * self.total_batch_size / (end - start)
