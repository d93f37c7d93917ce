"""The Elan control plane on simulated time.

Drives the *real* :class:`~repro.coordination.master.ApplicationMaster`
from discrete-event processes: a lockstep training group iterating at the
calibrated iteration time, new-worker processes that start + initialize
(with jitter) before reporting, and commits whose pause is computed from
the topology-aware replication plan.  The same AM code thus runs in three
harnesses — unit tests, the networked AM, and this simulator —
and the simulator's measured adjustment latencies cross-validate the
closed-form :class:`~repro.baselines.timing.ElanAdjustmentModel`.

The twin times adjustments and nothing else: it records the live AM's
adjustment spans and instants on ``job.tracer`` and its adjustment
metrics on ``job.metrics``, on simulated time.  Failure detection and
recovery (leases, eviction commits, AM failover) are the networked AM's
job (:mod:`repro.net.leases`, :mod:`repro.net.master_service`).
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
from .master import (
    AdjustmentKind,
    AdjustmentRequest,
    ApplicationMaster,
    DirectiveKind,
)
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
        tracer: "Tracer | None" = None,
    ):
        self.sim = Simulator()
        #: Span recorder on *simulated* time — the adjustment spans the
        #: live stack emits on wall time (docs/OBSERVABILITY.md).  An
        #: externally supplied tracer must read this job's ``sim.now``.
        self.tracer = tracer or Tracer(
            clock=lambda: self.sim.now, process="elan-dessim"
        )
        #: The twin's adjustment counts, commit times and group size.
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
        self._trainer = self.sim.process(self._training_loop(), name="trainer")

    # -- the lockstep training group -------------------------------------------

    def _iteration_time(self) -> float:
        workers = len(self.am.group)
        base = self.throughput.iteration_time(workers, self.total_batch_size)
        if self.iteration % self.coordination_interval == 0:
            base += calibration.COORDINATION_BLOCKING_COST
        return base

    def _training_loop(self):
        while self._running:
            iteration_started = self.sim.now
            yield self.sim.timeout(self._iteration_time())
            self.iteration += 1
            self.tracer.add_span(
                "iteration", iteration_started, self.sim.now,
                track="trainer", cat="train", iteration=self.iteration,
            )
            self.iterations_by_time.append((self.sim.now, self.iteration))
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
                    epoch=1,
                )
                yield from self._commit(directive)

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
