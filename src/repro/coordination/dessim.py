"""The Elan control plane on simulated time.

Drives the *real* AM decisions of :mod:`repro.coordination.master`
(:class:`~repro.coordination.master.PendingAdjustment`,
:func:`~repro.coordination.master.adjusted_group`) from discrete-event
processes: a lockstep training group iterating at the calibrated
iteration time, new-worker processes that start + initialize (with
jitter) before reporting, and commits whose pause is computed from the
topology-aware replication plan.  The same decision functions thus run
in three harnesses — unit tests, the networked AM, and this simulator —
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
    PendingAdjustment,
    adjusted_group,
    check_group,
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
        check_group(worker_ids, coordination_interval)
        #: the committed group, and the adjustment in flight (if any).
        self.group: typing.Tuple[str, ...] = tuple(worker_ids)
        self.pending: "PendingAdjustment | None" = None
        #: the open ``am.directive`` span (ADJUST issue -> commit).
        self._directive_span = None
        _cluster, gpus = cluster_for_gpu_count(workers + 64)
        self._gpu_pool = list(gpus)
        for worker_id in worker_ids:
            self._worker_gpus[worker_id] = self._gpu_pool.pop(0)
        self._trainer = self.sim.process(self._training_loop(), name="trainer")

    # -- the lockstep training group -------------------------------------------

    def _iteration_time(self) -> float:
        workers = len(self.group)
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
            pending = self.pending
            if pending is not None and pending.due(self.iteration):
                self._directive_span = self.tracer.begin(
                    "am.directive", track="am", cat="am",
                    kind=pending.request.kind.value,
                    commit_iteration=pending.commit_iteration,
                    epoch=1,
                )
                yield from self._commit(pending)

    def _commit(self, pending: PendingAdjustment):
        request = pending.request
        commit_time = self.sim.now
        old_size = len(self.group)
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
        self.group = adjusted_group(request, self.group)
        self.pending = None
        self.tracer.end(self._directive_span, group_size=len(self.group))
        for worker_id in request.remove_workers:
            self._gpu_pool.insert(0, self._worker_gpus.pop(worker_id))
        self.tracer.add_span(
            "adjust.commit", commit_time, self.sim.now,
            track="am", cat="adjust", kind=request.kind.value,
            commit_iteration=pending.commit_iteration,
            old_workers=old_size, new_workers=len(self.group),
        )
        metrics = self.metrics
        metrics.histogram("commit_seconds").observe(self.sim.now - commit_time)
        metrics.counter(f"adjustments.{request.kind.value}").inc()
        metrics.gauge("workers").set(len(self.group))
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
        sources = [self._worker_gpus[w] for w in self.group]
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
        if self.pending is not None:
            self.pending.report(worker_id, self.iteration)

    def _request(self, request: AdjustmentRequest) -> None:
        """Step 1: accept ``request`` unless one is already in flight.

        ``self.iteration`` serves as the watermark of the latest
        coordinated boundary: a commit boundary depends on it only through
        ``iteration // interval``, and no process yields between a
        boundary's increment and its coordination.
        """
        if self.pending is not None:
            raise RuntimeError("an adjustment is already in flight")
        request.validate(self.group)
        self.pending = PendingAdjustment(
            request, self.iteration, self.coordination_interval, self.tracer,
        )

    def request_scale_out(self, count: int):
        """Process: request a scale-out and launch new-worker processes."""
        new_ids = [f"w{self._next_index + i}" for i in range(count)]
        self._next_index += count
        for worker_id in new_ids:
            self._worker_gpus[worker_id] = self._gpu_pool.pop(0)
        self._request(
            AdjustmentRequest(AdjustmentKind.SCALE_OUT,
                              add_workers=tuple(new_ids))
        )
        self.tracer.instant(
            "adjust.request", track="am", cat="adjust",
            kind="scale_out", workers=new_ids,
        )
        self._pending_request_time = self.sim.now
        for worker_id in new_ids:
            self.sim.process(self._new_worker_process(worker_id))

    def request_scale_in(self, count: int):
        """Request removal of the last ``count`` workers."""
        victims = self.group[-count:]
        self._request(
            AdjustmentRequest(AdjustmentKind.SCALE_IN, remove_workers=victims)
        )
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
