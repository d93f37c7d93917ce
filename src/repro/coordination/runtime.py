"""The live elastic training runtime.

Real (not simulated) elastic data-parallel training: every worker is a
thread running the numpy training loop of :mod:`repro.training`; the
application master, coordination protocol, state replication, data
repartition and hybrid scaling all actually execute, end to end, through
the 5-step procedure of paper Fig. 2:

1. ``scale_out`` / ``scale_in`` / ``migrate`` — the service API the
   scheduler calls (Table III) — registers an adjustment with the AM and
   launches any new worker threads;
2. new workers start, initialize (a configurable simulated start+init
   delay — the cost the asynchronous mechanism hides) and *report*;
3. existing workers *coordinate* at iteration boundaries and keep
   training until the AM commits the adjustment at a boundary after the
   last report — shutdown-free, no waiting;
4. at the commit, the training state is captured through the hook
   registry and replicated (IO-free, in memory) to every new worker;
5. the data loader repartitions (free under serial semantics), the
   communication group is reconstructed (a new generation-stamped
   collective), and the scaling policy adjusts the batch size and
   learning-rate ramp (hybrid scaling).

Determinism note: because workers advance in lockstep through allreduce,
the parameter trajectory of the elastic job is a pure function of the
adjustment boundaries — which tests exploit to verify data consistency.
"""

from __future__ import annotations

import dataclasses
import threading
import time
import typing

import numpy as np

from ..core.hybrid_scaling import ScalingPolicy, StrongScalingPolicy
from ..observability import Tracer
from ..core.progressive_lr import (
    LrRamp,
    ramp_from_runtime_info,
    ramp_to_runtime_info,
)
from ..replication import LiveReplicator, ReplicationPlan, plan_replication
from ..topology import TopologyNode, gpus_of
from ..training.dataloader import SerialLoader
from ..training.datasets import Dataset
from ..training.architectures import Architecture, mlp_architecture
from ..training.optim import MomentumSGD
from ..training.state import RuntimeInfo, TrainingState
from .collective import Collective, CollectiveAborted
from .faults import ExponentialBackoff, FaultPlan, LeaseExpired, SilentCrash
from .hooks import Hook, HookRegistry
from .master import (
    AdjustmentKind,
    AdjustmentRequest,
    ApplicationMaster,
    Directive,
    DirectiveKind,
    StaleEpochError,
)
from .store import (
    KeyValueStore,
    LeaseRevoked,
    RetryingStore,
    StoreUnavailable,
)
from .telemetry import RuntimeTelemetry


@dataclasses.dataclass
class WorkerContext:
    """Everything one worker thread owns — its replica of the job state."""

    worker_id: str
    params: dict
    optimizer: MomentumSGD
    loader: SerialLoader
    runtime_info: RuntimeInfo
    generation: int
    group: typing.Tuple[str, ...]
    rank: int
    collective: Collective
    per_worker_batch: int
    lr_ramp: "LrRamp | None" = None
    gpu: "TopologyNode | None" = None


@dataclasses.dataclass(frozen=True)
class GroupPlan:
    """The published outcome of one committed adjustment (steps 4-5)."""

    generation: int
    group: typing.Tuple[str, ...]
    collective: Collective
    total_batch_size: int
    per_worker_batch: int
    lr_ramp: "LrRamp | None"
    commit_iteration: int
    kind: AdjustmentKind
    strategy: str
    replication_plan: "ReplicationPlan | None"


class _Worker:
    """Thread wrapper around a worker context."""

    def __init__(self, worker_id: str, context: "WorkerContext | None"):
        self.worker_id = worker_id
        self.context = context
        self.thread: "threading.Thread | None" = None
        self.join_event = threading.Event()  # set when a new worker may join
        self.iterations_run = 0
        self.losses: typing.List[float] = []

    @property
    def is_new(self) -> bool:
        """True until the worker has been handed a context at a commit."""
        return self.context is None


class ElasticRuntime:
    """A live elastic training job (one AM + worker threads)."""

    def __init__(
        self,
        dataset: Dataset,
        initial_workers: int = 2,
        total_batch_size: int = 64,
        base_lr: float = 0.05,
        hidden_dim: int = 32,
        momentum: float = 0.9,
        scaling_policy: "ScalingPolicy | None" = None,
        coordination_interval: int = 1,
        startup_delay: float = 0.0,
        cluster: "TopologyNode | None" = None,
        store: "KeyValueStore | None" = None,
        seed: int = 0,
        allreduce_timeout: float = 30.0,
        iteration_delays: "typing.Dict[str, float] | None" = None,
        max_micro_batch: "int | None" = None,
        architecture: "Architecture | None" = None,
        lease_ttl: "float | None" = None,
        supervision_interval: "float | None" = None,
        auto_recover: bool = True,
        fault_plan: "FaultPlan | None" = None,
        tracer: "Tracer | None" = None,
    ):
        if initial_workers < 1:
            raise ValueError("initial_workers must be >= 1")
        if total_batch_size < initial_workers:
            raise ValueError("total batch smaller than the worker count")
        self.dataset = dataset
        # The runtime is model-generic (the paper's §V-A claim): any
        # Architecture plugs in; elasticity only sees parameter dicts.
        self.architecture = architecture or mlp_architecture(
            dataset.input_dim, hidden_dim, dataset.num_classes
        )
        self.base_lr = base_lr
        self.momentum = momentum
        self.scaling_policy = scaling_policy or StrongScalingPolicy()
        self.coordination_interval = coordination_interval
        self.startup_delay = startup_delay
        self.seed = seed
        self.allreduce_timeout = allreduce_timeout
        #: Gradient accumulation: if a worker's share of the batch exceeds
        #: this (a GPU-memory stand-in), it is processed in micro-chunks
        #: whose gradients are averaged locally before the allreduce —
        #: numerically identical to the single big micro-batch.
        if max_micro_batch is not None and max_micro_batch < 1:
            raise ValueError("max_micro_batch must be >= 1")
        self.max_micro_batch = max_micro_batch
        self.store = store or KeyValueStore()
        #: Store facade with bounded-backoff retry: the AM state machine,
        #: lease traffic and fail-over reads ride out injected outages.
        self.reliable_store = RetryingStore(
            self.store,
            backoff=ExponentialBackoff(base=0.002, max_delay=0.05),
        )
        #: Fault injection: extra seconds of compute per iteration, keyed
        #: by worker id.  Mutable at runtime — tests and the straggler-
        #: mitigation example use it to slow one worker mid-training.
        self.iteration_delays = dict(iteration_delays or {})
        #: Fault injection: worker id -> iteration at which its thread
        #: raises (simulating a worker crash).
        self.failure_injections: typing.Dict[str, int] = {}
        #: Fault injection: worker id -> iteration at which its thread
        #: vanishes without recording anything (a kill -9 stand-in; only
        #: the lease supervisor can notice).
        self.silent_crash_injections: typing.Dict[str, int] = {}
        #: Crashed workers: worker id -> the exception that killed it.
        self.worker_failures: typing.Dict[str, BaseException] = {}
        # -- supervision (lease-based failure detection, §V-D extended) --
        if lease_ttl is not None and lease_ttl <= 0:
            raise ValueError("lease_ttl must be > 0")
        self.lease_ttl = lease_ttl
        self.supervision_interval = supervision_interval or (
            lease_ttl / 4.0 if lease_ttl else 0.05
        )
        self.auto_recover = auto_recover
        #: An expired lease whose thread is still alive is only treated
        #: as a hang after this many TTLs — healthy lockstep peers stop
        #: heartbeating too while blocked on a dead member, and must not
        #: be condemned with it.
        self.hang_grace_factor = 4.0
        self.fault_plan = fault_plan
        self._supervisor_thread: "threading.Thread | None" = None
        self._supervisor_stop = threading.Event()
        self._recovering = False
        self._am_crash_fired = False
        self._forced_expiries_done: typing.Set[str] = set()
        if fault_plan is not None:
            self.failure_injections.update(fault_plan.worker_crashes)
            self.silent_crash_injections.update(fault_plan.silent_crashes)
            if fault_plan.store_outage_ops:
                self.store.fail_next(fault_plan.store_outage_ops)
            if fault_plan.store_outages:
                self.store.set_outages(fault_plan.store_outages)
        self.replicator = LiveReplicator()
        #: Span recorder on wall time; the DES twin records the same span
        #: taxonomy on simulated time (docs/OBSERVABILITY.md).
        self.tracer = tracer or Tracer(process="elan-live")
        # Event timestamps ride the same clock the supervisor reads for
        # leases, so live logs and dessim replays are uniform.
        self.telemetry = RuntimeTelemetry(clock=self.store.clock)
        self.metrics = self.telemetry.metrics
        self.metrics.gauge("workers").set(initial_workers)
        self.hooks = HookRegistry()
        self._register_default_hooks()

        self._lock = threading.RLock()
        self._generation = 0
        self._stop_requested = False
        self._stop_at: "int | None" = None
        self._next_worker_index = initial_workers
        self.history: typing.List[GroupPlan] = []
        #: Wall-clock seconds each commit's steps 4-5 took (telemetry —
        #: the live analogue of the Fig. 15 measurement).
        self.commit_latencies: typing.List[float] = []

        # Optional topology: workers occupy GPUs in tree order, and every
        # commit produces a real replication plan against that placement.
        self._cluster = cluster
        self._free_gpus: typing.List[TopologyNode] = (
            list(gpus_of(cluster)) if cluster is not None else []
        )

        worker_ids = tuple(f"w{i}" for i in range(initial_workers))
        self.am = ApplicationMaster(
            job_id="job0",
            workers=worker_ids,
            store=self.reliable_store,
            coordination_interval=coordination_interval,
            tracer=self.tracer,
        )
        collective = Collective(0, worker_ids, timeout=allreduce_timeout)
        per_worker = total_batch_size // initial_workers
        self._workers: typing.Dict[str, _Worker] = {}
        for rank, worker_id in enumerate(worker_ids):
            context = WorkerContext(
                worker_id=worker_id,
                params=self.architecture.init(seed),
                optimizer=MomentumSGD(lr=base_lr, momentum=momentum),
                loader=SerialLoader(dataset.train_size, seed=seed),
                runtime_info=RuntimeInfo(
                    epoch=0,
                    iteration=0,
                    learning_rate=base_lr,
                    total_batch_size=per_worker * initial_workers,
                ),
                generation=0,
                group=worker_ids,
                rank=rank,
                collective=collective,
                per_worker_batch=per_worker,
                gpu=self._allocate_gpu(),
            )
            self._workers[worker_id] = _Worker(worker_id, context)
        self.hidden_dim = hidden_dim

    # -- hooks (Table III RegisterHook) ---------------------------------------

    def _register_default_hooks(self) -> None:
        self.hooks.register(Hook(
            name="model",
            capture=lambda ctx: {k: v.copy() for k, v in ctx.params.items()},
            restore=lambda ctx, s: ctx.params.update(
                {k: v.copy() for k, v in s.items()}
            ),
        ))
        self.hooks.register(Hook(
            name="optimizer",
            capture=lambda ctx: ctx.optimizer.state_dict(),
            restore=lambda ctx, s: ctx.optimizer.load_state_dict(s),
        ))
        self.hooks.register(Hook(
            name="loader",
            capture=lambda ctx: ctx.loader.state_dict(),
            restore=lambda ctx, s: ctx.loader.load_state_dict(s),
        ))
        self.hooks.register(Hook(
            name="runtime",
            capture=lambda ctx: ctx.runtime_info.to_dict(),
            restore=lambda ctx, s: ctx.__setattr__(
                "runtime_info", RuntimeInfo.from_dict(s)
            ),
        ))

    def register_hook(self, hook: Hook) -> None:
        """RegisterHook: add user state to what replication carries."""
        self.hooks.register(hook)

    # -- GPU placement ---------------------------------------------------------

    def _allocate_gpu(self) -> "TopologyNode | None":
        if self._cluster is None:
            return None
        if not self._free_gpus:
            raise RuntimeError("cluster has no free GPUs left")
        return self._free_gpus.pop(0)

    def _release_gpu(self, gpu: "TopologyNode | None") -> None:
        if gpu is not None:
            self._free_gpus.insert(0, gpu)
            self._free_gpus.sort(key=lambda g: g.name)

    # -- lifecycle ---------------------------------------------------------------

    def start(self) -> None:
        """Launch every worker thread (and the supervisor, if enabled)."""
        for worker in self._workers.values():
            if worker.thread is None:
                self._spawn(worker)
        if self._supervision_enabled and self._supervisor_thread is None:
            self._supervisor_thread = threading.Thread(
                target=self._supervise_loop, name="elan-supervisor",
                daemon=True,
            )
            self._supervisor_thread.start()

    @property
    def _supervision_enabled(self) -> bool:
        plan = self.fault_plan
        return self.lease_ttl is not None or (
            plan is not None
            and (plan.am_crash_iteration is not None or plan.lease_expiries)
        )

    def _spawn(self, worker: _Worker) -> None:
        worker.thread = threading.Thread(
            target=self._worker_main, args=(worker,),
            name=f"elan-{worker.worker_id}", daemon=True,
        )
        worker.thread.start()

    def stop(self, timeout: float = 30.0) -> None:
        """Stop training at the next coordination boundary and join."""
        self._supervisor_stop.set()
        with self._lock:
            self._stop_requested = True
            # Unblock any new workers still waiting to join.
            for worker in self._workers.values():
                if worker.is_new:
                    worker.join_event.set()
        deadline = time.monotonic() + timeout
        for worker in list(self._workers.values()):
            if worker.thread is not None:
                worker.thread.join(timeout=max(0.0, deadline - time.monotonic()))
        if self._supervisor_thread is not None:
            self._supervisor_thread.join(
                timeout=max(0.0, deadline - time.monotonic())
            )

    # -- the service API offered to the scheduler (Table III) --------------------

    def scale_out(self, count: int) -> "list[str]":
        """Request ``count`` extra workers; returns their ids immediately.

        New worker threads start and initialize asynchronously while
        training continues (the mechanism of §V-B).
        """
        if count < 1:
            raise ValueError("count must be >= 1")
        with self._lock:
            new_ids = [f"w{self._next_worker_index + i}" for i in range(count)]
            request = AdjustmentRequest(
                kind=AdjustmentKind.SCALE_OUT, add_workers=tuple(new_ids)
            )
            if not self.am.request_adjustment(request):
                raise RuntimeError("an adjustment is already in flight")
            self.tracer.instant(
                "adjust.request", track="am", cat="adjust",
                kind="scale_out", workers=new_ids,
            )
            self._next_worker_index += count
            for worker_id in new_ids:
                worker = _Worker(worker_id, context=None)
                self._workers[worker_id] = worker
                self._spawn(worker)
        return new_ids

    def scale_in(self, count: int = 1, worker_ids: "list[str] | None" = None) -> "list[str]":
        """Request removal of workers (specific ids, or the last ``count``)."""
        with self._lock:
            group = self.am.group
            if worker_ids is None:
                worker_ids = list(group[-count:])
            request = AdjustmentRequest(
                kind=AdjustmentKind.SCALE_IN, remove_workers=tuple(worker_ids)
            )
            if not self.am.request_adjustment(request):
                raise RuntimeError("an adjustment is already in flight")
            self.tracer.instant(
                "adjust.request", track="am", cat="adjust",
                kind="scale_in", workers=list(worker_ids),
            )
        return list(worker_ids)

    def migrate(self, count: "int | None" = None) -> "list[str]":
        """Migrate the whole job onto freshly launched workers."""
        with self._lock:
            group = self.am.group
            count = len(group) if count is None else count
            new_ids = [f"w{self._next_worker_index + i}" for i in range(count)]
            request = AdjustmentRequest(
                kind=AdjustmentKind.MIGRATION,
                add_workers=tuple(new_ids),
                remove_workers=tuple(group),
            )
            if not self.am.request_adjustment(request):
                raise RuntimeError("an adjustment is already in flight")
            self.tracer.instant(
                "adjust.request", track="am", cat="adjust",
                kind="migration", workers=new_ids,
            )
            self._next_worker_index += count
            for worker_id in new_ids:
                worker = _Worker(worker_id, context=None)
                self._workers[worker_id] = worker
                self._spawn(worker)
        return new_ids

    # -- AM fail-over (§V-D, live) -----------------------------------------------

    def crash_and_recover_am(self) -> None:
        """Kill the application master and recover a replacement from the
        persisted state machine (the paper's §V-D design, exercised live).

        Workers notice nothing: the next coordination is served by the
        recovered AM, and an in-flight adjustment (reports received so
        far, scheduled commit) carries over intact.
        """
        with self._lock:
            job_id = self.am.job_id
            self.am = ApplicationMaster.recover(
                job_id, self.reliable_store, tracer=self.tracer
            )
            # The persisted snapshot's iteration view is stale (it is only
            # written on protocol transitions, not every coordination).  A
            # recovered AM must first learn where training actually is, or
            # it could schedule a commit boundary in the PAST -- breaking
            # the all-workers-adopt-at-the-same-boundary invariant
            # (docs/PROTOCOL.md, invariant 1).  The replacement AM syncs
            # from the workers, exactly like a real fail-over would.
            live_iterations = [
                w.context.runtime_info.iteration
                for w in self._workers.values()
                if w.context is not None
            ]
            if live_iterations:
                self.am.latest_iteration = max(
                    self.am.latest_iteration, max(live_iterations)
                )
            self.telemetry.record_event(
                None, "am_failover", job_id=job_id,
                state=self.am.state.value, epoch=self.am.epoch,
            )
            self.tracer.instant(
                "am.failover", track="am", cat="am", epoch=self.am.epoch
            )

    def _validate_directive(self, directive: Directive) -> None:
        """Worker-side fencing: refuse directives from a superseded AM.

        A directive minted by epoch ``e`` is only obeyed while ``e`` is
        still the current epoch — a zombie master's decisions (captured
        before it was fenced off) can never commit an adjustment twice.
        """
        current = self.am.epoch
        if directive.epoch < current:
            self.telemetry.record_event(
                None, "stale_directive_rejected",
                directive_epoch=directive.epoch, current_epoch=current,
            )
            self.tracer.instant(
                "am.stale_directive_rejected", track="am", cat="am",
                directive_epoch=directive.epoch, current_epoch=current,
            )
            raise StaleEpochError(
                f"directive from epoch {directive.epoch} rejected; "
                f"current epoch is {current}"
            )

    # -- supervision: leases, detection, automatic recovery ----------------------

    def _lease_key(self, worker_id: str) -> str:
        return f"elan/{self.am.job_id}/lease/{worker_id}"

    @property
    def _lease_prefix(self) -> str:
        return f"elan/{self.am.job_id}/lease/"

    def _publish_lease(self, worker_id: str) -> None:
        """Establish (or revive) a worker's TTL lease; best-effort."""
        if self.lease_ttl is None:
            return
        try:
            self.reliable_store.lease(
                self._lease_key(worker_id), "alive", self.lease_ttl
            )
        except (StoreUnavailable, LeaseRevoked):
            pass

    def _renew_lease(self, worker_id: str) -> bool:
        """Heartbeat: refresh the worker's lease.

        Returns False only when the lease was revoked (the worker has
        been fenced out and must stop).  A store outage is *not* a
        reason to die — renewal degrades to best-effort and the TTL
        absorbs the gap.
        """
        if self.lease_ttl is None:
            return True
        key = self._lease_key(worker_id)
        try:
            if self.reliable_store.keep_alive(key, self.lease_ttl):
                return True
            # No live lease (e.g. the publish raced an outage): try to
            # (re-)establish one.  Only an explicit revocation is fatal.
            self.reliable_store.lease(key, "alive", self.lease_ttl)
            return True
        except LeaseRevoked:
            return False
        except StoreUnavailable:
            return True

    def _supervise_loop(self) -> None:
        while not self._supervisor_stop.wait(self.supervision_interval):
            try:
                self._supervise_once()
            except StoreUnavailable:
                continue  # outage outlasted the retry budget; next tick

    def _supervise_once(self) -> None:
        """One detect->decide->recover scan of the supervisor."""
        plan = self.fault_plan
        now = self.store.clock()
        if plan is not None:
            if (
                plan.am_crash_iteration is not None
                and not self._am_crash_fired
                and self.snapshot()["iteration"] >= plan.am_crash_iteration
            ):
                self._am_crash_fired = True
                self.crash_and_recover_am()
            for key in plan.due_lease_expiries(now):
                if key in self._forced_expiries_done:
                    continue
                if self.store.lease_deadline(key) is None:
                    continue  # lease not published yet; retry next tick
                self._forced_expiries_done.add(key)
                self.store.force_expire(key)
        if self.lease_ttl is not None:
            self._detect_expired_leases(now)
        if self.auto_recover:
            self._maybe_recover()

    def _detect_expired_leases(self, now: float) -> None:
        """Classify every expired lease and condemn the true culprits.

        A lapsed lease alone is not proof of death: lockstep peers
        blocked in an allreduce on a dead member stop heartbeating too.
        A worker is condemned only if

        * its thread is dead (crash, silent or loud), or
        * its lease was forcibly revoked (it has been fenced out), or
        * the expiry has outlasted the hang grace period *and* the
          collective names it as the member everyone is waiting on
          (falling back to the stalest deadline when the collective
          cannot tell — that worker stopped heartbeating first).
        """
        expired = self.reliable_store.expired_keys(self._lease_prefix)
        detected = []
        with self._lock:
            if self._stop_requested or self._recovering:
                return
            hang_grace = (
                self.lease_ttl * self.hang_grace_factor
                if self.lease_ttl is not None
                else float("inf")
            )
            suspects: typing.List[tuple] = []  # (deadline, worker, key)
            for key in expired:
                worker_id = key.rsplit("/", 1)[-1]
                if worker_id not in self.am.group:
                    # Orphan lease of a departed worker: reap it.
                    try:
                        self.store.delete(key)
                    except StoreUnavailable:
                        pass
                    continue
                if worker_id in self.worker_failures:
                    continue
                handle = self._workers.get(worker_id)
                if handle is None or handle.context is None:
                    continue
                deadline = self.store.lease_deadline(key)
                thread_dead = (
                    handle.thread is not None and not handle.thread.is_alive()
                )
                if thread_dead or self.store.lease_revoked(key):
                    cause = "fenced" if not thread_dead else "lease_expired"
                    detected.append(self._condemn(
                        handle, deadline, now, cause
                    ))
                elif deadline is not None and now - deadline > hang_grace:
                    suspects.append((deadline, worker_id, handle))
            if suspects and not detected:
                # Everyone over grace is either hung or blocked on the
                # hung one; ask the collective who never showed up.
                suspects.sort()
                context = suspects[0][2].context
                laggards = context.collective.laggards()
                culprits = [
                    s for s in suspects if s[1] in laggards
                ] or suspects[:1]
                for deadline, _worker_id, handle in culprits:
                    detected.append(self._condemn(
                        handle, deadline, now, "hang"
                    ))
        for worker_id, latency, cause in detected:
            self.telemetry.record_detection(worker_id, latency, cause=cause)
            self.tracer.instant(
                "failure.detected", track="supervisor", cat="failure",
                worker=worker_id, latency=latency, cause=cause,
            )

    def _condemn(self, handle: _Worker, deadline, now: float, cause: str):
        # Caller holds the runtime lock.
        worker_id = handle.worker_id
        latency = 0.0 if deadline is None else max(0.0, now - deadline)
        self.worker_failures[worker_id] = LeaseExpired(
            f"lease for {worker_id!r} expired ({cause}; deadline "
            f"{deadline}, noticed {now})"
        )
        # Tear the collective down so lockstep peers blocked on the dead
        # worker's contribution unwind instead of waiting out the
        # allreduce timeout.
        handle.context.collective.abort()
        return worker_id, latency, cause

    def _maybe_recover(self) -> None:
        with self._lock:
            if not self.worker_failures or self._stop_requested:
                return
        started = time.perf_counter()
        span = self.tracer.begin("recover", track="supervisor", cat="failure")
        try:
            removed = self.recover_from_failure()
        except RuntimeError:
            self.tracer.end(span, outcome="unrecoverable")
            return  # e.g. every worker died; only a checkpoint can help
        self.tracer.end(span, removed=list(removed))
        if removed:
            self.telemetry.record_recovery(
                removed, time.perf_counter() - started
            )
            self.metrics.gauge("workers").set(len(self.am.group))

    # -- worker-failure recovery (extension beyond the paper's §V-D) ------------

    def recover_from_failure(self, join_timeout: float = 5.0) -> "list[str]":
        """Resume training after worker crashes, without any checkpoint.

        Because every worker holds a full state replica (§IV-1), losing
        workers loses no state: the survivors' contexts — rewound to the
        last completed iteration — are regrouped under a fresh collective
        and their threads are restarted.  Returns the removed worker ids.

        The paper only makes the *AM* fault-tolerant; this extends the
        same replicated-state argument to worker crashes.
        """
        with self._lock:
            failed = set(self.worker_failures)
            if not failed:
                return []
            # Freeze lease-based detection while the group is in surgery:
            # survivors stop heartbeating between teardown and respawn,
            # and the supervisor must not mistake that for death.
            self._recovering = True
            survivors = tuple(
                w for w in self.am.group if w not in failed
            )
            if not survivors:
                self._recovering = False
                raise RuntimeError(
                    "every worker crashed; recovery needs a checkpoint"
                )
        try:
            return self._recover_locked(failed, survivors, join_timeout)
        finally:
            with self._lock:
                self._recovering = False

    def _recover_locked(
        self,
        failed: set,
        survivors: typing.Tuple[str, ...],
        join_timeout: float,
    ) -> "list[str]":
        # Let the aborted threads finish unwinding before regrouping.
        for worker_id in list(self.am.group):
            thread = self._workers[worker_id].thread
            if thread is not None and worker_id not in failed:
                thread.join(timeout=join_timeout)
        with self._lock:
            self._generation += 1
            collective = Collective(
                self._generation, survivors, timeout=self.allreduce_timeout
            )
            reference = None
            for worker_id in survivors:
                context = self._workers[worker_id].context
                context.generation = self._generation
                context.group = survivors
                context.rank = survivors.index(worker_id)
                context.collective = collective
                # Strong scaling across the recovery: the total batch (an
                # algorithm-visible hyperparameter) is preserved; the
                # survivors shoulder larger micro-batches.
                context.per_worker_batch = max(
                    1,
                    context.runtime_info.total_batch_size // len(survivors),
                )
                context.loader.repartition(len(survivors))
                iteration = context.runtime_info.iteration
                reference = iteration if reference is None else reference
                if iteration != reference:  # pragma: no cover - invariant
                    raise RuntimeError(
                        "survivor contexts diverged; cannot recover"
                    )
            for worker_id in failed:
                crashed = self._workers[worker_id]
                self._release_gpu(
                    crashed.context.gpu if crashed.context else None
                )
                self.worker_failures.pop(worker_id, None)
                self.failure_injections.pop(worker_id, None)
            self.am.group = survivors
            self.am._persist()
            removed = sorted(failed)
            if self.lease_ttl is not None:
                # Reap the dead workers' leases (clearing any revocation)
                # and give survivors a fresh TTL so the pause between
                # teardown and respawn cannot read as another failure.
                for worker_id in removed:
                    try:
                        self.reliable_store.delete(self._lease_key(worker_id))
                    except StoreUnavailable:
                        pass
                for worker_id in survivors:
                    self._publish_lease(worker_id)
        for worker_id in survivors:
            self._spawn(self._workers[worker_id])
        return removed

    # -- job-level checkpointing (for total loss; complements §V-D) -------------

    def checkpoint(self, storage, path: str = "elan/job0/checkpoint") -> int:
        """Serialize the full training state to shared storage.

        Elan's elasticity never needs checkpoints (state replicates peer
        to peer), but a checkpoint remains the answer to losing *every*
        worker.  The runtime must be quiescent (stopped, or all threads
        dead after crashes); returns the blob size in bytes.
        """
        with self._lock:
            group = self.am.group
            for worker_id in group:
                thread = self._workers[worker_id].thread
                if thread is not None and thread.is_alive():
                    raise RuntimeError(
                        "checkpoint requires a quiescent runtime; stop() first"
                    )
            survivors = [
                w for w in group
                if w not in self.worker_failures
                and self._workers[w].context is not None
            ]
            if not survivors:
                raise RuntimeError("no intact context to checkpoint from")
            context = self._workers[survivors[0]].context
            state = TrainingState(
                model=context.params,
                optimizer=context.optimizer.state_dict(),
                loader=context.loader.state_dict(),
                comm_group=list(group),
                runtime=context.runtime_info,
            )
            return storage.save(path, state)

    @classmethod
    def restore(
        cls,
        dataset: Dataset,
        storage,
        path: str = "elan/job0/checkpoint",
        workers: "int | None" = None,
        **kwargs,
    ) -> "ElasticRuntime":
        """Rebuild a job from a checkpoint, optionally resized.

        Returns an un-started runtime whose every worker holds the
        restored replica; call :meth:`start` to resume training.
        """
        state = storage.load(path)
        workers = workers if workers is not None else len(state.comm_group)
        runtime = cls(
            dataset,
            initial_workers=workers,
            total_batch_size=max(workers, state.runtime.total_batch_size),
            **kwargs,
        )
        ramp = ramp_from_runtime_info(state.runtime)
        for worker_id in runtime.am.group:
            context = runtime._workers[worker_id].context
            context.params.update(
                {k: v.copy() for k, v in state.model.items()}
            )
            context.optimizer.load_state_dict(state.optimizer)
            context.loader.load_state_dict(state.loader)
            context.loader.repartition(workers)
            context.runtime_info = RuntimeInfo.from_dict(
                state.runtime.to_dict()
            )
            context.per_worker_batch = max(
                1, context.runtime_info.total_batch_size // workers
            )
            context.lr_ramp = ramp
        return runtime

    # -- observation ---------------------------------------------------------------

    def snapshot(self) -> dict:
        """Current job status (group, iteration, batch size, lr)."""
        with self._lock:
            contexts = [
                w.context for w in self._workers.values() if w.context is not None
            ]
            live = [c for c in contexts if c.generation == self._generation]
            probe = max(live, key=lambda c: c.runtime_info.iteration) if live else None
            return {
                "generation": self._generation,
                "group": tuple(self.am.group),
                "iteration": 0 if probe is None else probe.runtime_info.iteration,
                "epoch": 0 if probe is None else probe.loader.epoch,
                "total_batch_size": 0 if probe is None else (
                    probe.runtime_info.total_batch_size
                ),
                "learning_rate": 0.0 if probe is None else (
                    probe.runtime_info.learning_rate
                ),
                "adjustments": self.am.adjustments_committed,
            }

    def wait_for_adjustments(self, count: int, timeout: float = 30.0) -> bool:
        """Block until ``count`` adjustments have committed."""
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            if self.am.adjustments_committed >= count:
                return True
            time.sleep(0.002)
        return False

    def wait_until_iteration(self, iteration: int, timeout: float = 30.0) -> bool:
        """Block until the job has completed ``iteration`` iterations."""
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            if self.snapshot()["iteration"] >= iteration:
                return True
            time.sleep(0.002)
        return False

    def final_contexts(self) -> "list[WorkerContext]":
        """Contexts of the workers in the final group (call after stop)."""
        with self._lock:
            group = self.am.group
            return [
                self._workers[w].context
                for w in group
                if w in self._workers and self._workers[w].context is not None
            ]

    def evaluate(self) -> float:
        """Test accuracy of the (stopped) job's model."""
        contexts = self.final_contexts()
        if not contexts:
            raise RuntimeError("no surviving worker context to evaluate")
        return self.architecture.accuracy(
            contexts[0].params, self.dataset.test_x, self.dataset.test_y
        )

    # -- worker thread body -----------------------------------------------------------

    def _worker_main(self, worker: _Worker) -> None:
        if worker.is_new:
            self._startup_and_report(worker)
            worker.join_event.wait(timeout=self.allreduce_timeout)
            if worker.context is None:
                return  # cancelled (stop before the adjustment committed)
        context = worker.context
        self._publish_lease(context.worker_id)
        try:
            while True:
                action = self._maybe_coordinate(worker, context)
                if action == "exit":
                    return
                self._train_one_iteration(worker, context)
        except CollectiveAborted:
            return
        except SilentCrash:
            # A kill -9 stand-in: the thread vanishes without recording
            # its death or aborting the collective — its peers block and
            # only the lease supervisor can notice.
            return
        except BaseException as exc:
            # A crashed worker must not leave its peers hanging in the
            # allreduce barrier: record the failure and tear the current
            # collective down so survivors observe the abort.
            with self._lock:
                self.worker_failures[worker.worker_id] = exc
                context.collective.abort()
            self.telemetry.record_event(
                None, "worker_failure",
                worker=worker.worker_id, error=repr(exc),
            )
            self.tracer.instant(
                "worker.failure", track=worker.worker_id, cat="failure",
                error=repr(exc),
            )
            return

    def _startup_and_report(self, worker: _Worker) -> None:
        """Step 2: simulate start + init, then report readiness."""
        with self.tracer.span(
            "worker.start_init", track=worker.worker_id, cat="adjust",
            worker=worker.worker_id,
        ):
            if self.startup_delay > 0:
                # Deterministic per-worker jitter models start-time
                # variance.
                jitter = 0.3 * self.startup_delay * (
                    hash(worker.worker_id) % 100
                ) / 100.0
                time.sleep(self.startup_delay + jitter)
        self.tracer.instant(
            "worker.report", track=worker.worker_id, cat="adjust",
            worker=worker.worker_id,
        )
        with self._lock:
            self.am.worker_report(worker.worker_id)

    def _maybe_coordinate(self, worker: _Worker, context: WorkerContext) -> str:
        iteration = context.runtime_info.iteration
        if iteration % self.coordination_interval != 0:
            return "continue"
        with self._lock:
            self.am.latest_iteration = max(self.am.latest_iteration, iteration)
            # Generation adoption MUST come before everything else: a
            # worker lagging behind a committed adjustment may not take
            # another step against its abandoned collective -- doing so
            # (as an earlier version did when a stop raced a commit)
            # strands it in an allreduce nobody will ever complete.  A
            # removed worker exits here regardless of the stop state.
            if context.generation < self._generation:
                plan = self.history[-1]
                return self._adopt(worker, context, plan)
            # Stop protocol: pick one boundary in the future of every
            # worker; everyone halts exactly there (lockstep-safe).
            if self._stop_at is not None:
                if iteration >= self._stop_at:
                    return "exit"
            elif self._stop_requested:
                interval = self.coordination_interval
                boundary = (self.am.latest_iteration // interval + 1) * interval
                self._stop_at = min(boundary, iteration + interval)
                if iteration >= self._stop_at:
                    return "exit"
                return "continue"
            directive = self.am.coordinate(context.worker_id, iteration)
            self._validate_directive(directive)
            if directive.kind is DirectiveKind.ADJUST:
                plan = self._execute_commit(context, directive)
                return self._adopt(worker, context, plan)
            return "continue"

    def _adopt(self, worker: _Worker, context: WorkerContext, plan: GroupPlan) -> str:
        """Apply a published plan to this worker (or leave the job)."""
        if context.worker_id not in plan.group:
            self._release_gpu(context.gpu)
            return "exit"
        context.generation = plan.generation
        context.group = plan.group
        context.rank = plan.group.index(context.worker_id)
        context.collective = plan.collective
        context.per_worker_batch = plan.per_worker_batch
        context.runtime_info.total_batch_size = plan.total_batch_size
        context.lr_ramp = plan.lr_ramp
        if plan.lr_ramp is not None:
            ramp_to_runtime_info(context.runtime_info, plan.lr_ramp)
        context.loader.repartition(len(plan.group))
        return "continue"

    def _train_one_iteration(self, worker: _Worker, context: WorkerContext) -> None:
        info = context.runtime_info
        fail_at = self.failure_injections.get(context.worker_id)
        if fail_at is not None and info.iteration >= fail_at:
            raise RuntimeError(
                f"injected crash of {context.worker_id} at iteration "
                f"{info.iteration}"
            )
        silent_at = self.silent_crash_injections.get(context.worker_id)
        if silent_at is not None and info.iteration >= silent_at:
            raise SilentCrash(context.worker_id)
        if not self._renew_lease(context.worker_id):
            # The lease was revoked: this worker has been fenced out of
            # the job.  Fail-stop immediately — acting without a live
            # lease could race the recovery that is evicting us.
            raise SilentCrash(context.worker_id)
        iteration_span = self.tracer.begin(
            "iteration", track=context.worker_id, cat="train",
            iteration=info.iteration,
        )
        compute_span = self.tracer.begin(
            "compute", track=context.worker_id, cat="train"
        )
        compute_started = time.perf_counter()
        delay = self.iteration_delays.get(context.worker_id, 0.0)
        if delay > 0:
            time.sleep(delay)  # injected straggler
        # Checkpoint the loader position: if the allreduce below aborts
        # (a peer crashed), this iteration never happened — the batch must
        # be re-issued after recovery or it would be silently skipped.
        loader_checkpoint = context.loader.state_dict()
        slices = context.loader.next_iteration(
            len(context.group), context.per_worker_batch
        )
        indices = slices[context.rank]
        if len(indices):
            loss, grads = self._compute_gradients(context, indices)
            worker.losses.append(loss)
        else:
            grads = None
        self.telemetry.record_compute(
            context.worker_id, time.perf_counter() - compute_started
        )
        self.tracer.end(compute_span)
        allreduce_span = self.tracer.begin(
            "allreduce", track=context.worker_id, cat="train"
        )
        allreduce_started = time.perf_counter()
        try:
            averaged = context.collective.allreduce(context.worker_id, grads)
        except CollectiveAborted:
            # The round never completed: rewind the loader so the batch is
            # re-issued when (if) this context resumes after recovery.
            # The open iteration/allreduce spans are dropped at export —
            # an aborted round contributes no timeline interval.
            context.loader.load_state_dict(loader_checkpoint)
            raise
        self.tracer.end(allreduce_span)
        self.metrics.histogram("worker.allreduce_seconds").observe(
            time.perf_counter() - allreduce_started
        )
        if context.lr_ramp is not None:
            lr = context.lr_ramp.lr_at(info.iteration)
        else:
            lr = info.learning_rate
        context.optimizer.lr = lr
        info.learning_rate = lr
        if averaged is not None:
            context.optimizer.step(context.params, averaged)
        info.iteration += 1
        info.epoch = context.loader.epoch
        worker.iterations_run += 1
        self.tracer.end(iteration_span)
        self.metrics.counter("iterations_total").inc()

    def _compute_gradients(self, context: WorkerContext, indices):
        """Gradients for one worker's share, with optional accumulation.

        When the share exceeds ``max_micro_batch``, it is split into
        chunks whose gradients are combined with per-chunk weights — the
        result is bit-for-bit what one big batch would produce, so
        accumulation is invisible to the algorithm (only memory changes).
        """
        limit = self.max_micro_batch
        if limit is None or len(indices) <= limit:
            return self.architecture.loss_and_gradients(
                context.params,
                self.dataset.train_x[indices],
                self.dataset.train_y[indices],
            )
        total = len(indices)
        combined: "dict | None" = None
        weighted_loss = 0.0
        for start in range(0, total, limit):
            chunk = indices[start : start + limit]
            loss, grads = self.architecture.loss_and_gradients(
                context.params,
                self.dataset.train_x[chunk],
                self.dataset.train_y[chunk],
            )
            weight = len(chunk) / total
            weighted_loss += loss * weight
            if combined is None:
                combined = {k: g * weight for k, g in grads.items()}
            else:
                for name, grad in grads.items():
                    combined[name] += grad * weight
        return weighted_loss, combined

    # -- the commit: steps 4 and 5 of Fig. 2 -----------------------------------------

    def _execute_commit(
        self, leader: WorkerContext, directive: Directive
    ) -> GroupPlan:
        """Performed (under the runtime lock) by the first worker to reach
        the commit boundary: replicate state, reconstruct the group,
        repartition data, apply the scaling policy."""
        commit_started = time.perf_counter()
        request = directive.adjustment
        assert request is not None
        old_group = leader.group
        new_group = directive.new_group
        commit_iteration = directive.commit_iteration
        commit_span = self.tracer.begin(
            "adjust.commit", track="am", cat="adjust",
            kind=request.kind.value, commit_iteration=commit_iteration,
            old_workers=len(old_group), new_workers=len(new_group),
        )

        # Step 5a: hybrid scaling — batch size and LR ramp.
        decision = self.scaling_policy.decide(
            old_workers=len(old_group),
            new_workers=len(new_group),
            total_batch_size=leader.runtime_info.total_batch_size,
            learning_rate=leader.runtime_info.learning_rate,
            iteration=commit_iteration,
        )
        per_worker = max(1, decision.new_total_batch_size // len(new_group))
        total_batch = per_worker * len(new_group)
        ramp: "LrRamp | None" = decision.lr_ramp
        if ramp is not None and ramp.scale_factor == 1.0:
            ramp = None  # no batch change; keep the current constant lr

        # Step 4: capture state via hooks and replicate to each new worker.
        replicate_span = self.tracer.begin(
            "commit.replicate", track="am", cat="adjust",
            targets=len(request.add_workers),
        )
        captured = self.hooks.capture_all(leader)
        replication_plan = None
        new_contexts: typing.Dict[str, WorkerContext] = {}
        collective = Collective(
            self._generation + 1, new_group, timeout=self.allreduce_timeout
        )
        for worker_id in request.add_workers:
            context = WorkerContext(
                worker_id=worker_id,
                params=self.architecture.init(self.seed),
                optimizer=MomentumSGD(lr=self.base_lr, momentum=self.momentum),
                loader=SerialLoader(self.dataset.train_size, seed=self.seed),
                runtime_info=RuntimeInfo(),
                generation=self._generation + 1,
                group=new_group,
                rank=new_group.index(worker_id),
                collective=collective,
                per_worker_batch=per_worker,
                lr_ramp=ramp,
                gpu=self._allocate_gpu(),
            )
            self.replicator.replications += 1
            self.hooks.restore_all(context, captured)
            context.runtime_info.total_batch_size = total_batch
            if ramp is not None:
                ramp_to_runtime_info(context.runtime_info, ramp)
            context.loader.repartition(len(new_group))
            new_contexts[worker_id] = context
        self.tracer.end(replicate_span)

        # Steps 5b-c: group reconstruction + data repartition metadata.
        reconfigure_span = self.tracer.begin(
            "commit.reconfigure", track="am", cat="adjust"
        )
        # If a topology was attached, derive the real replication plan the
        # transfers would follow (used by timing experiments and tests).
        if self._cluster is not None and request.add_workers:
            existing_gpus = [
                self._workers[w].context.gpu
                for w in old_group
                if self._workers[w].context and self._workers[w].context.gpu
            ]
            new_gpus = [new_contexts[w].gpu for w in request.add_workers]
            state_for_size = TrainingState(
                model=leader.params,
                optimizer=leader.optimizer.state_dict(),
                loader=leader.loader.state_dict(),
                comm_group=list(old_group),
                runtime=leader.runtime_info,
            )
            replication_plan = plan_replication(
                existing_gpus, new_gpus,
                gpu_bytes=state_for_size.gpu_bytes(),
                cpu_bytes=state_for_size.cpu_bytes(),
            )

        plan = GroupPlan(
            generation=self._generation + 1,
            group=new_group,
            collective=collective,
            total_batch_size=total_batch,
            per_worker_batch=per_worker,
            lr_ramp=ramp,
            commit_iteration=commit_iteration,
            kind=request.kind,
            strategy=decision.strategy,
            replication_plan=replication_plan,
        )
        self._generation += 1
        self.history.append(plan)
        self.am.finish_adjustment()
        self.tracer.end(reconfigure_span)

        # Hand the new workers their contexts and release them (they join
        # the collective at the commit iteration).
        for worker_id, context in new_contexts.items():
            handle = self._workers[worker_id]
            handle.context = context
            handle.join_event.set()
        latency = time.perf_counter() - commit_started
        self.commit_latencies.append(latency)
        self.tracer.end(commit_span)
        self.metrics.histogram("commit_seconds").observe(latency)
        self.metrics.counter(f"adjustments.{request.kind.value}").inc()
        self.metrics.gauge("workers").set(len(new_group))
        self.telemetry.record_event(
            None, "adjustment",
            adjustment_kind=request.kind.value,
            commit_iteration=commit_iteration,
            old_group=list(old_group),
            new_group=list(new_group),
            strategy=decision.strategy,
            latency=latency,
        )
        for worker_id in request.remove_workers:
            self.telemetry.forget_worker(worker_id)
        return plan


def params_consistent(contexts: typing.Sequence[WorkerContext]) -> bool:
    """True if every context holds bit-identical model parameters."""
    if not contexts:
        return True
    first = contexts[0].params
    for context in contexts[1:]:
        for name in first:
            if not np.array_equal(first[name], context.params[name]):
                return False
    return True
