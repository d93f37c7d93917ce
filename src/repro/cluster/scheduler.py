"""The live multi-tenant cluster scheduler service (§VI-C, live).

One :class:`ClusterScheduler` owns a GPU inventory and many elastic
jobs.  Clients submit :class:`JobRequest`\\ s over the §V-D reliable
links (``SUBMIT``); the scheduler admits them with the paper's
admission rule, sizes them with a pluggable
:class:`~repro.scheduling.SchedulingPolicy` through the shared
:class:`~repro.scheduling.PolicyAdapter` seam, and delivers grow /
shrink directives to each job's
:class:`~repro.net.NetworkedApplicationMaster` (``ADJUSTMENT_REQUEST``
with ``origin: "scheduler"``) — so the
exactly-once / dedup / reconnection guarantees of the existing
transport stack carry the whole scheduling plane.

Key semantics, mirrored from the trace simulator so the two planes
agree:

* **admission** — a queued job starts only when the policy grants it
  workers *and* the inventory can still hold every running job's
  minimum plus this job's grant (the §VI-C floor check lives in the
  elastic policies; the scheduler enforces the physical capacity).
* **spot churn** — :meth:`ClusterScheduler.set_capacity` models the
  inventory shrinking under the jobs; when the running jobs' *minimums*
  no longer fit, victims are condemned back to the queue in priority
  order (lowest priority first, then newest admission), losing their
  progress — live preemption restarts from scratch, unlike the
  simulator's checkpoint-on-preempt, and the journal records it.
* **decision journal** — every externally visible decision (submit,
  admit, resize, preempt, capacity change, release, completion) is
  appended to a checksummed :class:`~repro.net.journal.Journal` with
  cluster-specific record kinds *before* the reply that makes it
  observable.  The scheduler *is* its journal: its durable state is
  the fold of those records (:class:`ClusterJournalState`), so a
  successor replays exactly the inventory and queue its predecessor
  held (:meth:`ClusterScheduler.from_journal`).

The scheduler never names workers or touches training state: runners
(:mod:`repro.cluster.runners`) own the per-job data plane, and the
scheduler only deals in worker *counts* — which is also what makes it
trivially testable against a stub runner.
"""

from __future__ import annotations

import bisect
import dataclasses
import threading
import time
import typing

from ..coordination.messages import Message, MessageType
from ..net.journal import Journal
from ..net.transport import ServerCore
from ..scheduling import POLICIES, PolicyAdapter, SchedulingPolicy
from ..scheduling.job import JobSpec as ScheduleSpec

#: Record kinds of the scheduler's decision journal (disjoint from the
#: AM journal's :data:`~repro.net.journal.RECORD_KINDS` — a scheduler
#: journal can never be mistaken for a job journal at replay time).
CLUSTER_RECORD_KINDS = frozenset({
    "open",      # scheduler boot: policy name, nominal capacity
    "epoch",     # fencing epoch of one scheduler incarnation
    "submit",    # one job request queued (full request payload)
    "admit",     # a queued job started with an initial allocation
    "resize",    # a running job's target allocation changed
    "preempt",   # a running job condemned back to the queue
    "capacity",  # the GPU inventory changed (spot churn)
    "release",   # a job returned its GPUs (client cancel)
    "complete",  # a job finished (digest, timings)
})


@dataclasses.dataclass(frozen=True)
class JobRequest:
    """One client-submitted elastic job (the ``SUBMIT`` payload).

    Carries both the *scheduling* face (min/req/max workers, priority,
    a Table I model name for the policy's throughput arithmetic) and
    the *training* face (iterations, seed, pacing) the runner needs to
    start the live job.
    """

    job_id: str
    iterations: int = 24
    priority: int = 0
    min_res: int = 1
    req_res: int = 1
    max_res: int = 2
    model: str = "ResNet-50"
    seed: int = 7
    coordination_interval: int = 4
    iteration_sleep: float = 0.0

    def __post_init__(self):
        if not self.job_id:
            raise ValueError("job_id must be non-empty")
        if self.iterations < 1:
            raise ValueError(f"{self.job_id}: iterations must be >= 1")
        if not 1 <= self.min_res <= self.req_res <= self.max_res:
            raise ValueError(
                f"{self.job_id}: need 1 <= min {self.min_res} <= req "
                f"{self.req_res} <= max {self.max_res}"
            )

    def to_payload(self) -> dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_payload(cls, payload: dict) -> "JobRequest":
        fields = {f.name for f in dataclasses.fields(cls)}
        return cls(**{k: v for k, v in payload.items() if k in fields})

    def to_schedule_spec(self, submit_time: float) -> ScheduleSpec:
        """The policy-visible :class:`~repro.scheduling.JobSpec`.

        ``work`` is measured in iterations, so a runner's iteration
        watermark *is* the job's ``work_done`` — no unit conversion
        between the live plane and the policy arithmetic.
        """
        from ..perfmodel.models import get_model

        return ScheduleSpec(
            job_id=self.job_id, model=get_model(self.model),
            submit_time=submit_time, work=float(self.iterations),
            req_res=self.req_res, min_res=self.min_res,
            max_res=self.max_res, priority=self.priority,
        )


@dataclasses.dataclass
class _Job:
    """One queued or running job, as the decision journal knows it."""

    request: JobRequest
    submit_seq: int
    preemptions: int = 0
    workers: int = 0


@dataclasses.dataclass(eq=False)
class _Live:
    """One job's runner and clock stamps on this incarnation (volatile)."""

    job: _Job
    submitted_at: float
    enqueued_at: float  # reset on preemption requeue
    admitted_at: "float | None" = None  # first admission
    admit_seq: int = -1  # monotonically increasing per admission
    runner: "typing.Any | None" = None

    @property
    def workers(self) -> int:
        return self.job.workers


class ClusterScheduler:
    """Admit, allocate, and resize many concurrent elastic jobs.

    ``runner_factory(request, scheduler)`` builds the per-job data
    plane; it must return an object with the runner protocol —
    ``start(workers)``, ``resize(workers, at_iteration=None) -> bool``,
    ``progress() -> int``, ``complete() -> bool``,
    ``digests() -> dict``, ``stop()``, ``close()`` (see
    :class:`~repro.cluster.runners.ElasticJobRunner`).  Tests drive the
    scheduler with a stub.

    The scheduler is passive between :meth:`step` calls: handlers only
    mutate the queue, and every decision (admission, resize, eviction)
    happens inside ``step`` — which is what makes a scripted scenario
    deterministic and a live deployment a trivial loop
    (:meth:`serve_forever`).  Only :meth:`_record` changes the durable
    :attr:`state`; runners and clock stamps live in one :class:`_Live`
    per job.
    """

    def __init__(
        self,
        policy: "SchedulingPolicy | str",
        total_gpus: int,
        runner_factory: "typing.Callable[..., typing.Any] | None" = None,
        journal: "Journal | None" = None,
        tracer: "typing.Any | None" = None,
        metrics: "typing.Any | None" = None,
        clock: "typing.Callable[[], float] | None" = None,
        _replay: "ClusterJournalState | None" = None,
    ):
        if total_gpus < 1:
            raise ValueError("total_gpus must be >= 1")
        if isinstance(policy, str):
            policy = POLICIES[policy]()
        self.adapter = PolicyAdapter(policy)
        self.runner_factory = runner_factory
        self.tracer = tracer
        self.metrics = metrics
        self.clock = clock if clock is not None else time.monotonic
        self.journal = journal if journal is not None else Journal(
            kinds=CLUSTER_RECORD_KINDS
        )
        self._lock = threading.RLock()
        self._t0 = self.clock()
        self._fenced = False
        self._server = None
        self._stop = threading.Event()
        self.state = _replay if _replay is not None else ClusterJournalState()
        self._admit_seq = 0
        self.core = ServerCore(
            handler=self.handle, node_id="cluster", tracer=tracer,
            metrics=metrics,
        )
        if _replay is None:
            self._record("open", policy=self.adapter.name, capacity=total_gpus)
        # A successor's epoch requeues its predecessor's running jobs.
        self._record("epoch", epoch=self.state.epoch + 1)
        now = self._now()
        self._live = {
            job_id: _Live(job, now, now) for job_id, job in self.jobs.items()
        }
        self.core.epoch = self.epoch
        if _replay is not None:
            self._instant("cluster.failover", epoch=self.epoch,
                          replayed=_replay.replayed, requeued=len(self.queue),
                          completed=len(self.completed))
            self._count("cluster.failovers")

    # -- the durable state, read through ---------------------------------------

    epoch = property(lambda self: self.state.epoch)
    capacity = property(lambda self: self.state.capacity)
    preemptions = property(lambda self: self.state.preemptions)
    #: queued and running jobs (``.request``, ``.workers``, ``.preemptions``)
    jobs = property(lambda self: self.state.jobs)
    #: queued job ids, in submit order
    queue = property(lambda self: self.state.queue)
    completed = property(lambda self: self.state.completed)

    @property
    def running(self) -> "dict[str, _Live]":
        """Running jobs in admission order (``.workers``, ``.runner``)."""
        return {job_id: self._live[job_id] for job_id in self.state.running}

    def _record(self, kind: str, /, **data) -> None:
        """The scheduler's one transition: journal the record, then apply it.

        The only ``journal.append`` call site and the only live caller
        of ``state.apply`` — so every decision is durable before a reply
        can reveal it, and the live state cannot drift from what a
        successor replays.
        """
        with self._lock:
            self.state.apply(kind, self.journal.append(kind, **data)["data"])

    # -- time ------------------------------------------------------------------

    def _now(self) -> float:
        """Seconds since this incarnation started (journal-safe)."""
        return self.clock() - self._t0

    # -- client API (also reachable over the wire) -----------------------------

    def submit(self, request: JobRequest) -> dict:
        """Queue one job request; the next :meth:`step` may admit it."""
        job_id = request.job_id
        with self._lock:
            if job_id in self.jobs or job_id in self.completed:
                return {"accepted": False, "reason": "duplicate",
                        "job_id": job_id}
            now = self._now()
            self._record("submit", job=request.to_payload(), at=now,
                         seq=self.state.next_seq)
            self._live[job_id] = _Live(self.jobs[job_id], now, now)
            self._instant("cluster.submit", job=job_id,
                          priority=request.priority)
            self._count("cluster.submits")
            self._gauges()
            return {"accepted": True, "job_id": job_id,
                    "position": len(self.queue)}

    def set_capacity(self, gpus: int, reason: str = "operator") -> dict:
        """Grow or shrink the GPU inventory (spot churn lives here).

        Only records the new capacity; the next :meth:`step` shrinks or
        evicts jobs to fit — so a scripted scenario can pin the commit
        boundary of the resulting resizes.
        """
        if gpus < 1:
            raise ValueError("capacity must stay >= 1")
        with self._lock:
            old = self.capacity
            self._record("capacity", gpus=gpus, old=old, reason=reason,
                         at=self._now())
            self._instant("cluster.capacity", old=old, new=gpus,
                          reason=reason)
            self._count("cluster.capacity_changes")
            self._gauges()
            return {"capacity": gpus, "old": old}

    def release(self, job_id: str) -> dict:
        """Return a job's GPUs (client cancel); queued or running."""
        with self._lock:
            if job_id not in self.jobs:
                return {"released": False, "job_id": job_id}
            where = "running" if job_id in self.state.running else "queued"
            self._record("release", job_id=job_id, state=where,
                         at=self._now())
            self._stop_runner(self._live.pop(job_id))
            self._instant("cluster.release", job=job_id, state=where)
            self._count("cluster.releases")
            self._gauges()
            return {"released": True, "job_id": job_id, "state": where}

    def offer(self, job_id: str) -> dict:
        """One job's current placement (the ``OFFER`` reply)."""
        with self._lock:
            if job_id in self.completed:
                done = self.completed[job_id]
                return {"job_id": job_id, "state": "completed",
                        "digest": done.get("digest"),
                        "jct": done.get("jct")}
            job = self.jobs.get(job_id)
            if job is None:
                return {"job_id": job_id, "state": "unknown"}
            if job_id in self.state.running:
                runner = self._live[job_id].runner
                return {"job_id": job_id, "state": "running",
                        "workers": job.workers,
                        "iteration": None if runner is None
                        else runner.progress(),
                        "preemptions": job.preemptions}
            return {"job_id": job_id, "state": "queued",
                    "position": self.queue.index(job_id) + 1,
                    "preemptions": job.preemptions}

    def tables(self) -> dict:
        """Queue / allocation / completion tables (``JOB_STATUS``)."""
        with self._lock:
            now = self._now()
            queue_rows = [
                {"job_id": jid, "priority": self.jobs[jid].request.priority,
                 "min": self.jobs[jid].request.min_res,
                 "max": self.jobs[jid].request.max_res,
                 "preemptions": self.jobs[jid].preemptions,
                 "queued_for": round(now - self._live[jid].enqueued_at, 3)}
                for jid in self.queue
            ]
            running_rows = [
                {"job_id": jid, "workers": live.workers,
                 "priority": live.job.request.priority,
                 "iteration": live.runner.progress()
                 if live.runner is not None else None}
                for jid, live in self.running.items()
            ]
            completed_rows = [
                {"job_id": jid, "digest": data.get("digest"),
                 "jct": data.get("jct"),
                 "preemptions": data.get("preemptions")}
                for jid, data in self.completed.items()
            ]
            return {
                "policy": self.adapter.name, "epoch": self.epoch,
                "capacity": self.capacity, "busy": self._busy(),
                "queue": queue_rows, "running": running_rows,
                "completed": completed_rows,
                "preemptions": self.preemptions,
            }

    # -- the scheduling pass ---------------------------------------------------

    def step(self, pin_at: "int | None" = None) -> dict:
        """One scheduling pass: reap, evict-to-fit, allocate, apply.

        ``pin_at`` pins every resize issued by this pass to commit at
        that training iteration (rounded up to the job's coordination
        boundary) — the lever a deterministic scenario uses to make
        resize commits land at identical iterations on every transport.
        """
        span = None
        if self.tracer is not None:
            span = self.tracer.begin("cluster.reschedule", track="cluster",
                                     cat="cluster")
        try:
            with self._lock:
                summary = self._step_locked(pin_at)
        finally:
            if self.tracer is not None:
                self.tracer.end(span)
        return summary

    def _step_locked(self, pin_at: "int | None") -> dict:
        now = self._now()
        completed = self._reap(now)
        preempted = self._evict_to_fit(now)
        allocation = self._allocation(now)
        resized = self._apply_resizes(allocation, pin_at, now)
        admitted = self._admit(allocation, now)
        self._gauges()
        return {"admitted": admitted, "resized": resized,
                "preempted": preempted, "completed": completed,
                "allocation": allocation}

    def _reap(self, now: float) -> "list[str]":
        reaped = []
        for job_id, live in self.running.items():
            if live.runner is None or not live.runner.complete():
                continue
            digests = live.runner.digests()
            unique = sorted(set(digests.values()))
            jct = now - live.submitted_at
            queueing = (live.admitted_at or now) - live.submitted_at
            self._record(
                "complete", job_id=job_id,
                digest=unique[0] if unique else None,
                digests=dict(digests), workers=live.workers, jct=jct,
                queueing_delay=queueing, preemptions=live.job.preemptions,
                at=now,
            )
            del self._live[job_id]
            live.runner.close()
            reaped.append(job_id)
            self._instant("cluster.complete", job=job_id,
                          jct=round(jct, 3))
            self._count("cluster.completions")
            if self.metrics is not None:
                self.metrics.histogram("cluster.jct_seconds").observe(jct)
        return reaped

    def _evict_to_fit(self, now: float) -> "list[str]":
        """Condemn victims until running minimums fit the inventory.

        Victim order is the spot-churn rule: lowest priority tier
        first, newest admission first within a tier — the jobs with
        the least seniority pay for the capacity loss.  The journal
        requeues the victim in submit order.
        """
        preempted = []
        while self.state.running:
            running = self.running
            floor = sum(live.job.request.min_res for live in running.values())
            if floor <= self.capacity:
                break
            victim = min(
                running.values(),
                key=lambda live: (live.job.request.priority, -live.admit_seq),
            )
            job_id = victim.job.request.job_id
            progress = (victim.runner.progress()
                        if victim.runner is not None else 0)
            self._record(
                "preempt", job_id=job_id, progress_lost=progress,
                capacity=self.capacity, at=now,
            )
            self._stop_runner(victim)
            victim.enqueued_at = now
            preempted.append(job_id)
            self._instant("cluster.preempt", job=job_id,
                          progress_lost=progress)
            self._count("cluster.preempts")
        return preempted

    def _allocation(self, now: float) -> "dict[str, int]":
        queue_execs = [
            self.adapter.execution(
                self.jobs[jid].request.to_schedule_spec(
                    self._live[jid].submitted_at
                )
            )
            for jid in self.queue
        ]
        running_execs = [
            self.adapter.execution(
                live.job.request.to_schedule_spec(live.submitted_at),
                workers=live.workers,
                work_done=float(live.runner.progress())
                if live.runner is not None else 0.0,
                start_time=live.admitted_at,
            )
            for live in self.running.values()
        ]
        return self.adapter.target_allocation(
            now, queue_execs, running_execs, self.capacity, clamp=True,
        )

    def _apply_resizes(
        self, allocation: "dict[str, int]", pin_at: "int | None",
        now: float,
    ) -> "dict[str, tuple[int, int]]":
        resized = {}
        for job_id, live in self.running.items():
            old = live.workers
            target = allocation.get(job_id, old)
            if target < live.job.request.min_res:
                # Elastic policies keep running jobs at >= min_res; a
                # policy that drops below the floor is ignored here —
                # shrinking under the minimum is the eviction path's
                # decision, not a resize.
                continue
            if target == old or live.runner is None:
                continue
            if not live.runner.resize(target, at_iteration=pin_at):
                # An adjustment is already in flight on this job's AM;
                # the next pass re-requests (one in flight per job).
                self._count("cluster.resize_deferrals")
                continue
            self._record(
                "resize", job_id=job_id, old=old, new=target,
                at_iteration=pin_at, at=now,
            )
            resized[job_id] = (old, target)
            self._instant("cluster.resize", job=job_id, old=old,
                          new=target, at_iteration=pin_at)
            self._count("cluster.resizes")
        return resized

    def _admit(
        self, allocation: "dict[str, int]", now: float,
    ) -> "list[str]":
        admitted = []
        for job_id in list(self.queue):
            target = allocation.get(job_id, 0)
            if target <= 0:
                continue
            live = self._live[job_id]
            workers = min(target, self.capacity - self._busy())
            if workers < live.job.request.min_res:
                # The policy admitted it, but resize deferrals can keep
                # GPUs physically occupied for another pass.
                continue
            if self.runner_factory is None:
                raise RuntimeError(
                    "cannot admit jobs without a runner_factory"
                )
            runner = self.runner_factory(live.job.request, self)
            queueing = now - live.enqueued_at
            self._record(
                "admit", job_id=job_id, workers=workers,
                queueing_delay=queueing, at=now,
            )
            live.runner = runner
            live.admit_seq = self._admit_seq
            self._admit_seq += 1
            if live.admitted_at is None:
                live.admitted_at = now
            runner.start(workers)
            admitted.append(job_id)
            self._instant("cluster.admit", job=job_id, workers=workers,
                          queueing_delay=round(queueing, 3))
            self._count("cluster.admits")
            if self.metrics is not None:
                self.metrics.histogram(
                    "cluster.queueing_delay_seconds"
                ).observe(queueing)
        return admitted

    def _busy(self) -> int:
        return sum(self.jobs[jid].workers for jid in self.state.running)

    def _stop_runner(self, live: _Live) -> None:
        if live.runner is None:
            return
        try:
            live.runner.stop()
        finally:
            live.runner.close()
            live.runner = None

    # -- wire ------------------------------------------------------------------

    def handle(self, message: Message) -> dict:
        """The :class:`~repro.net.transport.ServerCore` handler."""
        if self._fenced:
            return {"__retry__": "scheduler_superseded"}
        payload = message.payload or {}
        if message.msg_type is MessageType.SUBMIT:
            return self.submit(JobRequest.from_payload(payload["job"]))
        if message.msg_type is MessageType.OFFER:
            return self.offer(str(payload["job_id"]))
        if message.msg_type is MessageType.JOB_STATUS:
            return self.tables()
        if message.msg_type is MessageType.RELEASE:
            return self.release(str(payload["job_id"]))
        if message.msg_type is MessageType.STATUS:
            with self._lock:
                return {
                    "policy": self.adapter.name, "epoch": self.epoch,
                    "capacity": self.capacity, "busy": self._busy(),
                    "queued": len(self.queue),
                    "running": len(self.state.running),
                    "completed": len(self.completed),
                    "preemptions": self.preemptions,
                }
        raise ValueError(
            f"cluster scheduler cannot handle {message.msg_type.value!r}"
        )

    def serve_tcp(self, host: str = "127.0.0.1", port: int = 0):
        """Listen for clients; returns the :class:`~repro.net.tcp.TcpServer`."""
        from ..net.tcp import TcpServer

        self._server = TcpServer(
            self.core, host=host, port=port, tracer=self.tracer,
            metrics=self.metrics,
        ).start()
        return self._server

    def serve_forever(
        self, interval: float = 0.1,
        deadline: "float | None" = None,
    ) -> None:
        """Run :meth:`step` on a cadence until :meth:`close` (or deadline)."""
        end = None if deadline is None else self.clock() + deadline
        while not self._stop.is_set():
            self.step()
            if end is not None and self.clock() >= end:
                return
            self._stop.wait(interval)

    # -- lifecycle / failover --------------------------------------------------

    def close(self) -> None:
        """Stop serving, stop every running job, close the journal."""
        self._stop.set()
        if self._server is not None:
            self._server.close()
        with self._lock:
            for live in self._live.values():
                self._stop_runner(live)
        self.journal.close()

    def abandon(self) -> None:
        """Fence this incarnation out so a successor can take over.

        Running jobs' runners die with the incarnation (their GPUs are
        gone); the journal stays open for hand-off.
        """
        self._stop.set()
        with self._lock:
            self._fenced = True
            for live in self._live.values():
                self._stop_runner(live)
            if self.tracer is not None:
                self.tracer.instant(
                    "cluster.abandoned", track="cluster", cat="cluster",
                    epoch=self.epoch,
                )
        if self._server is not None:
            self._server.close()

    @classmethod
    def from_journal(
        cls,
        journal: Journal,
        runner_factory: "typing.Callable[..., typing.Any] | None" = None,
        tracer: "typing.Any | None" = None,
        metrics: "typing.Any | None" = None,
        clock: "typing.Callable[[], float] | None" = None,
    ) -> "ClusterScheduler":
        """Rebuild a crashed scheduler from its decision journal.

        Replay, then journal a strictly higher fencing epoch: applying
        that record requeues the predecessor's running jobs at their
        submit positions (their runners died with the predecessor;
        re-admission restarts them); queued and completed jobs come
        back verbatim.
        """
        state = ClusterJournalState.replay(journal.records())
        if state.policy is None:
            raise ValueError("journal holds no open record to recover from")
        return cls(
            state.policy, state.capacity,
            runner_factory=runner_factory, journal=journal,
            tracer=tracer, metrics=metrics, clock=clock, _replay=state,
        )

    # -- observability helpers -------------------------------------------------

    def _instant(self, name: str, **args) -> None:
        if self.tracer is not None:
            self.tracer.instant(name, track="cluster", cat="cluster",
                                **args)

    def _count(self, name: str) -> None:
        if self.metrics is not None:
            self.metrics.counter(name).inc()

    def _gauges(self) -> None:
        if self.metrics is not None:
            self.metrics.gauge("cluster.capacity_gpus").set(self.capacity)
            self.metrics.gauge("cluster.busy_gpus").set(self._busy())
            self.metrics.gauge("cluster.queue_depth").set(len(self.queue))


class ClusterJournalState:
    """The scheduler's durable state: the fold of its decision journal.

    :meth:`apply` is the one transition function.  The live scheduler
    holds a ``ClusterJournalState`` as *the* state and applies each
    record the moment it is journaled (``ClusterScheduler._record``); a
    successor folds the same records with :meth:`replay`.
    """

    def __init__(self):
        self.policy: "str | None" = None
        self.capacity = 0
        self.epoch = 0
        self.preemptions = 0
        self.next_seq = 0
        #: queued and running jobs; completed and released ones leave.
        self.jobs: "dict[str, _Job]" = {}
        #: queued job ids, always in submit order.
        self.queue: "list[str]" = []
        #: running job ids, in admission order.
        self.running: "list[str]" = []
        self.completed: "dict[str, dict]" = {}
        self.replayed = 0

    @classmethod
    def replay(
        cls, records: "typing.Iterable[dict]",
    ) -> "ClusterJournalState":
        state = cls()
        for record in records:
            state.apply(record["kind"], record["data"])
            state.replayed += 1
        return state

    def apply(self, kind: str, data: dict) -> None:
        """Fold one record into the state — live and at replay alike."""
        if kind == "open":
            self.policy = data["policy"]
            self.capacity = int(data["capacity"])
        elif kind == "epoch":
            self.epoch = max(self.epoch, int(data["epoch"]))
            # A new incarnation: the running jobs' runners died with its
            # predecessor, so they wait for re-admission (at boot nothing
            # runs).
            for job_id in self.running:
                self._requeue(job_id)
            self.running = []
        elif kind == "submit":
            request = JobRequest.from_payload(data["job"])
            seq = int(data["seq"])
            self.jobs[request.job_id] = _Job(request, seq)
            self.next_seq = max(self.next_seq, seq + 1)
            self._requeue(request.job_id)
        elif kind == "admit":
            job_id = data["job_id"]
            self.queue.remove(job_id)
            self.running.append(job_id)
            self.jobs[job_id].workers = int(data["workers"])
        elif kind == "resize":
            self.jobs[data["job_id"]].workers = int(data["new"])
        elif kind == "preempt":
            job_id = data["job_id"]
            self.running.remove(job_id)
            self.jobs[job_id].preemptions += 1
            self.preemptions += 1
            self._requeue(job_id)
        elif kind == "capacity":
            self.capacity = int(data["gpus"])
        elif kind == "release":
            job_id = data["job_id"]
            del self.jobs[job_id]
            held = self.running if job_id in self.running else self.queue
            held.remove(job_id)
        elif kind == "complete":
            job_id = data["job_id"]
            self.running.remove(job_id)
            del self.jobs[job_id]
            self.completed[job_id] = dict(data)

    def _requeue(self, job_id: str) -> None:
        """Wait at the job's submit position: FIFO-family policies read
        the queue front to back."""
        self.jobs[job_id].workers = 0
        bisect.insort(self.queue, job_id,
                      key=lambda jid: self.jobs[jid].submit_seq)
