"""The public Elan API surface (paper §V-A, Table III).

Table III lists three API groups; this module maps each onto the
reproduction:

=====================  =======================================================
Paper API              Here
=====================  =======================================================
Service API            :meth:`ElasticJob.adjust_resource` — called by the
(AdjustResource)       scheduler to scale out/in or migrate a running job.
RegisterHook           :meth:`ElasticJob.register_hook` — add framework or
                       user state to what replication carries.
Coordinate             invoked internally by every worker at iteration
                       boundaries; :attr:`ElasticJob.coordination_interval`
                       sets how often (the elasticity/efficiency knob of
                       §V-B).
=====================  =======================================================

An :class:`ElasticJob` is the networked stack in one process: a
:class:`~repro.net.LocalJob` over the in-memory transport (the AM and a
:class:`~repro.net.WorkerAgent` thread per worker) plus a driver link
that plays the scheduler.  It trains ``iterations`` iterations and ends.
"""

from __future__ import annotations

import dataclasses
import time
import typing

from ..coordination.hooks import Hook, HookRegistry
from ..coordination.master import AdjustmentKind
from ..coordination.messages import MessageType
from ..net import JobSpec, LocalJob
from ..training.datasets import make_classification
from .hybrid_scaling import BatchSchedule


@dataclasses.dataclass(frozen=True)
class Adjustment:
    """One committed adjustment, as the AM journaled it."""

    commit_iteration: int
    group: typing.Tuple[str, ...]
    schedule: BatchSchedule
    latency: float

    @property
    def total_batch_size(self) -> int:
        return self.schedule.total_batch_size

    @property
    def strategy(self) -> str:
        return self.schedule.strategy


class ElasticJob:
    """A running elastic training job with the Table III API.

    Keyword arguments are :class:`~repro.net.JobSpec` fields (scaling
    policy, architecture, batch, LR, budget ...); ``tracer`` and
    ``metrics`` instrument the AM and every worker.
    """

    def __init__(
        self,
        workers: int = 2,
        tracer: "typing.Any | None" = None,
        metrics: "typing.Any | None" = None,
        **spec_fields: typing.Any,
    ):
        if workers < 1:
            raise ValueError("an elastic job needs at least one worker")
        self.spec = JobSpec(**spec_fields)
        self.hooks = HookRegistry()
        self._initial = [f"w{i}" for i in range(workers)]
        self._next_index = workers
        self.job = LocalJob(
            "memory", self.spec, self._initial, job_id="elastic",
            tracer=tracer, metrics=metrics,
        )
        self.driver = self.job.driver

    #: the job's current networked AM (observation reads its state).
    master = property(lambda self: self.job.master)

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> "ElasticJob":
        """Launch the job's workers; returns self for chaining."""
        for worker in self._initial:
            self._start_worker(worker)
        return self

    def stop(self, timeout: float = 60.0) -> None:
        """Wait for the iteration budget to run out, then tear the job
        down — with the joiners of an adjustment the budget outran."""
        deadline = time.monotonic() + timeout
        # Re-read ``master`` each round: a takeover replaces it.
        while not self.master.wait_complete(0.05):
            if time.monotonic() >= deadline:
                break
        self.job.stop()
        if self.job.errors:
            raise RuntimeError(f"workers failed: {self.job.errors}")
        if not self.master.complete:
            raise TimeoutError(f"job still running after {timeout}s")

    def __enter__(self) -> "ElasticJob":
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        self.stop()

    def _start_worker(self, worker: str) -> None:
        self.job.start_worker(worker, hooks=list(self.hooks))

    # -- Service API (scheduler-facing) -----------------------------------------

    def adjust_resource(
        self,
        kind: AdjustmentKind,
        count: "int | None" = None,
        worker_ids: "list[str] | None" = None,
    ) -> "list[str]":
        """The Table III service call: request a resource adjustment.

        Returns the worker ids affected (new ids for scale-out/migration,
        removed ids for scale-in).  Non-blocking: training continues while
        new workers start; the adjustment commits at a later coordination
        point (§V-B).
        """
        if kind is AdjustmentKind.SCALE_OUT:
            if count is None:
                raise ValueError("scale-out needs a worker count")
            return self.scale_out(count)
        if kind is AdjustmentKind.SCALE_IN:
            return self.scale_in(count=count or 1, worker_ids=worker_ids)
        return self.migrate(count=count)

    def scale_out(self, count: int) -> "list[str]":
        """Add ``count`` fresh workers."""
        added = self._fresh_ids(count)
        self._request("scale_out", add=added)
        for worker in added:
            self._start_worker(worker)
        return added

    def scale_in(
        self, count: int = 1, worker_ids: "list[str] | None" = None
    ) -> "list[str]":
        """Remove ``worker_ids`` (default: the last ``count`` members)."""
        removed = list(worker_ids or self._group()[-count:])
        self._request("scale_in", remove=removed)
        return removed

    def migrate(self, count: "int | None" = None) -> "list[str]":
        """Move the whole job onto ``count`` (default: as many) fresh
        workers."""
        group = self._group()
        added = self._fresh_ids(count or len(group))
        self._request("migration", add=added, remove=list(group))
        for worker in added:
            self._start_worker(worker)
        return added

    def _fresh_ids(self, count: int) -> "list[str]":
        start, self._next_index = self._next_index, self._next_index + count
        return [f"w{i}" for i in range(start, self._next_index)]

    def _request(self, kind: str, **change: "list[str]") -> None:
        reply = self.driver.request(
            MessageType.ADJUSTMENT_REQUEST, {"kind": kind, **change}
        )
        if not reply.get("accepted"):
            raise RuntimeError(
                f"{kind} refused: another adjustment is in flight"
            )

    def _group(self) -> "list[str]":
        return self.master.status()["group"]

    # -- RegisterHook -----------------------------------------------------------

    def register_hook(self, hook: Hook) -> None:
        """Attach extra state to replication (framework integration point).

        Register before :meth:`start`: each worker snapshots and restores
        the hooks it was started with.
        """
        self.hooks.register(hook)

    # -- observation ---------------------------------------------------------------

    @property
    def coordination_interval(self) -> int:
        """Iterations between Coordinate calls (elasticity granularity)."""
        return self.spec.coordination_interval

    def status(self) -> dict:
        """Current group/iteration/batch/learning-rate snapshot."""
        status = self.master.status()
        schedule = BatchSchedule.from_payload(status["schedule"])
        return {
            "generation": status["generation"],
            "group": tuple(status["group"]),
            "iteration": status["iteration"],
            "total_batch_size": schedule.total_batch_size,
            "learning_rate": schedule.lr_at(status["iteration"]),
            "adjustments": status["adjustments_committed"],
            "complete": status["complete"],
        }

    def digests(self) -> "dict[str, str]":
        """Final parameter digest per worker of the final group."""
        return self.master.status()["digests"]

    def _wait(self, done: typing.Callable[[dict], bool], timeout: float):
        return done(self.job.wait(done, timeout))

    def wait_for_adjustments(self, count: int, timeout: float = 30.0) -> bool:
        """Block until ``count`` adjustments have committed."""
        return self._wait(
            lambda status: status["adjustments_committed"] >= count, timeout
        )

    def wait_until_iteration(self, iteration: int, timeout: float = 30.0) -> bool:
        """Block until the job reached ``iteration`` (False if the budget
        ends first)."""
        return self._wait(
            lambda status: status["iteration"] >= iteration, timeout
        )

    def final_params(self) -> dict:
        """The model of the final group (call after :meth:`stop`)."""
        worker = self.master.status()["group"][0]
        return self.job.agents[worker].final_state["params"]

    def evaluate(self) -> float:
        """Test accuracy of the job's model (call after :meth:`stop`)."""
        spec = self.spec
        dataset = make_classification(
            train_size=spec.train_size, test_size=spec.test_size,
            input_dim=spec.input_dim, num_classes=spec.num_classes,
            seed=spec.seed,
        )
        return spec.build_architecture().accuracy(
            self.final_params(), dataset.test_x, dataset.test_y
        )

    @property
    def history(self) -> "list[Adjustment]":
        """Committed adjustments, oldest first."""
        return [
            Adjustment(
                commit_iteration=int(data["commit_iteration"]),
                group=tuple(data["new_group"]),
                schedule=BatchSchedule.from_payload(data["schedule"]),
                latency=float(data["latency"]),
            )
            for data in (
                record["data"] for record in self.master.journal.records()
                if record["kind"] == "commit"
            )
        ]
