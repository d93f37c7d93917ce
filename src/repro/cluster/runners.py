"""The per-job data plane the cluster scheduler starts and resizes.

The scheduler (:mod:`repro.cluster.scheduler`) deals only in worker
*counts*; :class:`ElasticJobRunner` turns those counts into a live
elastic job — one :class:`~repro.net.NetworkedApplicationMaster` plus
its :class:`~repro.net.agent.WorkerAgent` threads over the in-memory
transport or loopback TCP — and names, starts, and retires the actual
worker identities.  Every grow / shrink travels as an
``ADJUSTMENT_REQUEST`` with ``origin="scheduler"`` over the job's own
reliable link, so a scheduler decision reaches the AM through exactly
the wire path an external operator would use (and is journaled by the
AM with that origin and its pinned commit boundary).
"""

from __future__ import annotations

import typing

from ..coordination.messages import MessageType
from ..net.job import LocalJob
from ..net.master_service import JobSpec as NetJobSpec
from ..net.transport import (
    RemoteError,
    RequestTimeout,
    RetryableError,
    TransportClosed,
)

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .scheduler import JobRequest


class ElasticJobRunner:
    """One scheduled elastic job with thread workers (memory or TCP).

    Implements the scheduler's runner protocol: ``start(workers)``,
    ``resize(workers, at_iteration=None) -> bool``, ``progress()``,
    ``complete()``, ``digests()``, ``stop()``, ``close()``.  Worker ids
    are ``<job_id>-w<n>`` with ``n`` never reused, so a grow after a
    shrink introduces genuinely new members.  The job itself is a
    :class:`~repro.net.job.LocalJob`.
    """

    def __init__(
        self,
        request: "JobRequest",
        transport: str = "memory",
        tracer: "typing.Any | None" = None,
        metrics: "typing.Any | None" = None,
        host: str = "127.0.0.1",
        join_timeout: float = 30.0,
    ):
        self.request = request
        self.transport = transport
        self.tracer = tracer
        self.metrics = metrics
        self.host = host
        # Star jobs: the scheduler sizes groups, it never wires a mesh.
        self.spec = NetJobSpec(
            seed=request.seed, iterations=request.iterations,
            coordination_interval=request.coordination_interval,
            iteration_sleep=request.iteration_sleep, ring_enabled=False,
        )
        self.join_timeout = join_timeout
        self.job: "LocalJob | None" = None
        self._workers: "list[str]" = []
        self._next_worker = 0
        self._driver = None
        self._stopped = False

    master = property(lambda self: self.job and self.job.master)
    errors = property(lambda self: self.job.errors if self.job else {})

    def _start_worker(self, worker_id: str) -> None:
        self.job.start_worker(
            worker_id, link_options={"ack_timeout": 0.5},
            join_timeout=self.join_timeout,
        )

    def _new_workers(self, count: int) -> "list[str]":
        names = [
            f"{self.request.job_id}-w{self._next_worker + i}"
            for i in range(count)
        ]
        self._next_worker += count
        return names

    # -- the runner protocol ---------------------------------------------------

    def start(self, workers: int) -> None:
        """Bring up the AM and the initial worker group."""
        if self.job is not None:
            raise RuntimeError(f"{self.request.job_id}: already started")
        self._workers = self._new_workers(workers)
        self.job = LocalJob(
            self.transport, self.spec, self._workers,
            job_id=self.request.job_id, tracer=self.tracer,
            metrics=self.metrics, host=self.host,
        )
        for worker_id in self._workers:
            self._start_worker(worker_id)
        self._driver = self.job.link(
            f"{self.request.job_id}-driver", ack_timeout=1.0
        )

    def resize(self, workers: int, at_iteration: "int | None" = None) -> bool:
        """Grow/shrink to ``workers`` via one ``ADJUSTMENT_REQUEST``.

        Returns False when the AM already has an adjustment in flight
        (or the request could not be delivered); the scheduler retries
        on its next pass.
        """
        current = len(self._workers)
        if workers == current:
            return True
        if workers < 1:
            raise ValueError("resize target must be >= 1")
        if workers > current:
            added = self._new_workers(workers - current)
            payload = {"kind": "scale_out", "add": added}
        else:
            added = []
            payload = {"kind": "scale_in", "remove": self._workers[workers:]}
        payload.update(at_iteration=at_iteration, origin="scheduler")
        try:
            reply = self._driver.request(
                MessageType.ADJUSTMENT_REQUEST, payload
            )
        except (RequestTimeout, TransportClosed, RetryableError,
                RemoteError):
            return False
        if not reply.get("accepted"):
            return False
        if added:
            self._workers = list(self._workers) + added
            for worker_id in added:
                self._start_worker(worker_id)
        else:
            self._workers = self._workers[:workers]
        return True

    def progress(self) -> int:
        """The job's iteration watermark (its logical clock)."""
        if self.master is None:
            return 0
        return int(self.master.status()["iteration"])

    def committed(self) -> int:
        """Adjustments committed so far (scenario phase barrier)."""
        if self.master is None:
            return 0
        return int(self.master.status()["adjustments_committed"])

    def complete(self) -> bool:
        return self.master is not None and self.master.complete

    def digests(self) -> "dict[str, str]":
        return {} if self.master is None else self.master.final_digests()

    def stop(self) -> None:
        """Hard preemption: tear the job down, progress is lost."""
        self._stopped = True
        if self.job is not None:
            self.job.stop()

    def close(self) -> None:
        """Release everything after completion (or after ``stop``)."""
        if self.job is None:
            return
        if not self._stopped:
            self.job.join(self.join_timeout)
        self.job.close()
