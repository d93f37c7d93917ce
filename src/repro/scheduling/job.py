"""Job model for the cluster-scheduling experiments (paper §VI-C).

Each trace job picks one Table I model configuration.  A static job runs
on exactly ``req_res`` workers; an elastic job may run anywhere between
``min_res`` (the model fits in GPU memory) and ``max_res`` (it still
converges), with throughput given by the calibrated performance model —
the paper likewise drives its simulator with measured throughputs.
"""

from __future__ import annotations

import dataclasses
import functools

from ..perfmodel.models import ModelSpec
from ..perfmodel.throughput import ThroughputModel

#: Per-worker batch used when sizing throughput, following the paper's
#: elastic-training configuration (batch 32 per worker).
PER_WORKER_BATCH = 32


@functools.lru_cache(maxsize=None)
def _cached_model(model_name: str) -> ThroughputModel:
    from ..perfmodel.models import get_model

    return ThroughputModel(get_model(model_name))


@dataclasses.dataclass(frozen=True)
class JobSpec:
    """One job of the scheduling trace."""

    job_id: str
    model: ModelSpec
    submit_time: float
    work: float  # total samples the job must process
    req_res: int  # workers a static scheduler must provide
    min_res: int  # smallest allocation the job can run on
    max_res: int  # largest allocation that still converges
    priority: int = 0  # larger = more important (preemption extension)

    def __post_init__(self):
        if not 1 <= self.min_res <= self.req_res <= self.max_res:
            raise ValueError(
                f"{self.job_id}: need 1 <= min {self.min_res} <= req "
                f"{self.req_res} <= max {self.max_res}"
            )
        if self.work <= 0:
            raise ValueError(f"{self.job_id}: work must be positive")

    def throughput(self, workers: int) -> float:
        """Samples/second on ``workers`` (weak scaling at batch 32)."""
        if workers == 0:
            return 0.0
        if workers < 0:
            raise ValueError("workers must be >= 0")
        model = _cached_model(self.model.name)
        return model.throughput(workers, workers * PER_WORKER_BATCH)

    def marginal_gain(self, workers: int) -> float:
        """Throughput gained by the (workers+1)-th worker (Optimus-style)."""
        return self.throughput(workers + 1) - self.throughput(workers)

    def duration_at(self, workers: int) -> float:
        """Seconds to finish the whole job on a constant allocation."""
        return self.work / self.throughput(workers)


@dataclasses.dataclass
class JobExecution:
    """Mutable bookkeeping of one job inside the scheduler simulator."""

    spec: JobSpec
    workers: int = 0
    work_done: float = 0.0
    start_time: "float | None" = None
    completion_time: "float | None" = None
    paused_until: float = 0.0  # adjustment downtime
    adjustments: int = 0

    @property
    def running(self) -> bool:
        """Whether the job currently holds workers."""
        return self.workers > 0 and self.completion_time is None

    @property
    def done(self) -> bool:
        """Whether the job has finished."""
        return self.completion_time is not None

    @property
    def remaining_work(self) -> float:
        """Samples still to process."""
        return max(0.0, self.spec.work - self.work_done)

    def advance(self, start: float, end: float) -> None:
        """Accrue work over [start, end) at the current allocation."""
        if end < start:
            raise ValueError("time cannot run backwards")
        if not self.running:
            return
        effective_start = max(start, self.paused_until)
        if effective_start >= end:
            return
        self.work_done += (end - effective_start) * self.spec.throughput(
            self.workers
        )

    def eta(self, now: float) -> float:
        """Predicted completion time at the current rate (inf if idle)."""
        if self.done or not self.running:
            return float("inf")
        rate = self.spec.throughput(self.workers)
        if rate <= 0:
            return float("inf")
        start = max(now, self.paused_until)
        return start + self.remaining_work / rate
