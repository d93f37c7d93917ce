"""The hybrid scaling mechanism (paper §III-3, Algorithm 1).

Strong scaling (total batch fixed) is algorithm-transparent but hits
diminishing returns; weak scaling (per-worker batch fixed) keeps the
hardware busy but perturbs the total batch size, which hurts model
performance.  Algorithm 1 finds the *minimum* total batch size whose
strong-scaling optimal worker count covers the new allocation:

    k = 1
    while k <= N'/N:
        TBS' = k * TBS
        if optimal_workers(TBS') >= N':  return TBS'
        k *= 2
    return TBS * N'/N          # fall back to plain weak scaling

and pairs every batch change with a progressive linear LR ramp (§III-3).
"""

from __future__ import annotations

import dataclasses
import typing

from ..perfmodel.models import get_model
from ..perfmodel.throughput import ThroughputModel
from .progressive_lr import DEFAULT_RAMP_ITERATIONS, LrRamp, ramp_for_scale


@dataclasses.dataclass(frozen=True)
class ScalingDecision:
    """Outcome of a scaling policy for one resource adjustment."""

    new_total_batch_size: int
    lr_ramp: LrRamp
    strategy: str  # "strong", "weak" or "hybrid"

    @property
    def batch_scale(self) -> float:
        """``k``: how much the total batch size changed."""
        return self.lr_ramp.scale_factor


class ScalingPolicy:
    """Interface: decide batch size and LR after a worker-count change."""

    def decide(
        self,
        old_workers: int,
        new_workers: int,
        total_batch_size: int,
        learning_rate: float,
        iteration: int,
    ) -> ScalingDecision:
        """Return the post-adjustment batch size and LR ramp."""
        raise NotImplementedError


class StrongScalingPolicy(ScalingPolicy):
    """Keep the total batch size fixed (Optimus/Falcon behaviour)."""

    def decide(self, old_workers, new_workers, total_batch_size,
               learning_rate, iteration) -> ScalingDecision:
        ramp = ramp_for_scale(learning_rate, 1.0, iteration, length=0)
        return ScalingDecision(
            new_total_batch_size=total_batch_size,
            lr_ramp=ramp,
            strategy="strong",
        )


class WeakScalingPolicy(ScalingPolicy):
    """Scale the total batch proportionally (Gandiva behaviour), with the
    progressive LR ramp applied so convergence is not left to the user."""

    def __init__(self, ramp_iterations: int = DEFAULT_RAMP_ITERATIONS):
        self.ramp_iterations = ramp_iterations

    def decide(self, old_workers, new_workers, total_batch_size,
               learning_rate, iteration) -> ScalingDecision:
        scale = new_workers / old_workers
        new_tbs = max(new_workers, int(round(total_batch_size * scale)))
        ramp = ramp_for_scale(
            learning_rate, new_tbs / total_batch_size, iteration,
            length=self.ramp_iterations,
        )
        return ScalingDecision(
            new_total_batch_size=new_tbs, lr_ramp=ramp, strategy="weak"
        )


class HybridScalingPolicy(ScalingPolicy):
    """Algorithm 1: adaptively choose between strong and weak scaling."""

    def __init__(
        self,
        throughput_model: ThroughputModel,
        ramp_iterations: int = DEFAULT_RAMP_ITERATIONS,
        max_workers_searched: int = 1024,
    ):
        self.throughput_model = throughput_model
        self.ramp_iterations = ramp_iterations
        self.max_workers_searched = max_workers_searched

    def get_total_batch_size(
        self, old_workers: int, new_workers: int, total_batch_size: int
    ) -> typing.Tuple[int, str]:
        """Procedure GETTOTALBATCHSIZE of Algorithm 1.

        Returns the new total batch size and which strategy produced it.
        """
        if old_workers < 1 or new_workers < 1:
            raise ValueError("worker counts must be >= 1")
        if total_batch_size < old_workers:
            raise ValueError(
                f"total batch {total_batch_size} < {old_workers} workers"
            )
        if new_workers <= old_workers:
            # Scaling in (or unchanged): strong scaling is always safe —
            # fewer workers only increase the per-worker batch.
            return total_batch_size, "strong"
        k = 1
        while k <= new_workers / old_workers:
            candidate = k * total_batch_size
            optimal = self.throughput_model.optimal_workers(
                candidate, max_workers=self.max_workers_searched
            )
            if optimal >= new_workers:
                return candidate, ("strong" if k == 1 else "hybrid")
            k *= 2
        scale = new_workers / old_workers
        return max(new_workers, int(round(total_batch_size * scale))), "weak"

    def decide(self, old_workers, new_workers, total_batch_size,
               learning_rate, iteration) -> ScalingDecision:
        new_tbs, strategy = self.get_total_batch_size(
            old_workers, new_workers, total_batch_size
        )
        scale = new_tbs / total_batch_size
        ramp = ramp_for_scale(
            learning_rate, scale, iteration,
            length=self.ramp_iterations if scale != 1.0 else 0,
        )
        return ScalingDecision(
            new_total_batch_size=new_tbs, lr_ramp=ramp, strategy=strategy
        )


#: the policies a :class:`ScalingSpec` can name.
SCALING_POLICIES = ("strong", "weak", "hybrid")


@dataclasses.dataclass(frozen=True)
class BatchSchedule:
    """The total batch and LR ramp a job trains with from one commit on.

    The AM mints one per adjustment (journaled in the ``plan`` record,
    shipped in the commit directive and the join admission); every
    worker derives its per-worker batch and learning rate from it.
    """

    total_batch_size: int
    lr_ramp: LrRamp
    strategy: str = "strong"

    @classmethod
    def constant(cls, total_batch_size: int, lr: float) -> "BatchSchedule":
        """A job's schedule before its first adjustment."""
        return cls(total_batch_size, LrRamp(0, 0, lr, lr))

    def per_worker_batch(self, group_size: int) -> int:
        """The total batch split across the group."""
        return max(1, self.total_batch_size // max(1, group_size))

    def lr_at(self, iteration: int) -> float:
        return self.lr_ramp.lr_at(iteration)

    def to_payload(self) -> dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_payload(cls, payload: dict) -> "BatchSchedule":
        return cls(
            int(payload["total_batch_size"]), LrRamp(**payload["lr_ramp"]),
            str(payload["strategy"]),
        )


@dataclasses.dataclass(frozen=True)
class ScalingSpec:
    """A scaling policy by name, so a job spec can carry it on the wire.

    ``policy`` is ``"strong"``, ``"weak"`` or ``"hybrid"``; a hybrid
    policy names the :mod:`repro.perfmodel` ``model`` whose throughput
    curve Algorithm 1 searches.  ``ramp_iterations`` is the T of the
    progressive LR ramp (Eq. 3).
    """

    policy: str = "strong"
    model: "str | None" = None
    ramp_iterations: int = DEFAULT_RAMP_ITERATIONS

    def __post_init__(self):
        if self.policy not in SCALING_POLICIES:
            raise ValueError(f"unknown scaling policy {self.policy!r}")
        if (self.policy == "hybrid") != (self.model is not None):
            raise ValueError("a model is named by, and only by, hybrid")
        if self.ramp_iterations < 0:
            raise ValueError("ramp_iterations must be >= 0")

    def build(self) -> ScalingPolicy:
        """The :class:`ScalingPolicy` this spec names."""
        if self.policy == "weak":
            return WeakScalingPolicy(self.ramp_iterations)
        if self.policy == "hybrid":
            return HybridScalingPolicy(
                ThroughputModel(get_model(self.model)), self.ramp_iterations
            )
        return StrongScalingPolicy()

    def rescale(
        self, schedule: BatchSchedule, old_workers: int, new_workers: int,
        iteration: int,
    ) -> BatchSchedule:
        """The schedule in force from ``iteration``, when the group goes
        from ``old_workers`` to ``new_workers`` there.

        An adjustment that keeps the total batch (strong scaling, a
        migration) keeps the current ramp, an unfinished one included;
        one that changes it ramps from the current learning rate.
        """
        decision = self.build().decide(
            old_workers, new_workers, schedule.total_batch_size,
            schedule.lr_at(iteration), iteration,
        )
        ramp = schedule.lr_ramp
        if decision.new_total_batch_size != schedule.total_batch_size:
            ramp = decision.lr_ramp
        return BatchSchedule(
            decision.new_total_batch_size, ramp, decision.strategy
        )
