"""Per-system adjustment costs and overheads for the scheduler (Fig. 22).

The §VI-C2 comparison runs the same elastic policy under three systems:
*Ideal* (zero-cost, instantaneous elasticity), *Elan* and *S&R*.  The
simulator charges each resource adjustment a downtime sampled from the
corresponding timing model and multiplies throughput by (1 - runtime
overhead).
"""

from __future__ import annotations

import typing

from ..baselines.timing import (
    ElanAdjustmentModel,
    ShutdownRestartModel,
    runtime_overhead_fraction,
)
from ..perfmodel.models import ModelSpec


class AdjustmentCostModel:
    """Interface: downtime charged for one resource adjustment."""

    name = "abstract"

    def downtime(
        self, model: ModelSpec, old_workers: int, new_workers: int
    ) -> float:
        """Seconds the job pauses for this adjustment."""
        raise NotImplementedError

    def overhead_factor(self, model: ModelSpec, workers: int) -> float:
        """Steady-state throughput multiplier (1.0 = no overhead)."""
        return 1.0


class IdealCosts(AdjustmentCostModel):
    """The paper's 'Ideal': free, instantaneous elasticity."""

    name = "ideal"

    def downtime(self, model, old_workers, new_workers) -> float:
        return 0.0


class _TimedCosts(AdjustmentCostModel):
    """Downtime sampled from a timing model (cached per adjustment
    shape) and the per-mille coordination overhead of §VI-A1, which
    Elan and S&R share when idle."""

    timing: "typing.Callable[..., typing.Any]"

    def __init__(self, seed: int = 0):
        self._model = self.timing(seed=seed)
        self._cache: typing.Dict[tuple, float] = {}

    def downtime(self, model, old_workers, new_workers) -> float:
        if new_workers == old_workers:
            return 0.0
        kind = "scale_out" if new_workers > old_workers else "scale_in"
        key = (kind, model.name, old_workers, new_workers)
        if key not in self._cache:
            self._cache[key] = self._model.adjustment_time(
                kind, model, old_workers, new_workers
            ).total
        return self._cache[key]

    def overhead_factor(self, model, workers) -> float:
        return 1.0 - runtime_overhead_fraction(model, max(1, workers))


class ElanCosts(_TimedCosts):
    """Elan: sub-second adjustments, per-mille runtime overhead."""

    name = "elan"
    timing = ElanAdjustmentModel


class ShutdownRestartCosts(_TimedCosts):
    """S&R: every adjustment pays checkpoint + restart (tens of seconds)."""

    name = "sr"
    timing = ShutdownRestartModel
