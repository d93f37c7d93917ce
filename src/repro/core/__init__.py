"""The paper's headline algorithms: hybrid scaling, progressive LR, AdaBatch."""

from .adabatch import AdaBatchSchedule, BatchPhase, doubling_schedule
from .elastic_training import (
    ElasticTrainingExperiment,
    PhaseExecution,
    TrainingTimeline,
)
from .hybrid_scaling import (
    HybridScalingPolicy,
    ScalingDecision,
    ScalingPolicy,
    StrongScalingPolicy,
    WeakScalingPolicy,
)
from .progressive_lr import (
    DEFAULT_RAMP_ITERATIONS,
    LrRamp,
    ramp_for_scale,
)

__all__ = [
    "AdaBatchSchedule",
    "BatchPhase",
    "DEFAULT_RAMP_ITERATIONS",
    "ElasticJob",
    "ElasticTrainingExperiment",
    "PhaseExecution",
    "TrainingTimeline",
    "HybridScalingPolicy",
    "LrRamp",
    "ScalingDecision",
    "ScalingPolicy",
    "StrongScalingPolicy",
    "WeakScalingPolicy",
    "doubling_schedule",
    "ramp_for_scale",
]


def __getattr__(name: str):
    """Lazy import of :class:`ElasticJob` to break the core <-> net import
    cycle (the facade wraps the networked job, which uses core policies)."""
    if name == "ElasticJob":
        from .api import ElasticJob

        return ElasticJob
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
