"""The paper's headline algorithms: hybrid scaling, progressive LR, AdaBatch."""

import importlib

from .adabatch import AdaBatchSchedule, BatchPhase, doubling_schedule
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


#: names imported on first use: the facade wraps the networked job
#: (which uses core policies), and the §VI-B experiment imports
#: :mod:`repro.baselines`, whose S&R checkpoints are :mod:`repro.net`
#: state blobs — so importing a core policy (as :mod:`repro.training`
#: does) loads no network stack.
_LAZY = {
    "ElasticJob": "api",
    "ElasticTrainingExperiment": "elastic_training",
    "PhaseExecution": "elastic_training",
    "TrainingTimeline": "elastic_training",
}


def __getattr__(name: str):
    if name in _LAZY:
        module = importlib.import_module(f".{_LAZY[name]}", __name__)
        return getattr(module, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
