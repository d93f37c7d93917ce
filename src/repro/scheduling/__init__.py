"""Elastic DL job scheduling: trace, policies, simulator, metrics (§VI-C)."""

import typing

from .adapter import PolicyAdapter
from .costs import (
    AdjustmentCostModel,
    ElanCosts,
    IdealCosts,
    ShutdownRestartCosts,
)
from .job import PER_WORKER_BATCH, JobExecution, JobSpec
from .metrics import ScheduleResult, UtilizationPoint, summarize
from .planning import (
    CapacityPoint,
    capacity_sweep,
    elasticity_hardware_savings,
    required_gpus,
)
from .policies import (
    BackfillPolicy,
    ElasticBackfillPolicy,
    ElasticFifoPolicy,
    FifoPolicy,
    SchedulingPolicy,
)
from .priority import PriorityElasticPolicy
from .simulator import ClusterSimulator
from .srtf import ElasticSrtfPolicy
from .trace import TWO_DAYS, generate_trace
from .traceio import load_trace, save_trace, trace_from_dicts, trace_to_dicts

#: The policies by name: the CLI's choices, and how a scheduler journal
#: records its policy (by name, not by pickle).
POLICIES: "dict[str, typing.Callable[[], SchedulingPolicy]]" = {
    "fifo": FifoPolicy,
    "bf": BackfillPolicy,
    "e-fifo": ElasticFifoPolicy,
    "e-bf": ElasticBackfillPolicy,
    "e-srtf": ElasticSrtfPolicy,
    "e-priority": PriorityElasticPolicy,
}

__all__ = [
    "AdjustmentCostModel",
    "BackfillPolicy",
    "CapacityPoint",
    "ClusterSimulator",
    "ElanCosts",
    "ElasticBackfillPolicy",
    "ElasticFifoPolicy",
    "ElasticSrtfPolicy",
    "FifoPolicy",
    "IdealCosts",
    "JobExecution",
    "JobSpec",
    "PER_WORKER_BATCH",
    "POLICIES",
    "PolicyAdapter",
    "PriorityElasticPolicy",
    "ScheduleResult",
    "SchedulingPolicy",
    "ShutdownRestartCosts",
    "TWO_DAYS",
    "UtilizationPoint",
    "capacity_sweep",
    "elasticity_hardware_savings",
    "generate_trace",
    "load_trace",
    "required_gpus",
    "save_trace",
    "trace_from_dicts",
    "trace_to_dicts",
    "summarize",
]
