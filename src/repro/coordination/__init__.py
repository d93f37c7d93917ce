"""Elan's control plane: AM decisions, protocol, hooks, timed twin (§II, §V).

The AM's decisions (:func:`commit_boundary`, :func:`adjusted_group`,
:class:`PendingAdjustment`) hold no position of their own: the networked
AM keeps its group, request and watermark only in the fold of its
write-ahead journal (:mod:`repro.net.journal`), fencing epoch included,
and its heartbeat deadlines live in :mod:`repro.net.leases`.
:class:`SimulatedElasticJob` calls the same decisions on simulated time
to time adjustments.
"""

from .dessim import SimulatedAdjustment, SimulatedElasticJob
from .faults import ExponentialBackoff, FaultPlan, SilentCrash
from .hooks import Hook, HookRegistry
from .master import (
    AdjustmentKind,
    AdjustmentRequest,
    PendingAdjustment,
    adjusted_group,
    check_group,
    commit_boundary,
)
from .messages import (
    Message,
    MessageFactory,
    MessageType,
)

__all__ = [
    "AdjustmentKind",
    "AdjustmentRequest",
    "ExponentialBackoff",
    "FaultPlan",
    "Hook",
    "HookRegistry",
    "Message",
    "PendingAdjustment",
    "SilentCrash",
    "SimulatedAdjustment",
    "SimulatedElasticJob",
    "MessageFactory",
    "MessageType",
    "adjusted_group",
    "check_group",
    "commit_boundary",
]
