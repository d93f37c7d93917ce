"""Elan's control plane: AM, protocol, hooks, timed twin (§II, §V).

The decision engine (:class:`ApplicationMaster`) persists nothing: the
networked AM's write-ahead journal (:mod:`repro.net.journal`) is its one
durable record, fencing epoch included, and its heartbeat leases live in
:mod:`repro.net.leases`.  :class:`SimulatedElasticJob` runs the same
engine on simulated time to time adjustments.
"""

from .dessim import SimulatedAdjustment, SimulatedElasticJob
from .faults import ExponentialBackoff, FaultPlan, SilentCrash
from .hooks import Hook, HookRegistry
from .master import (
    AdjustmentKind,
    AdjustmentRequest,
    ApplicationMaster,
    Directive,
    DirectiveKind,
    MasterState,
)
from .messages import (
    DeduplicatingInbox,
    Message,
    MessageFactory,
    MessageType,
)

__all__ = [
    "AdjustmentKind",
    "AdjustmentRequest",
    "ApplicationMaster",
    "DeduplicatingInbox",
    "Directive",
    "DirectiveKind",
    "ExponentialBackoff",
    "FaultPlan",
    "Hook",
    "HookRegistry",
    "MasterState",
    "Message",
    "SilentCrash",
    "SimulatedAdjustment",
    "SimulatedElasticJob",
    "MessageFactory",
    "MessageType",
]
