"""Elan's control plane: AM, protocol, leases, hooks, timed twin (§II, §V).

The decision engine (:class:`ApplicationMaster`) persists nothing: the
networked AM's write-ahead journal (:mod:`repro.net.journal`) is its one
durable record, fencing epoch included.  :class:`LeaseTable` holds the
worker heartbeat leases, and :class:`SimulatedElasticJob` runs the same
engine on simulated time.
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
from .store import LeaseRevoked, LeaseTable

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
    "LeaseRevoked",
    "LeaseTable",
    "MasterState",
    "Message",
    "SilentCrash",
    "SimulatedAdjustment",
    "SimulatedElasticJob",
    "MessageFactory",
    "MessageType",
]
