"""Elan's control plane: AM, protocol, store, hooks, timed twin (§II, §V)."""

from .dessim import SimulatedAdjustment, SimulatedElasticJob
from .faults import ExponentialBackoff, FaultPlan, LeaseExpired, SilentCrash
from .hooks import Hook, HookRegistry
from .master import (
    AdjustmentKind,
    AdjustmentRequest,
    ApplicationMaster,
    Directive,
    DirectiveKind,
    MasterState,
    StaleEpochError,
)
from .messages import (
    DeduplicatingInbox,
    Message,
    MessageFactory,
    MessageType,
)
from .store import (
    TOMBSTONE,
    CasConflict,
    KeyValueStore,
    LeaseRevoked,
)
from .telemetry import RuntimeTelemetry, TelemetryEvent

__all__ = [
    "AdjustmentKind",
    "AdjustmentRequest",
    "ApplicationMaster",
    "CasConflict",
    "DeduplicatingInbox",
    "Directive",
    "DirectiveKind",
    "ExponentialBackoff",
    "FaultPlan",
    "Hook",
    "HookRegistry",
    "KeyValueStore",
    "LeaseExpired",
    "LeaseRevoked",
    "MasterState",
    "Message",
    "RuntimeTelemetry",
    "SilentCrash",
    "SimulatedAdjustment",
    "SimulatedElasticJob",
    "StaleEpochError",
    "TelemetryEvent",
    "TOMBSTONE",
    "MessageFactory",
    "MessageType",
]
