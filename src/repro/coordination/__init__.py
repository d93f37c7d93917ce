"""Elan's control plane: AM, protocol, store, hooks, live runtime (§II, §V)."""

from .collective import Collective, CollectiveAborted
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
from .runtime import (
    ElasticRuntime,
    GroupPlan,
    WorkerContext,
    params_consistent,
)
from .store import (
    TOMBSTONE,
    CasConflict,
    KeyValueStore,
    LeaseRevoked,
    RetryingStore,
    StoreUnavailable,
)
from .telemetry import RuntimeTelemetry, TelemetryEvent

__all__ = [
    "AdjustmentKind",
    "AdjustmentRequest",
    "ApplicationMaster",
    "CasConflict",
    "Collective",
    "CollectiveAborted",
    "DeduplicatingInbox",
    "Directive",
    "DirectiveKind",
    "ElasticRuntime",
    "ExponentialBackoff",
    "FaultPlan",
    "GroupPlan",
    "Hook",
    "HookRegistry",
    "KeyValueStore",
    "LeaseExpired",
    "LeaseRevoked",
    "MasterState",
    "Message",
    "RetryingStore",
    "RuntimeTelemetry",
    "SilentCrash",
    "SimulatedAdjustment",
    "SimulatedElasticJob",
    "StaleEpochError",
    "StoreUnavailable",
    "TelemetryEvent",
    "TOMBSTONE",
    "MessageFactory",
    "MessageType",
    "WorkerContext",
    "params_consistent",
]
