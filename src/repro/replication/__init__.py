"""Concurrent IO-free state replication (paper §IV) and its baseline.

The planner turns topology into transfer assignments and contention-free
rounds; the executor runs plans on the discrete-event kernel (for timed
experiments); the checkpoint module models and implements the
storage-based baseline.
"""

from .checkpoint import (
    CheckpointCost,
    SharedStorage,
    checkpoint_load_cost,
    checkpoint_write_cost,
)
from .executor import (
    ReplicationTimeline,
    SimulatedReplicationExecutor,
    TransferRecord,
)
from .planner import (
    ETHERNET_BANDWIDTH,
    ReplicationPlan,
    Transfer,
    plan_migration,
    plan_replication,
)

__all__ = [
    "CheckpointCost",
    "ETHERNET_BANDWIDTH",
    "ReplicationPlan",
    "ReplicationTimeline",
    "SharedStorage",
    "SimulatedReplicationExecutor",
    "Transfer",
    "TransferRecord",
    "checkpoint_load_cost",
    "checkpoint_write_cost",
    "plan_migration",
    "plan_replication",
]
