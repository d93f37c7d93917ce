"""Live multi-tenant cluster scheduling (ROADMAP: beyond one job).

The paper evaluates its admission rule and marginal-gain allocation
(§VI-C) in an offline trace simulator; this package runs the *same*
policies — through the same :class:`~repro.scheduling.PolicyAdapter`
seam — against real networked elastic jobs: a
:class:`ClusterScheduler` service owns a GPU inventory, admits queued
submissions, and continuously resizes the per-job
:class:`~repro.net.NetworkedApplicationMaster`s over the existing
in-memory/TCP transports (SUBMIT / OFFER / RELEASE / JOB_STATUS on
the §V-D reliable links, and each job's ``ADJUSTMENT_REQUEST``).
"""

from .runners import ElasticJobRunner
from .scenario import ChurnScenario, ScenarioReport, run_churn_scenario
from .scheduler import (
    CLUSTER_RECORD_KINDS,
    ClusterJournalState,
    ClusterScheduler,
    JobRequest,
)

__all__ = [
    "CLUSTER_RECORD_KINDS",
    "ChurnScenario",
    "ClusterJournalState",
    "ClusterScheduler",
    "ElasticJobRunner",
    "JobRequest",
    "ScenarioReport",
    "run_churn_scenario",
]
