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
A cluster scenario file (``examples/scenarios/churn.json``, run by
:mod:`repro.net.scenario`) drills it end to end under spot churn.
"""

from .runners import ElasticJobRunner
from .scheduler import (
    CLUSTER_RECORD_KINDS,
    ClusterJournalState,
    ClusterScheduler,
    JobRequest,
)

__all__ = [
    "CLUSTER_RECORD_KINDS",
    "ClusterJournalState",
    "ClusterScheduler",
    "ElasticJobRunner",
    "JobRequest",
]
