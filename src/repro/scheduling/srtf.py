"""An extension beyond the paper: SRTF-ordered elastic scheduling.

The paper's §VI-C closes with "a more complicated scheduling policy is
out of the scope of this paper, we leave it for future work."  This
module provides one such policy: admission and the marginal-gain
tie-breaking favour the job with the *shortest remaining service time*
(SRTF), the classic average-JCT-optimal discipline, adapted to elastic
allocations:

* queued jobs are admitted in increasing remaining-time order (estimated
  at ``req_res``), subject to the same min_res feasibility rule;
* the greedy worker distribution divides each job's marginal throughput
  gain by its remaining work, so a worker goes where it buys the largest
  *completion-time* reduction rather than the largest raw throughput.

The ablation benchmark compares it against E-FIFO on the same traces.
"""

from __future__ import annotations

from .job import JobExecution
from .policies import SchedulingPolicy, elastic_allocation


class ElasticSrtfPolicy(SchedulingPolicy):
    """Elastic scheduling with shortest-remaining-time-first ordering."""

    name = "e-srtf"
    elastic = True

    def allocate(self, now, queue, running, total_gpus):
        def remaining(job: JobExecution) -> float:
            rate = job.spec.throughput(job.spec.req_res)
            return job.remaining_work / rate

        def leverage(job: JobExecution, gain: float) -> float:
            # Completion-time leverage: throughput gained per unit of
            # remaining work — small jobs near the finish line win.
            return gain / max(1.0, job.remaining_work)

        return elastic_allocation(
            running, sorted(queue, key=remaining), total_gpus,
            stop_at_blocked=False, score=leverage,
        )
