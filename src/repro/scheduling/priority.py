"""Priority-aware elastic scheduling with preemption (extension).

The paper notes that "local training clusters can exploit elasticity to
provide preemption, migration and over-subscription" (§VI-C).  This
policy realizes the preemption part on top of the elastic machinery:

* admission considers higher-priority jobs first;
* high-priority jobs are topped up toward ``req_res`` *before* any
  marginal-gain distribution — when a high-priority job arrives, running
  low-priority jobs shrink toward ``min_res`` at the next scheduling
  event (an Elan scale-in, costing well under a second, instead of a
  kill);
* leftover GPUs then flow by marginal gain as in the base policy.
"""

from __future__ import annotations

from .policies import SchedulingPolicy, elastic_allocation


class PriorityElasticPolicy(SchedulingPolicy):
    """Elastic scheduling with priority classes and soft preemption."""

    name = "e-priority"
    elastic = True

    def allocate(self, now, queue, running, total_gpus):
        def rank(job):
            return (-job.spec.priority, job.spec.submit_time, job.spec.job_id)

        return elastic_allocation(
            running, sorted(queue, key=rank), total_gpus,
            stop_at_blocked=False, guarantee=rank,
        )
