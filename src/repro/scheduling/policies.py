"""Scheduling policies: FIFO, Backfill, and their elastic variants (§VI-C).

The static policies give every job exactly ``req_res`` workers for its
whole life.  The elastic policies implement the paper's simple rules:

* **admission** — a queued job may start if the cluster can hold the
  minimum allocations of every running job plus this one;
* **allocation** — every admitted job first gets ``min_res`` workers, then
  single workers go to whichever job has the highest marginal throughput
  gain (the Optimus-style gain), until GPUs, ``max_res`` caps or positive
  gains run out.

E-FIFO admits strictly in arrival order; E-BF also admits jobs behind a
blocked head (backfill).
"""

from __future__ import annotations

import typing

from .job import JobExecution


class SchedulingPolicy:
    """Interface: map cluster state to a target allocation."""

    name = "abstract"
    elastic = False

    def allocate(
        self,
        now: float,
        queue: "list[JobExecution]",
        running: "list[JobExecution]",
        total_gpus: int,
    ) -> "dict[str, int]":
        """Return {job_id: workers} for every job that should (keep)
        running.  Jobs absent from the mapping stay/queue at 0 workers."""
        raise NotImplementedError


def _static_backfill_candidates(
    now: float,
    queue: "list[JobExecution]",
    running: "list[JobExecution]",
    free: int,
) -> "list[tuple[JobExecution, int]]":
    """EASY backfill: which queued jobs may start without delaying the
    blocked head job's reservation."""
    if not queue:
        return []
    head = queue[0]
    starts: "list[tuple[JobExecution, int]]" = []
    if head.spec.req_res <= free:
        starts.append((head, head.spec.req_res))
        return starts  # caller loops; only safe immediate starts here
    # Build the head's reservation from running jobs' completion estimates.
    horizon = sorted(
        ((job.eta(now), job.workers) for job in running), key=lambda e: e[0]
    )
    available = free
    shadow_time = float("inf")
    for eta, workers in horizon:
        available += workers
        if available >= head.spec.req_res:
            shadow_time = eta
            break
    spare_after_head = max(0, available - head.spec.req_res)
    budget = free
    for job in queue[1:]:
        req = job.spec.req_res
        if req > budget:
            continue
        finishes_in_time = now + job.spec.duration_at(req) <= shadow_time
        fits_spare = req <= spare_after_head
        if finishes_in_time or fits_spare:
            starts.append((job, req))
            budget -= req
            if fits_spare:
                spare_after_head -= req
    return starts


class FifoPolicy(SchedulingPolicy):
    """Static first-in-first-out: the head blocks the queue."""

    name = "fifo"

    def allocate(self, now, queue, running, total_gpus):
        allocation = {job.spec.job_id: job.workers for job in running}
        free = total_gpus - sum(allocation.values())
        for job in queue:
            if job.spec.req_res <= free:
                allocation[job.spec.job_id] = job.spec.req_res
                free -= job.spec.req_res
            else:
                break  # FIFO: nobody overtakes the head
        return allocation


class BackfillPolicy(SchedulingPolicy):
    """Static EASY backfill (Slurm's default, the paper's BF baseline)."""

    name = "bf"

    def allocate(self, now, queue, running, total_gpus):
        allocation = {job.spec.job_id: job.workers for job in running}
        free = total_gpus - sum(allocation.values())
        pending = list(queue)
        # Start jobs FIFO while they fit.
        while pending and pending[0].spec.req_res <= free:
            job = pending.pop(0)
            allocation[job.spec.job_id] = job.spec.req_res
            free -= job.spec.req_res
        if pending:
            started_running = list(running) + [
                job for job in queue if job.spec.job_id in allocation
                and job not in running
            ]
            for job, workers in _static_backfill_candidates(
                now, pending, started_running, free
            ):
                if workers <= free:
                    allocation[job.spec.job_id] = workers
                    free -= workers
        return allocation


def elastic_allocation(
    running: "list[JobExecution]",
    ordered_queue: "typing.Iterable[JobExecution]",
    total_gpus: int,
    stop_at_blocked: bool,
    guarantee: "typing.Callable[[JobExecution], typing.Any] | None" = None,
    score: "typing.Callable[[JobExecution, float], float] | None" = None,
) -> "dict[str, int]":
    """The elastic rules over one queue order.

    Admission: a queued job (in ``ordered_queue`` order) starts if the
    minimum allocations of every admitted job plus its own fit; the
    first that does not blocks the rest when ``stop_at_blocked``.
    Allocation: every admitted job gets ``min_res``; with a
    ``guarantee`` sort key, jobs in that order are then topped up toward
    ``req_res``; the remaining GPUs go one at a time to the job with the
    highest positive ``score(job, marginal gain)`` (the gain itself by
    default) until GPUs, ``max_res`` caps or positive scores run out.
    """
    admitted = list(running)
    floor = sum(job.spec.min_res for job in admitted)
    for job in ordered_queue:
        if floor + job.spec.min_res <= total_gpus:
            admitted.append(job)
            floor += job.spec.min_res
        elif stop_at_blocked:
            break
    allocation = {job.spec.job_id: job.spec.min_res for job in admitted}
    free = total_gpus - sum(allocation.values())
    if guarantee is not None:
        for job in sorted(admitted, key=guarantee):
            if free <= 0:
                break
            want = min(job.spec.req_res, job.spec.max_res)
            grant = min(free, max(0, want - allocation[job.spec.job_id]))
            allocation[job.spec.job_id] += grant
            free -= grant
    by_id = {job.spec.job_id: job for job in admitted}
    while free > 0:
        best_id, best_score = None, 0.0
        for job_id, workers in allocation.items():
            job = by_id[job_id]
            if workers >= job.spec.max_res:
                continue
            value = job.spec.marginal_gain(workers)
            if score is not None:
                value = score(job, value)
            if value > best_score:
                best_id, best_score = job_id, value
        if best_id is None:
            break  # no positive score anywhere
        allocation[best_id] += 1
        free -= 1
    return allocation


class _ElasticBase(SchedulingPolicy):
    """The elastic rules in arrival order."""

    elastic = True
    skip_blocked_head = False

    def allocate(self, now, queue, running, total_gpus):
        return elastic_allocation(
            running, queue, total_gpus, not self.skip_blocked_head
        )


class ElasticFifoPolicy(_ElasticBase):
    """E-FIFO: elastic admission in strict arrival order."""

    name = "e-fifo"
    skip_blocked_head = False


class ElasticBackfillPolicy(_ElasticBase):
    """E-BF: elastic admission that may overtake a blocked head."""

    name = "e-bf"
    skip_blocked_head = True
