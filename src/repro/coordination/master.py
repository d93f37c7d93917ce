"""The application master (AM): Elan's per-job control plane (§II, §V-B).

The AM offers the resource-adjustment service to the scheduler and
coordinates workers through the 5-step procedure of Fig. 2:

1. the scheduler *requests* an adjustment (and launches new workers);
2. new workers *report* after start + initialization;
3. existing workers *coordinate* at iteration boundaries; the adjustment
   commits at the first coordination point after every new worker has
   reported — existing workers never wait or shut down (the asynchronous
   coordination mechanism);
4. state replication and 5. state adjustment are executed by the workers
   at the commit point the AM chose.

The AM's decisions are transport-free pure logic: :func:`commit_boundary`
and :func:`adjusted_group` say when a commit lands and who is in the new
group, and :class:`PendingAdjustment` tracks one request through steps
1-2.  The networked AM (:mod:`repro.net.master_service`) keeps its
position — group, request, plan, watermark — only in the fold of its
write-ahead journal (§V-D) and calls these under its lock; the
discrete-event twin keeps its own group on simulated time and calls the
same functions, so both get identical decisions.
"""

from __future__ import annotations

import dataclasses
import enum
import typing


class AdjustmentKind(enum.Enum):
    """The three resource adjustments Elan supports."""

    SCALE_OUT = "scale_out"
    SCALE_IN = "scale_in"
    MIGRATION = "migration"


@dataclasses.dataclass(frozen=True)
class AdjustmentRequest:
    """A scheduler request (step 1 of Fig. 2).

    ``at_iteration`` optionally pins the commit to a specific boundary:
    the adjustment commits at the *later* of the pin and the natural
    next boundary.  A cluster scheduler uses this to make a resize land
    at the same iteration on every replay of a scenario — the natural
    boundary depends on when the request raced the workers' progress,
    the pin does not.
    """

    kind: AdjustmentKind
    add_workers: typing.Tuple[str, ...] = ()
    remove_workers: typing.Tuple[str, ...] = ()
    at_iteration: "int | None" = None

    def validate(self, current_group: typing.Sequence[str]) -> None:
        """Reject structurally impossible requests early."""
        if self.at_iteration is not None and self.at_iteration < 1:
            raise ValueError("at_iteration must be a future boundary (>= 1)")
        current = set(current_group)
        if self.kind is AdjustmentKind.SCALE_OUT:
            if not self.add_workers or self.remove_workers:
                raise ValueError("scale-out must only add workers")
        elif self.kind is AdjustmentKind.SCALE_IN:
            if not self.remove_workers or self.add_workers:
                raise ValueError("scale-in must only remove workers")
            if set(self.remove_workers) >= current:
                raise ValueError("scale-in cannot remove every worker")
        else:  # MIGRATION
            if not self.add_workers or not self.remove_workers:
                raise ValueError("migration must both add and remove workers")
        if set(self.add_workers) & current:
            raise ValueError("cannot add workers already in the group")
        missing = set(self.remove_workers) - current
        if missing:
            raise ValueError(f"cannot remove unknown workers: {sorted(missing)}")


def check_group(workers: typing.Sequence[str], interval: int) -> None:
    """Reject a job that could never coordinate: no workers, a worker
    listed twice, or a coordination interval below one iteration."""
    if not workers:
        raise ValueError("a job needs at least one worker")
    if len(set(workers)) != len(workers):
        raise ValueError(f"duplicate worker ids in {list(workers)}")
    if interval < 1:
        raise ValueError("coordination_interval must be >= 1")


def commit_boundary(
    latest: int, interval: int, pin: "int | None" = None,
) -> int:
    """The boundary an adjustment commits at, decided once its joiners
    reported: the first boundary strictly after ``latest`` (the furthest
    boundary any worker coordinated), or the pin rounded up to a
    boundary if that is later — a late pin degrades to the natural
    boundary, never behind the workers."""
    boundary = (latest // interval + 1) * interval
    if pin is not None:
        pinned = ((int(pin) + interval - 1) // interval) * interval
        boundary = max(boundary, pinned)
    return boundary


def adjusted_group(
    request: AdjustmentRequest, group: typing.Sequence[str],
) -> typing.Tuple[str, ...]:
    """The group once ``request`` commits: a migration's is exactly its
    new workers; otherwise the survivors in order, then the joiners."""
    if request.kind is AdjustmentKind.MIGRATION:
        return tuple(request.add_workers)
    survivors = tuple(w for w in group if w not in request.remove_workers)
    return survivors + tuple(request.add_workers)


class PendingAdjustment:
    """Steps 1-2 of one accepted adjustment, until its commit boundary
    is fixed (volatile: reports are never journaled).

    A scale-out waits for every joiner's report; one without joiners
    schedules at once.  ``latest`` is the furthest boundary any worker
    coordinated when the last report (or the request) lands.
    """

    def __init__(
        self,
        request: AdjustmentRequest,
        latest: int,
        interval: int,
        tracer: "typing.Any | None" = None,
    ):
        self.request = request
        self.interval = interval
        #: Optional span recorder; the networked AM and the DES twin
        #: hand theirs in, so AM transitions land on either timeline.
        self.tracer = tracer
        self.reported: typing.Set[str] = set()
        #: the boundary the adjustment commits at; None while a joiner
        #: is still starting.
        self.commit_iteration: "int | None" = None
        self._instant(
            "am.request", kind=request.kind.value,
            add=list(request.add_workers),
            remove=list(request.remove_workers),
        )
        if not request.add_workers:
            # Scale-in needs no reports: commit at the next boundary.
            self._schedule(latest)

    def _instant(self, name: str, **args) -> None:
        if self.tracer is not None:
            self.tracer.instant(name, track="am", cat="am", **args)

    def report(self, worker_id: str, latest: int) -> None:
        """Step 2: a new worker finished start + init and is ready to join
        (idempotent: a repeat, as a held JOIN asks on every wake, is
        ignored and not traced, as are reports from anyone else)."""
        if worker_id not in self.request.add_workers or (
            worker_id in self.reported
        ):
            return
        self.reported.add(worker_id)
        self._instant("am.report", worker=worker_id)
        if self.commit_iteration is None and self.reported >= set(
            self.request.add_workers
        ):
            self._schedule(latest)

    def due(self, iteration: int) -> bool:
        """Step 3: does a worker coordinating at ``iteration`` adjust?

        Non-blocking either way: while new workers are still starting
        the answer is no and training goes on — "the adjustment is left
        for future coordination" (the asynchronous coordination
        mechanism).
        """
        return (
            self.commit_iteration is not None
            and iteration >= self.commit_iteration
        )

    def _schedule(self, latest: int) -> None:
        self.commit_iteration = commit_boundary(
            latest, self.interval, self.request.at_iteration
        )
        self._instant(
            "am.commit_scheduled", commit_iteration=self.commit_iteration
        )
