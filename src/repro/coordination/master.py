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

The AM is deliberately transport-free pure logic: the networked AM
(:mod:`repro.net.master_service`) calls it under a lock, the
discrete-event experiments drive it with simulated time, and both get
identical decisions.  The engine persists and fences nothing: its owner
keeps the one durable record (the networked AM's write-ahead journal,
§V-D) and places a successor's fresh engine at the recorded position
with :meth:`ApplicationMaster.reposition`.
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


class DirectiveKind(enum.Enum):
    """What a coordinating worker is told to do."""

    CONTINUE = "continue"
    ADJUST = "adjust"


class MasterState(enum.Enum):
    """AM state machine."""

    RUNNING = "running"
    WAITING_REPORTS = "waiting_reports"
    COMMIT_SCHEDULED = "commit_scheduled"


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


@dataclasses.dataclass(frozen=True)
class Directive:
    """The AM's answer to one coordinate call."""

    kind: DirectiveKind
    adjustment: "AdjustmentRequest | None" = None
    new_group: typing.Tuple[str, ...] = ()
    commit_iteration: int = -1


class ApplicationMaster:
    """Pure-logic AM; thread safety is the caller's concern."""

    def __init__(
        self,
        job_id: str,
        workers: typing.Sequence[str],
        coordination_interval: int = 1,
        tracer: "typing.Any | None" = None,
    ):
        if not workers:
            raise ValueError("a job needs at least one worker")
        if len(set(workers)) != len(workers):
            raise ValueError(f"duplicate worker ids in {list(workers)}")
        if coordination_interval < 1:
            raise ValueError("coordination_interval must be >= 1")
        self.job_id = job_id
        self.coordination_interval = coordination_interval
        #: Optional span recorder; both the networked AM and the DES twin
        #: hand theirs in, so AM transitions land on either timeline.
        self.tracer = tracer
        self.state = MasterState.RUNNING
        self.group: typing.Tuple[str, ...] = tuple(workers)
        self.pending: "AdjustmentRequest | None" = None
        self.reported: set = set()
        self.commit_iteration = -1
        self.latest_iteration = 0
        self.coordinations = 0
        self.adjustments_committed = 0

    def _instant(self, name: str, **args) -> None:
        if self.tracer is not None:
            self.tracer.instant(name, track="am", cat="am", **args)

    # -- service API offered to the scheduler (Table III) --------------------

    def request_adjustment(self, request: AdjustmentRequest) -> bool:
        """Step 1: accept an adjustment unless one is already in flight."""
        if self.pending is not None:
            return False
        request.validate(self.group)
        self.pending = request
        self.reported = set()
        self._instant(
            "am.request", kind=request.kind.value,
            add=list(request.add_workers),
            remove=list(request.remove_workers),
        )
        if request.add_workers:
            self.state = MasterState.WAITING_REPORTS
        else:
            # Scale-in needs no reports: commit at the next boundary.
            self._schedule_commit()
        return True

    # -- worker-facing protocol ----------------------------------------------

    def worker_report(self, worker_id: str) -> None:
        """Step 2: a new worker finished start + init and is ready to join."""
        if self.pending is None or worker_id not in self.pending.add_workers:
            return  # stale or unknown report; ignore (idempotent)
        self.reported.add(worker_id)
        self._instant("am.report", worker=worker_id)
        if self.state is MasterState.WAITING_REPORTS and self.reported >= set(
            self.pending.add_workers
        ):
            self._schedule_commit()

    def coordinate(self, worker_id: str, iteration: int) -> Directive:
        """Step 3: an existing worker checks in at an iteration boundary.

        Non-blocking: if an adjustment is committed for this boundary the
        worker is told to adjust; otherwise — including while new workers
        are still starting — it is told to continue immediately.  This is
        the asynchronous coordination mechanism: stragglers among the new
        workers never stall training, "the adjustment is left for future
        coordination".
        """
        if worker_id not in self.group:
            raise KeyError(f"{worker_id!r} is not in the current group")
        self.coordinations += 1
        self.latest_iteration = max(self.latest_iteration, iteration)
        if (
            self.state is MasterState.COMMIT_SCHEDULED
            and iteration >= self.commit_iteration
        ):
            return self._commit_directive()
        return Directive(kind=DirectiveKind.CONTINUE)

    # -- internals -------------------------------------------------------------

    def _schedule_commit(self) -> None:
        interval = self.coordination_interval
        next_boundary = (self.latest_iteration // interval + 1) * interval
        pin = self.pending.at_iteration if self.pending is not None else None
        if pin is not None:
            # Round the pin up to a boundary, then never schedule behind
            # the workers: a late pin degrades to the natural boundary.
            pinned = ((int(pin) + interval - 1) // interval) * interval
            next_boundary = max(next_boundary, pinned)
        self.commit_iteration = next_boundary
        self.state = MasterState.COMMIT_SCHEDULED
        self._instant("am.commit_scheduled", commit_iteration=next_boundary)

    def _commit_directive(self) -> Directive:
        request = self.pending
        assert request is not None
        if request.kind is AdjustmentKind.MIGRATION:
            new_group = tuple(request.add_workers)
        else:
            survivors = [w for w in self.group if w not in request.remove_workers]
            new_group = tuple(survivors) + tuple(request.add_workers)
        return Directive(
            kind=DirectiveKind.ADJUST,
            adjustment=request,
            new_group=new_group,
            commit_iteration=self.commit_iteration,
        )

    def finish_adjustment(self) -> None:
        """Called by the harness once steps 4-5 completed at the commit."""
        directive = self._commit_directive()
        self.group = directive.new_group
        self.pending = None
        self.reported = set()
        self.commit_iteration = -1
        self.state = MasterState.RUNNING
        self.adjustments_committed += 1

    def reposition(
        self,
        state: MasterState,
        group: typing.Sequence[str],
        pending: "AdjustmentRequest | None",
        reported: typing.Iterable[str] = (),
        commit_iteration: int = -1,
        latest_iteration: int = 0,
        adjustments_committed: int = 0,
    ) -> None:
        """Put the state machine at a position recorded elsewhere.

        The one way to set the engine's position from outside its own
        transitions: the networked AM places its engine from the fold of
        its write-ahead journal.
        """
        self.state = state
        self.group = tuple(group)
        self.pending = pending
        self.reported = set(reported)
        self.commit_iteration = commit_iteration
        self.latest_iteration = latest_iteration
        self.adjustments_committed = adjustments_committed
