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
identical decisions.  Every transition
is persisted to a :class:`~repro.coordination.store.KeyValueStore`
(the etcd stand-in) so a failed AM can be recovered (§V-D).
"""

from __future__ import annotations

import dataclasses
import enum
import typing

from .store import CasConflict, KeyValueStore


class StaleEpochError(RuntimeError):
    """Raised when a fenced-off AM incarnation tries to act.

    Every AM incarnation (initial launch and each recovery) acquires a
    strictly increasing *fencing epoch* via CAS on the store.  An
    incarnation whose epoch is no longer current — it crashed, a
    replacement recovered, but the old process is still running — is
    *stale*: its directives must be rejected and its writes refused, or a
    zombie master could double-commit an adjustment the new master is
    also driving.
    """


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
    """AM state machine (persisted to the store)."""

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
    """The AM's answer to one coordinate call.

    Carries the issuing AM's fencing ``epoch`` so receivers can reject
    directives from a master that has since been superseded.
    """

    kind: DirectiveKind
    adjustment: "AdjustmentRequest | None" = None
    new_group: typing.Tuple[str, ...] = ()
    commit_iteration: int = -1
    epoch: int = 0


class ApplicationMaster:
    """Pure-logic AM; thread safety is the caller's concern."""

    def __init__(
        self,
        job_id: str,
        workers: typing.Sequence[str],
        store: "KeyValueStore | None" = None,
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
        self.store = store or KeyValueStore()
        self.coordination_interval = coordination_interval
        #: Optional span recorder; both the networked AM and the DES twin
        #: hand theirs in, so AM transitions land on either timeline.
        self.tracer = tracer
        self._directive_span = None
        self.state = MasterState.RUNNING
        self.group: typing.Tuple[str, ...] = tuple(workers)
        self.pending: "AdjustmentRequest | None" = None
        self.reported: set = set()
        self.commit_iteration = -1
        self.latest_iteration = 0
        self.coordinations = 0
        self.adjustments_committed = 0
        self.epoch = self._acquire_epoch(self.store, job_id)
        self._persisted_iteration = 0
        self._persist()

    def _instant(self, name: str, **args) -> None:
        if self.tracer is not None:
            self.tracer.instant(name, track="am", cat="am", **args)

    # -- fencing (§V-D hardening) ---------------------------------------------

    @staticmethod
    def _acquire_epoch(store: KeyValueStore, job_id: str) -> int:
        """Claim leadership: CAS the job's epoch counter one step higher.

        Losing the CAS means another incarnation claimed concurrently;
        re-read and try again — the loop terminates because every loser
        observes a strictly larger version.
        """
        key = f"elan/{job_id}/am/epoch"
        while True:
            current = store.get(key, 0)
            version = store.version(key)
            try:
                store.compare_and_swap(key, version, current + 1)
            except CasConflict:
                continue
            return current + 1

    def _check_fenced(self) -> None:
        """Refuse to act if a newer incarnation holds the epoch."""
        current = self.store.get(f"elan/{self.job_id}/am/epoch", 0)
        if current != self.epoch:
            raise StaleEpochError(
                f"AM epoch {self.epoch} for job {self.job_id!r} has been "
                f"superseded by epoch {current}"
            )

    # -- service API offered to the scheduler (Table III) --------------------

    def request_adjustment(self, request: AdjustmentRequest) -> bool:
        """Step 1: accept an adjustment unless one is already in flight."""
        self._check_fenced()
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
        self._persist()
        return True

    # -- worker-facing protocol ----------------------------------------------

    def worker_report(self, worker_id: str) -> None:
        """Step 2: a new worker finished start + init and is ready to join."""
        self._check_fenced()
        if self.pending is None or worker_id not in self.pending.add_workers:
            return  # stale or unknown report; ignore (idempotent)
        self.reported.add(worker_id)
        self._instant("am.report", worker=worker_id)
        if self.state is MasterState.WAITING_REPORTS and self.reported >= set(
            self.pending.add_workers
        ):
            self._schedule_commit()
        self._persist()

    def coordinate(self, worker_id: str, iteration: int) -> Directive:
        """Step 3: an existing worker checks in at an iteration boundary.

        Non-blocking: if an adjustment is committed for this boundary the
        worker is told to adjust; otherwise — including while new workers
        are still starting — it is told to continue immediately.  This is
        the asynchronous coordination mechanism: stragglers among the new
        workers never stall training, "the adjustment is left for future
        coordination".
        """
        self._check_fenced()
        if worker_id not in self.group:
            raise KeyError(f"{worker_id!r} is not in the current group")
        self.coordinations += 1
        self.latest_iteration = max(self.latest_iteration, iteration)
        if (
            self.state is MasterState.COMMIT_SCHEDULED
            and iteration >= self.commit_iteration
        ):
            return self._commit_directive()
        # Keep the persisted iteration view fresh enough that a recovered
        # AM never schedules a commit in the workers' past — but only one
        # write per boundary (the first worker to mention it), so the hot
        # path stays a dict insert, not a write per coordination.
        if (
            self.latest_iteration - self._persisted_iteration
            >= self.coordination_interval
        ):
            self._persist()
        return Directive(kind=DirectiveKind.CONTINUE, epoch=self.epoch)

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
        # Directive issue -> ack as one span: opened the first time an
        # ADJUST directive is minted, closed by finish_adjustment.
        if self.tracer is not None and self._directive_span is None:
            self._directive_span = self.tracer.begin(
                "am.directive", track="am", cat="am",
                kind=request.kind.value,
                commit_iteration=self.commit_iteration, epoch=self.epoch,
            )
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
            epoch=self.epoch,
        )

    def finish_adjustment(self) -> None:
        """Called by the harness once steps 4-5 completed at the commit."""
        self._check_fenced()
        directive = self._commit_directive()
        self.group = directive.new_group
        self.pending = None
        self.reported = set()
        self.commit_iteration = -1
        self.state = MasterState.RUNNING
        self.adjustments_committed += 1
        if self.tracer is not None and self._directive_span is not None:
            self.tracer.end(
                self._directive_span, group_size=len(self.group)
            )
            self._directive_span = None
        self._persist()

    # -- fault tolerance (§V-D) --------------------------------------------------

    def _persist(self) -> None:
        self._persisted_iteration = self.latest_iteration
        self.store.put(
            f"elan/{self.job_id}/am",
            {
                "epoch": self.epoch,
                "state": self.state.value,
                "group": list(self.group),
                "pending": None
                if self.pending is None
                else {
                    "kind": self.pending.kind.value,
                    "add": list(self.pending.add_workers),
                    "remove": list(self.pending.remove_workers),
                    "at_iteration": self.pending.at_iteration,
                },
                "reported": sorted(self.reported),
                "commit_iteration": self.commit_iteration,
                "latest_iteration": self.latest_iteration,
                "coordination_interval": self.coordination_interval,
                "adjustments_committed": self.adjustments_committed,
            },
        )

    @classmethod
    def recover(
        cls, job_id: str, store: KeyValueStore,
        tracer: "typing.Any | None" = None,
    ) -> "ApplicationMaster":
        """Rebuild a failed AM from its persisted state machine.

        The replacement claims a fresh (strictly higher) fencing epoch
        first, so the dead incarnation — should it turn out to be merely
        slow — is locked out before any recovered state is acted on.
        """
        snapshot = store.get(f"elan/{job_id}/am")
        if snapshot is None:
            raise KeyError(f"no persisted AM state for job {job_id!r}")
        master = cls.__new__(cls)
        master.job_id = job_id
        master.store = store
        master.tracer = tracer
        master._directive_span = None
        master.epoch = cls._acquire_epoch(store, job_id)
        master.coordination_interval = snapshot["coordination_interval"]
        pending = snapshot["pending"]
        master.coordinations = 0
        master.reposition(
            MasterState(snapshot["state"]),
            snapshot["group"],
            None
            if pending is None
            else AdjustmentRequest(
                kind=AdjustmentKind(pending["kind"]),
                add_workers=tuple(pending["add"]),
                remove_workers=tuple(pending["remove"]),
                at_iteration=pending.get("at_iteration"),
            ),
            reported=snapshot["reported"],
            commit_iteration=snapshot["commit_iteration"],
            latest_iteration=snapshot["latest_iteration"],
            adjustments_committed=snapshot["adjustments_committed"],
        )  # persisting re-stamps the snapshot with the new epoch
        return master

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
        """Put the state machine at a position persisted elsewhere.

        The one way to set the AM's position from outside its own
        transitions: :meth:`recover` uses it with the store snapshot,
        the networked AM with the fold of its write-ahead journal.
        """
        self.state = state
        self.group = tuple(group)
        self.pending = pending
        self.reported = set(reported)
        self.commit_iteration = commit_iteration
        self.latest_iteration = latest_iteration
        self.adjustments_committed = adjustments_committed
        self._persist()
