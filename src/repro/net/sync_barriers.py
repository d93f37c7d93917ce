"""The AM's gradient rendezvous: one barrier per (generation, iteration).

Workers post their per-shard gradients with ``SYNC`` and block until
every live member of their generation contributed, then all receive the
same server-computed mean.  :class:`SyncBarriers` owns every open
barrier and the per-generation floors that keep post-failover
retransmissions from seeding barriers nobody else will join.

It is volatile by design and never journals: a successor AM starts with
no barriers and one floor derived from the journaled progress
watermark, and the workers' timeout-resend re-seeds whatever was in
flight.  Membership, the live generation and the condemned set are
*read* from the journal fold under the AM lock.
"""

from __future__ import annotations

import threading
import typing

import numpy as np

from ..training.nn import average_gradients
from .collective import ring_reference_average
from .journal import JournalState
from .wire import payload_nbytes


def condemned_reply(worker: str) -> dict:
    """What a condemned-but-merely-slow worker is told: re-enroll, learn
    it was evicted, and depart — not keep feeding a generation that is
    being rebuilt without it."""
    return {
        "__error__": f"worker {worker!r} was condemned by lease expiry",
        "__retry__": "am_superseded",
    }


class _SyncBarrier:
    """One (generation, iteration) gradient rendezvous."""

    __slots__ = ("expected", "contributions", "collected", "event", "result")

    def __init__(self, expected: typing.Iterable[str]):
        self.expected = frozenset(expected)
        self.contributions: "dict[str, typing.Any]" = {}
        #: members whose handler call has returned the result — once all
        #: have, the barrier can be dropped (dedup means no member's
        #: handler runs twice, so nobody will need it again).
        self.collected: set = set()
        self.event = threading.Event()
        self.result: "dict | None" = None

    def strand(self, error: str, retry: str) -> None:
        """Wake the waiters of a barrier that can never complete."""
        if self.result is None:
            self.result = {"__error__": error, "__retry__": retry}
        self.event.set()


class SyncBarriers:
    """Every open rendezvous of one AM, plus the per-generation floors."""

    def __init__(self, spec, state: JournalState, lock, metrics):
        self.spec = spec
        self.state = state
        self.lock = lock
        self.metrics = metrics
        self.open: "dict[tuple, _SyncBarrier]" = {}
        #: per-generation sync floor: the highest iteration any *fresh*
        #: SYNC arrived at.  A fresh sync below the floor belongs to a
        #: barrier the group already moved past (possible only after a
        #: failover lost the reply cache) and is answered with a
        #: retryable stale-barrier error instead of seeding a barrier
        #: that can never complete.
        self.floors: "dict[int, int]" = {}
        #: highest iteration any SYNC reached (``STATUS`` progress view).
        self.latest_iteration = 0
        #: once the AM is fenced, the reply every sync gets instead of a
        #: barrier (set by :meth:`release_all`).
        self.fence: "dict | None" = None

    # -- the SYNC handler ------------------------------------------------------

    def sync(self, worker: str, payload: dict) -> dict:
        generation = int(payload["generation"])
        iteration = int(payload["iteration"])
        key = (generation, iteration)
        state = self.state
        with self.lock:
            if self.fence is not None:
                # The dispatch-time fence check races abandon(): a sync
                # that slipped past it must not seed a fresh barrier
                # after the fence swept the old ones — nobody would ever
                # resolve it and the worker would hang for the full
                # allreduce timeout instead of re-enrolling.
                return self.fence
            if worker in state.condemned:
                # Checked first: a condemned worker's late sync may name
                # a generation its own eviction retired, and it must
                # still learn it was evicted rather than fail.
                return condemned_reply(worker)
            if generation < state.generation:
                # Lockstep means live members never sync a retired
                # generation; anything arriving here is a straggler of
                # a superseded incarnation and must not seed a barrier
                # that can never complete.
                raise KeyError(
                    f"sync generation {generation} superseded by "
                    f"generation {state.generation}"
                )
            group = state.groups.get(generation)
            if group is None or worker not in group:
                raise KeyError(
                    f"{worker!r} is not in generation {generation}"
                )
            floor = self.floors.get(generation, -1)
            if iteration < floor:
                # The rest of the group already synced past this
                # iteration — its barrier completed and was dropped (or
                # died with a predecessor AM).  Seeding a new one would
                # strand this worker for the full allreduce timeout; a
                # retryable error lets it repair the missed mean from a
                # peer's cache instead.
                return {
                    "__error__": (
                        f"sync ({generation}, {iteration}) is below the "
                        f"barrier floor {floor}"
                    ),
                    "__retry__": "stale_barrier",
                }
            self.advance_floor(generation, iteration)
            self.metrics.counter("net.sync.grad_bytes").inc(
                payload_nbytes(payload.get("grads"))
            )
            if payload.get("ring_fallback"):
                self.metrics.counter("net.sync.ring_fallbacks").inc()
            barrier = self.open.get(key)
            if barrier is None:
                barrier = self.open[key] = _SyncBarrier(
                    w for w in group if w not in state.condemned
                )
            barrier.contributions[worker] = payload.get("grads")
            self.latest_iteration = max(self.latest_iteration, iteration)
            self._resolve(barrier, group)
        if not barrier.event.wait(self.spec.allreduce_timeout):
            missing = sorted(barrier.expected - set(barrier.contributions))
            raise TimeoutError(
                f"sync ({generation}, {iteration}) timed out waiting "
                f"for {missing}"
            )
        result = barrier.result or {}
        with self.lock:
            barrier.collected.add(worker)
            if barrier.collected >= barrier.expected:
                # Everyone has this iteration's mean; keeping the
                # barrier (and its gradient ndarrays) any longer would
                # grow memory linearly with iterations run.
                self.open.pop(key, None)
        self.metrics.counter("net.sync.grad_bytes").inc(
            payload_nbytes(result.get("grads"))
        )
        return result

    def _resolve(self, barrier: _SyncBarrier, group) -> None:
        """Lock held: publish the mean once every expected member is in."""
        if set(barrier.contributions) >= barrier.expected:
            barrier.result = {
                "grads": self._average(tuple(group), barrier.contributions),
                "members": len(barrier.expected),
            }
            barrier.event.set()

    def _average(self, group: "tuple[str, ...]", contributions: dict):
        """Average one barrier's gradients, matching the ring's order.

        Ring-enabled jobs must get bit-identical means from both
        planes, and IEEE float addition is not associative — so when
        the ring is on, the AM replays the ring's exact reduction
        (ring-order chained adds over zero-filled absentees) instead
        of the naive sum.  Star-only jobs keep ``average_gradients``
        arithmetic, summed in group order rather than arrival order so
        the mean does not depend on the schedule.
        """
        concrete = [
            contributions[member] for member in group
            if contributions.get(member)
        ]
        if not concrete:
            return None
        if not self.spec.ring_enabled:
            return average_gradients(concrete)
        template = concrete[0]
        ordered = [
            contributions.get(member) or
            {name: np.zeros_like(arr) for name, arr in template.items()}
            for member in group
        ]
        return ring_reference_average(ordered)

    # -- releasing what can never complete -------------------------------------

    def advance_floor(self, generation: int, iteration: int) -> None:
        """Raise a generation's barrier floor and release what it strands.

        Lock held.  In fault-free operation lockstep guarantees no
        result-less barrier exists below a fresh sync's iteration (the
        group can only advance once every member collected the previous
        mean), so this only ever fires on the retransmission patterns a
        failover produces.
        """
        if iteration <= self.floors.get(generation, -1):
            return
        self.floors[generation] = iteration
        for key in [
            k for k, barrier in self.open.items()
            if k[0] == generation and k[1] < iteration
            and barrier.result is None
        ]:
            self.open.pop(key).strand(
                f"sync {key} is below the barrier floor {iteration}",
                "stale_barrier",
            )

    def drop_superseded(self) -> None:
        """Lock held: release sync barriers stranded by a commit.

        A barrier for a superseded generation can never complete (its
        membership no longer syncs); without this it would pin its
        gradient arrays and park its waiters for the full
        ``allreduce_timeout``.  Waking them with a generation-changed
        error turns a silent stall into an immediate, explicit signal.
        """
        live = self.state.generation
        for key in [k for k in self.open if k[0] < live]:
            self.open.pop(key).strand(
                f"sync generation {key[0]} superseded by generation {live}",
                "generation_superseded",
            )

    def release_worker(self, worker: str) -> None:
        """Lock held: drop a dead worker from every waiting barrier.

        Survivors blocked on the dead member's contribution get their
        mean now — computed over the same ring-ordered, zero-filled
        reduction both planes use, so every survivor stays bit-identical
        with the others.
        """
        for key, barrier in list(self.open.items()):
            if barrier.result is not None or worker not in barrier.expected:
                continue
            barrier.expected = frozenset(barrier.expected - {worker})
            barrier.contributions.pop(worker, None)
            if not barrier.expected:
                self.open.pop(key)
                continue
            self._resolve(barrier, self.state.groups.get(key[0], ()))

    def release_all(self, fence: "dict | None" = None) -> None:
        """Wake every waiter: the AM is closing (the waiters get an error:
        there is no mean to give them), or — with ``fence``, a retryable
        reply — being fenced out in favour of a successor."""
        with self.lock:
            self.fence = fence or self.fence
            for barrier in self.open.values():
                if barrier.result is None:
                    barrier.result = self.fence or {
                        "__error__": "the AM closed before the barrier completed"
                    }
                barrier.event.set()

    # -- read-only views --------------------------------------------------------

    def parked(self) -> "set[str]":
        """Lock held: workers whose SYNC this AM is holding unanswered."""
        return {
            worker
            for barrier in self.open.values() if barrier.result is None
            for worker in barrier.contributions
        }

    def waiting(self) -> "list[dict]":
        """Lock held: per unresolved barrier, who has not contributed."""
        return [
            {
                "generation": generation, "iteration": iteration,
                "missing": sorted(
                    barrier.expected - set(barrier.contributions)
                ),
            }
            for (generation, iteration), barrier in sorted(self.open.items())
            if barrier.result is None
        ]
