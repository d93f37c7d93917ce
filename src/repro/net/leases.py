"""Lease-based worker failure detection for the networked AM.

A SIGKILLed worker sends no goodbye: only its expiring heartbeat lease
tells the AM it is gone.  :class:`LeaseSupervisor` owns the lease
deadlines (every dispatched message and transport heartbeat renews the
sender's), the expiry sweep that decides whom to condemn, and the MTTR
clocks a condemnation starts.

Everything here is volatile and runs under the AM's lock.  The
condemnation itself is a ``condemn`` record the AM journals, and the
fold's ``condemned`` set is what keeps a condemned worker from renewing
or being swept again; a successor re-leases survivors as they re-enroll
and restarts the MTTR clock of every condemned worker whose eviction
had not committed (:meth:`LeaseSupervisor.adopt`).  This deadline map is
what is left of the paper's etcd (§V-D): the AM's one durable record is
its journal, which also carries the fencing epoch.
"""

from __future__ import annotations

import threading
import time
import typing

from .journal import JournalError, JournalState


class LeaseSupervisor:
    """Lease deadlines + expiry sweep + MTTR clocks of one AM incarnation."""

    def __init__(
        self, spec, state: JournalState, lock, clock, metrics, tracer,
        sweep: "typing.Callable[[], typing.Any]",
    ):
        self.spec = spec
        self.state = state
        self.lock = lock
        self.metrics = metrics
        self.tracer = tracer
        self._detection = metrics.histogram("failure.detection_latency_seconds")
        self._mttr = metrics.histogram("failure.mttr_seconds")
        self._sweep = sweep
        self.clock = clock or time.monotonic
        #: lease deadline (absolute ``clock`` time) per leased worker.
        self.deadlines: "dict[str, float]" = {}
        #: condemned workers whose eviction has not committed yet ->
        #: detection clock time (MTTR measurement start).
        self.recovering: "dict[str, float]" = {}
        self._stop = threading.Event()
        #: the sweep thread; None under an injected clock, where tests
        #: and the soak drive ``check_leases`` themselves.
        self.thread: "threading.Thread | None" = None
        if spec.worker_lease_ttl > 0 and clock is None:
            self.thread = threading.Thread(
                target=self._loop, name="am-lease-supervisor", daemon=True,
            )

    def start(self) -> None:
        if self.thread is not None:
            self.thread.start()

    def stop(self) -> None:
        """Stop sweeping and renewing (the AM is closing or fenced)."""
        self._stop.set()

    def _loop(self) -> None:
        while not self._stop.wait(self.spec.lease_check_interval):
            try:
                self._sweep()
            except (JournalError, OSError, ValueError):
                # The journal refused the record (a failed write, or its
                # file closed under the sweep): count it, sweep on.
                self.metrics.counter("am.lease_check_errors").inc()

    def renew(self, sender: str) -> None:
        """Every dispatched message (and TCP heartbeat) renews a lease.

        Called *before* dedup on purpose: a worker blocked at a sync
        barrier keeps retransmitting the same request, and those
        duplicates are exactly the liveness signal that must keep its
        lease fresh.
        """
        ttl = self.spec.worker_lease_ttl
        if ttl <= 0 or self._stop.is_set():
            return
        state = self.state
        with self.lock:
            if sender in state.condemned or sender in state.departed:
                return
            live = set(state.current_group)
            if state.plan is not None:
                live.update(state.plan["new_group"])
            elif state.pending_request is not None:
                live.update(state.pending_request["add"])
            if sender not in live:
                return  # the driver, or a worker not (yet) in the job
            self.deadlines[sender] = self.clock() + ttl

    def expired(self, parked: "set[str]") -> "list[tuple]":
        """Lock held: ``(worker, deadline)`` per worker to condemn now.

        A worker whose request is parked in an open barrier the AM
        itself is holding delivered a message we have not answered, so
        it is live by definition (and on the in-memory transport a
        parked sender produces no other traffic at all — its request
        thread is blocked inside our handler).  Every sweep renews its
        lease, so the barrier's release leaves it a whole TTL to speak
        again rather than a lease that lapsed while it waited.
        """
        now = self.clock()
        for worker in parked:
            if worker in self.deadlines:
                self.deadlines[worker] = now + self.spec.worker_lease_ttl
        state = self.state
        return [
            (worker, deadline)
            for worker, deadline in sorted(self.deadlines.items())
            # Gone, or done: a finished worker sends nothing more.
            if deadline <= now and worker not in state.condemned
            and worker not in state.departed and worker not in state.final
        ]

    def condemned(self, worker: str, now: float, deadline: float) -> None:
        """Lock held: a ``condemn`` record landed — fence, clock, report."""
        self.recovering[worker] = now
        # The (possibly merely slow) holder is fenced out by the fold's
        # ``condemned`` set, which refuses its renewals and keeps it out
        # of every later sweep: its deadline is dead weight.
        self.deadlines.pop(worker, None)
        latency = max(0.0, now - deadline)
        self._detection.observe(latency)
        self.metrics.counter("events.failure_detected").inc()
        self.metrics.counter("worker.lease.expired").inc()
        if self.tracer is not None:
            self.tracer.instant(
                "worker.condemned", track="am", cat="failover",
                worker=worker, detection_latency=latency,
            )

    def recovered(self, removed: typing.Iterable[str], now: float) -> "list[str]":
        """Lock held: a commit evicts ``removed`` — close their MTTR
        clocks; returns the ones that were lease evictions."""
        evicted = []
        for worker in removed:
            started = self.recovering.pop(worker, None)
            if started is not None:
                evicted.append(worker)
                self._mttr.observe(max(0.0, now - started))
                self.metrics.counter("events.recovery").inc()
        return evicted

    def adopt(self, now: float) -> None:
        """A successor restarts the clocks of unfinished evictions."""
        for worker in self.state.condemned - set(self.state.departed):
            self.recovering[worker] = now
