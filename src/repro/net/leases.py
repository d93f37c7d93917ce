"""Lease-based worker failure detection for the networked AM.

A SIGKILLed worker sends no goodbye: only its expiring heartbeat lease
tells the AM it is gone.  :class:`LeaseSupervisor` owns the lease table
(every dispatched message and transport heartbeat renews the sender's
lease), the expiry sweep that decides whom to condemn, and the MTTR
clocks a condemnation starts.

Everything here is volatile.  The condemnation itself is a ``condemn``
record the AM journals; a successor re-leases survivors as they
re-enroll and restarts the MTTR clock of every condemned worker whose
eviction had not committed (:meth:`LeaseSupervisor.adopt`).

:class:`LeaseTable` is what is left of the paper's etcd (§V-D): the AM's
one durable record is its journal, which also carries the fencing
epoch, so etcd survives only as the heartbeat substrate.
"""

from __future__ import annotations

import threading
import time
import typing

from .journal import JournalError, JournalState


class LeaseRevoked(RuntimeError):
    """Raised when re-leasing a key whose lease was forcibly revoked."""


class LeaseTable:
    """Thread-safe TTL leases with forced revocation.

    A key is live while its holder keeps renewing it, expired once its
    deadline passes, and revoked once the supervisor fences the holder
    out.  The clock is injectable (default: the monotonic wall clock).
    """

    def __init__(self, clock: "typing.Callable[[], float] | None" = None):
        self._lock = threading.Lock()
        self.clock = clock or time.monotonic
        #: Lease deadlines (absolute clock times) by key.
        self._deadlines: typing.Dict[str, float] = {}
        #: Leases revoked by force_expire; keep_alive cannot revive them.
        self._revoked: typing.Set[str] = set()

    def lease(self, key: str, ttl: float) -> None:
        """Lease ``key`` for ``ttl``; it is considered dead once the
        deadline passes without a :meth:`keep_alive`.

        Re-leasing an expired (but not revoked) key revives it — the
        holder came back before the supervisor acted.
        """
        if ttl <= 0:
            raise ValueError(f"ttl must be > 0, got {ttl}")
        with self._lock:
            if key in self._revoked:
                raise LeaseRevoked(f"lease {key!r} was revoked")
            self._deadlines[key] = self.clock() + ttl

    def keep_alive(self, key: str, ttl: float) -> bool:
        """Refresh ``key``'s lease deadline; the heartbeat.

        Returns False — without reviving anything — if the key holds no
        lease or the lease was forcibly revoked (the holder has been
        fenced out and must stop).
        """
        if ttl <= 0:
            raise ValueError(f"ttl must be > 0, got {ttl}")
        with self._lock:
            if key not in self._deadlines or key in self._revoked:
                return False
            self._deadlines[key] = self.clock() + ttl
            return True

    def lease_deadline(self, key: str) -> "float | None":
        """Absolute expiry time of ``key``'s lease (None if unleased)."""
        with self._lock:
            return self._deadlines.get(key)

    def expired_keys(self, prefix: str = "") -> "list[str]":
        """Leased keys under ``prefix`` whose deadline has passed, sorted."""
        with self._lock:
            now = self.clock()
            return sorted(
                key
                for key, deadline in self._deadlines.items()
                if key.startswith(prefix) and deadline <= now
            )

    def force_expire(self, key: str) -> None:
        """Revoke ``key``'s lease now (fence its holder out): its
        deadline becomes the present and :meth:`keep_alive` fails."""
        with self._lock:
            if key not in self._deadlines:
                return
            self._deadlines[key] = self.clock()
            self._revoked.add(key)


class LeaseSupervisor:
    """Lease table + expiry sweep + MTTR clocks of one AM incarnation."""

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
        #: the heartbeat leases, on the injectable clock.
        self.table = LeaseTable(clock=clock)
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
            key = f"lease/{sender}"
            if not self.table.keep_alive(key, ttl):
                self.table.lease(key, ttl)

    def expired(self, parked: "set[str]", now: float) -> "list[tuple]":
        """Lock held: ``(worker, deadline)`` per worker to condemn now.

        A worker whose request is parked in an open barrier the AM
        itself is holding delivered a message we have not answered, so
        it is live by definition (and on the in-memory transport a
        parked sender produces no other traffic at all — its request
        thread is blocked inside our handler).  Every sweep renews its
        lease, so the barrier's release leaves it a whole TTL to speak
        again rather than a lease that lapsed while it waited.
        """
        for worker in parked:
            self.table.keep_alive(f"lease/{worker}", self.spec.worker_lease_ttl)
        doomed = []
        for key in self.table.expired_keys("lease/"):
            worker = key.split("/", 1)[1]
            if (
                worker in self.state.condemned
                or worker in self.state.departed
                or worker in self.state.final
            ):
                # Gone, or done: a finished worker sends nothing more.
                continue
            doomed.append((worker, self.table.lease_deadline(key) or now))
        return doomed

    def condemned(self, worker: str, now: float, deadline: float) -> None:
        """Lock held: a ``condemn`` record landed — fence, clock, report."""
        self.recovering[worker] = now
        # Fence the (possibly merely slow) holder out: its keep-alives
        # must fail from here on so it cannot resurrect the lease the
        # eviction is already acting on.
        self.table.force_expire(f"lease/{worker}")
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
