"""A table of TTL leases — what is left of the etcd stand-in (§V-D).

The paper deploys Elan on Kubernetes and keeps the application master's
state machine on etcd.  Here the AM's one durable record is its
write-ahead journal (:mod:`repro.net.journal`), which also carries the
fencing epoch; what remains of etcd is its lease table, the heartbeat
substrate of lease-based failure detection.  A key is live while its
holder keeps renewing it, expired once its deadline passes, and revoked
once a supervisor fences the holder out.

The clock is injectable — the default is the monotonic wall clock, and
the discrete-event twin plugs in its simulated ``now``.
"""

from __future__ import annotations

import threading
import time
import typing


class LeaseRevoked(RuntimeError):
    """Raised when re-leasing a key whose lease was forcibly revoked."""


class LeaseTable:
    """Thread-safe TTL leases with forced revocation."""

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
                raise LeaseRevoked(
                    f"lease {key!r} was revoked; delete it before re-leasing"
                )
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

    def lease_revoked(self, key: str) -> bool:
        """True if ``key``'s lease was forcibly revoked (fenced out)."""
        with self._lock:
            return key in self._revoked

    def expired_keys(self, prefix: str = "") -> "list[str]":
        """Leased keys under ``prefix`` whose deadline has passed, sorted.

        Expired leases stay in the table until a supervisor reaps them
        with :meth:`delete` — detection and reaction are separate steps.
        """
        with self._lock:
            now = self.clock()
            return sorted(
                key
                for key, deadline in self._deadlines.items()
                if key.startswith(prefix) and deadline <= now
            )

    def force_expire(self, key: str, at: "float | None" = None) -> None:
        """Revoke ``key``'s lease (fault injection / administrative fence).

        The deadline is moved to ``at`` (default: now) and subsequent
        :meth:`keep_alive` calls fail, so the holder cannot revive it.
        """
        with self._lock:
            if key not in self._deadlines:
                return
            self._deadlines[key] = self.clock() if at is None else float(at)
            self._revoked.add(key)

    def delete(self, key: str) -> bool:
        """Drop ``key``'s lease and its revocation; True if it existed."""
        with self._lock:
            self._revoked.discard(key)
            return self._deadlines.pop(key, None) is not None
