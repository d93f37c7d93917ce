"""A versioned key-value store with watches and leases — the etcd
stand-in (§V-D).

The paper deploys Elan on Kubernetes and persists the application master's
state machine on etcd.  This in-memory store provides the subset of etcd
semantics that requires: versioned puts, compare-and-swap, watch
callbacks, and TTL leases, so AM fail-over, fencing and lease-based
failure detection can be implemented and tested faithfully.

Per-key versions are **monotone across deletes**: a delete bumps the
version (and notifies watchers with :data:`TOMBSTONE`) instead of
resetting it, so a delete + re-put can never resurrect a version number
and let a stale ``compare_and_swap`` succeed (the ABA hazard).

The clock used for leases is injectable — the default is the monotonic
wall clock, and the discrete-event simulator plugs in its simulated
``now``.
"""

from __future__ import annotations

import threading
import time
import typing

#: Sentinel delivered to watchers when a key is deleted.
TOMBSTONE: typing.Any = object()


class CasConflict(Exception):
    """Raised when a compare-and-swap loses a race."""


class LeaseRevoked(RuntimeError):
    """Raised when re-leasing a key whose lease was forcibly revoked."""


class KeyValueStore:
    """Thread-safe versioned KV store with prefix watches and leases."""

    def __init__(self, clock: "typing.Callable[[], float] | None" = None):
        self._lock = threading.Lock()
        self.clock = clock or time.monotonic
        self._data: typing.Dict[str, object] = {}
        #: Per-key version counters; never reset, survive deletes.
        self._versions: typing.Dict[str, int] = {}
        self._watches: typing.List[tuple] = []  # (prefix, callback)
        #: Lease deadlines (absolute clock times) for leased keys.
        self._deadlines: typing.Dict[str, float] = {}
        #: Leases revoked by force_expire; keep_alive cannot revive them.
        self._revoked: typing.Set[str] = set()

    # -- core operations -------------------------------------------------------

    def put(self, key: str, value: object) -> int:
        """Store ``value``; returns the new version (monotone per key)."""
        with self._lock:
            new_version = self._versions.get(key, 0) + 1
            self._versions[key] = new_version
            self._data[key] = value
            watchers = self._watchers_of(key)
        for callback in watchers:
            callback(key, value, new_version)
        return new_version

    def get(self, key: str, default: object = None) -> object:
        """Current value of ``key`` (or ``default``)."""
        with self._lock:
            return self._data.get(key, default)

    def version(self, key: str) -> int:
        """Current version of ``key`` (0 if never written)."""
        with self._lock:
            return self._versions.get(key, 0)

    def compare_and_swap(
        self, key: str, expected_version: int, value: object
    ) -> int:
        """Atomically update ``key`` iff its version matches.

        Raises :class:`CasConflict` on mismatch — callers (a recovering AM
        replica) must re-read and retry.  Because versions are monotone
        across deletes, a CAS taken before a delete + re-put can never
        sneak through.
        """
        with self._lock:
            version = self._versions.get(key, 0)
            if version != expected_version:
                raise CasConflict(
                    f"{key!r}: expected version {expected_version}, found {version}"
                )
            new_version = version + 1
            self._versions[key] = new_version
            self._data[key] = value
            watchers = self._watchers_of(key)
        for callback in watchers:
            callback(key, value, new_version)
        return new_version

    def delete(self, key: str) -> bool:
        """Remove ``key``; True if it existed.

        The key's version is bumped (not reset) and watchers are notified
        with :data:`TOMBSTONE`, so observers can distinguish deletion from
        silence and stale CAS attempts keep failing after a re-put.
        """
        with self._lock:
            existed = key in self._data
            if not existed:
                return False
            del self._data[key]
            self._deadlines.pop(key, None)
            self._revoked.discard(key)
            new_version = self._versions.get(key, 0) + 1
            self._versions[key] = new_version
            watchers = self._watchers_of(key)
        for callback in watchers:
            callback(key, TOMBSTONE, new_version)
        return True

    def _watchers_of(self, key: str) -> "list":
        return [cb for prefix, cb in self._watches if key.startswith(prefix)]

    def watch(
        self, prefix: str, callback: typing.Callable[[str, object, int], None]
    ) -> typing.Callable[[], None]:
        """Register a callback for puts/deletes under ``prefix``.

        Deletions deliver :data:`TOMBSTONE` as the value.  Returns a
        canceller.
        """
        entry = (prefix, callback)
        with self._lock:
            self._watches.append(entry)

        def cancel() -> None:
            with self._lock:
                if entry in self._watches:
                    self._watches.remove(entry)

        return cancel

    def keys(self, prefix: str = "") -> "list[str]":
        """All live keys under ``prefix``, sorted."""
        with self._lock:
            return sorted(k for k in self._data if k.startswith(prefix))

    # -- leases (heartbeat substrate for failure detection) --------------------

    def lease(self, key: str, value: object, ttl: float) -> int:
        """Put ``key`` with a TTL; it is considered dead once the deadline
        passes without a :meth:`keep_alive`.  Returns the new version.

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
            new_version = self._versions.get(key, 0) + 1
            self._versions[key] = new_version
            self._data[key] = value
            self._deadlines[key] = self.clock() + ttl
            watchers = self._watchers_of(key)
        for callback in watchers:
            callback(key, value, new_version)
        return new_version

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

        Expired keys stay readable until a supervisor reaps them with
        :meth:`delete` — detection and reaction are separate steps.
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

