"""Deterministic fault injection and degradation primitives.

The supervision layer (leases, fencing, automatic recovery) is only
credible if the failure matrix it defends against is drivable from
tests.  A :class:`FaultPlan` declares, up front and deterministically,
every fault one link should suffer — control-plane message loss,
duplicates, delays and connection resets — and is threaded through the
networked stack's AM and ring links so every transport replays the
same faults.  A whole job's faults (worker and AM kills keyed by
iteration, per-worker resets) are a scenario file run by
:mod:`repro.net.scenario`.

:class:`ExponentialBackoff` is the shared degradation policy: bounded
exponential delays with an injectable sleeper, so retry loops are
testable without wall-clock sleeps.
"""

from __future__ import annotations

import dataclasses
import time
import typing


class SilentCrash(BaseException):
    """Kills a worker thread without tripping the failure handler.

    Models a ``kill -9``/machine loss: the thread vanishes without
    recording its own death or aborting the collective, so the *only*
    way the system can notice is the lease expiring.  Derives from
    ``BaseException`` on purpose — a worker's crash handler catches
    ``Exception``-like failures loudly; this must slip past it.
    """


class ExponentialBackoff:
    """Bounded exponential backoff with an injectable sleeper.

    ``delay(attempt)`` is pure (``base * factor**attempt``, capped at
    ``max_delay``); ``wait(attempt)`` additionally sleeps through the
    injected ``sleeper`` and keeps totals for assertions.
    """

    def __init__(
        self,
        base: float = 0.001,
        factor: float = 2.0,
        max_delay: float = 0.1,
        sleeper: typing.Callable[[float], None] = time.sleep,
    ):
        if base <= 0 or factor < 1 or max_delay < base:
            raise ValueError("need base > 0, factor >= 1, max_delay >= base")
        self.base = base
        self.factor = factor
        self.max_delay = max_delay
        self.sleeper = sleeper
        self.waits = 0
        self.total_delay = 0.0

    def delay(self, attempt: int) -> float:
        """Delay before retry number ``attempt`` (0-based), bounded."""
        return min(self.max_delay, self.base * self.factor ** max(0, attempt))

    def wait(self, attempt: int) -> float:
        """Sleep out the delay for ``attempt``; returns the delay used."""
        delay = self.delay(attempt)
        self.waits += 1
        self.total_delay += delay
        self.sleeper(delay)
        return delay


@dataclasses.dataclass(frozen=True)
class FaultPlan:
    """One link's deterministic failure schedule.

    Every field is optional; an empty plan injects nothing.
    """

    #: drop each n-th control-plane send that reaches the loss stage
    #: (0 = lossless); consumed by :class:`repro.net.TransportFaults`.
    drop_every: int = 0
    #: deliver each n-th such send twice (0 = no dupes).
    duplicate_every: int = 0
    #: send index (1-based) -> extra seconds of delivery latency injected
    #: before that send (network-transport plans only).
    net_delays: typing.Mapping[int, float] = dataclasses.field(
        default_factory=dict
    )
    #: send indices (1-based) at which the connection is reset *before*
    #: the send: the message is lost with the connection and the
    #: transport must reconnect (backoff + handshake) before any further
    #: traffic flows.  Consumed by both transports in :mod:`repro.net`,
    #: so chaos tests behave identically in memory and over TCP.
    connection_resets: typing.Tuple[int, ...] = ()

    # -- construction helpers -------------------------------------------------

    @classmethod
    def for_link(
        cls,
        drop_every: int = 0,
        duplicate_every: int = 0,
        resets: typing.Sequence[int] = (),
    ) -> "FaultPlan | None":
        """A per-link plan from CLI-style knobs, or None if fault-free.

        Used for both the AM control link and the ring data-plane peer
        links, so the two planes inject chaos through one code path.
        """
        if not (drop_every or duplicate_every or resets):
            return None
        return cls(
            drop_every=drop_every,
            duplicate_every=duplicate_every,
            connection_resets=tuple(resets),
        )

    # -- consumption helpers --------------------------------------------------

    @property
    def has_transport_faults(self) -> bool:
        """True if any network-transport fault — drop, duplicate,
        delay, reset — is scheduled."""
        return bool(
            self.drop_every
            or self.duplicate_every
            or self.net_delays
            or self.connection_resets
        )
