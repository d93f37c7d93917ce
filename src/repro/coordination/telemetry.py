"""The discrete-event twin's control-plane event log.

A structured log of adjustments, failure detections and recoveries,
with the detect-half latencies and repair times (MTTR) they imply.

The collector sits on top of a
:class:`~repro.observability.MetricRegistry`: every recording also feeds
the well-known metrics below, so dashboards and the ``tracing`` CLI see
the same numbers the query API serves.

==============================================  =========
metric                                          kind
==============================================  =========
``failure.detection_latency_seconds``           histogram
``failure.mttr_seconds``                        histogram
``events.<kind>``                               counter
==============================================  =========

Event timestamps come from an injectable ``clock`` (simulated time
under the discrete-event twin), so dessim replays produce deterministic
event logs.
"""

from __future__ import annotations

import dataclasses
import statistics
import threading
import time
import typing

from ..observability import MetricRegistry


@dataclasses.dataclass(frozen=True)
class TelemetryEvent:
    """One control-plane happening (adjustment, failure, recovery)."""

    wall_time: float
    kind: str
    detail: dict

    def __post_init__(self):
        # Defensive copy: a caller mutating its kwargs dict after the
        # fact must not be able to rewrite the event log.
        object.__setattr__(self, "detail", dict(self.detail))


class RuntimeTelemetry:
    """Thread-safe collector of control-plane events."""

    def __init__(
        self,
        clock: "typing.Callable[[], float] | None" = None,
        metrics: "MetricRegistry | None" = None,
    ):
        #: Timestamp source for event records; the simulated twin passes
        #: ``lambda: sim.now``.
        self.clock = clock or time.time
        #: The metric registry every recording feeds.
        self.metrics = metrics or MetricRegistry()
        self._lock = threading.Lock()
        self.events: typing.List[TelemetryEvent] = []
        #: Seconds between a worker's lease deadline passing and the
        #: supervisor noticing (the detect half of detect->recover).
        self.detection_latencies: typing.List[float] = []
        #: Seconds from failure detection to training restored (MTTR).
        self.mttr_samples: typing.List[float] = []
        self._detection_hist = self.metrics.histogram(
            "failure.detection_latency_seconds"
        )
        self._mttr_hist = self.metrics.histogram("failure.mttr_seconds")

    # -- recording ------------------------------------------------------------

    def record_event(
        self, wall_time: "float | None", kind: str, **detail
    ) -> None:
        """Append a control-plane event to the log.

        ``wall_time=None`` stamps the event with the injected clock.
        """
        if wall_time is None:
            wall_time = self.clock()
        self.metrics.counter(f"events.{kind}").inc()
        with self._lock:
            self.events.append(
                TelemetryEvent(wall_time=wall_time, kind=kind, detail=detail)
            )

    def record_detection(
        self, worker_id: str, latency: float, cause: str = "lease_expired"
    ) -> None:
        """Record that a worker failure was detected ``latency`` seconds
        after it became detectable (its lease deadline)."""
        self._detection_hist.observe(latency)
        self.metrics.counter("events.failure_detected").inc()
        with self._lock:
            self.detection_latencies.append(latency)
            self.events.append(TelemetryEvent(
                wall_time=self.clock(), kind="failure_detected",
                detail={"worker": worker_id, "latency": latency,
                        "cause": cause},
            ))

    def record_recovery(
        self, removed: typing.Sequence[str], mttr: float
    ) -> None:
        """Record one completed automatic recovery and its repair time."""
        self._mttr_hist.observe(mttr)
        self.metrics.counter("events.recovery").inc()
        with self._lock:
            self.mttr_samples.append(mttr)
            self.events.append(TelemetryEvent(
                wall_time=self.clock(), kind="recovery",
                detail={"removed": list(removed), "mttr": mttr},
            ))

    # -- queries ----------------------------------------------------------------

    def mean_detection_latency(self) -> "float | None":
        """Mean detect-half latency (None before any detection)."""
        with self._lock:
            if not self.detection_latencies:
                return None
            return statistics.fmean(self.detection_latencies)

    def mean_mttr(self) -> "float | None":
        """Mean time to repair (None before any recovery)."""
        with self._lock:
            if not self.mttr_samples:
                return None
            return statistics.fmean(self.mttr_samples)

    def events_of_kind(self, kind: str) -> "list[TelemetryEvent]":
        """All events of one kind, in order."""
        with self._lock:
            return [e for e in self.events if e.kind == kind]
