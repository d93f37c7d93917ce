"""Live worker→AM telemetry shipping (the fleet observability plane).

Each worker runs one :class:`TelemetryShipper`: a background thread that
periodically pushes a bounded delta of the worker's trace-event buffer
and a full metric-registry snapshot to the AM over the existing
:class:`~repro.net.transport.ReliableLink` — so shipping inherits the
protocol's exactly-once guarantee (timeout-resend + server-side dedup)
instead of inventing a second reliability layer.  No clock offset is
shipped: the link's ``net.clock_sample`` instants ride among the
events, and the fleet merger reads each worker's offset from them.

The cursor protocol mirrors :meth:`~repro.observability.tracing.Tracer.
collect_events`: every shipped record carries its buffer index, the AM's
:class:`~repro.observability.fleet.FleetCollector` folds records
idempotently by index, and still-open spans are revisited on later
ticks.  Three situations force a *full* snapshot (``full=True`` clears
the collector's view of this worker before folding):

* the first ship after start-up;
* re-enrollment with a successor AM (the collector is deliberately not
  journaled — the fleet view is rebuilt from these re-ships), or a
  ``resync`` reply from a collector that detected a gap;
* backpressure: when the unshipped backlog exceeds ``backlog`` events
  the shipper drops the oldest (advancing its cursor and counting the
  loss in ``dropped``) and marks the next ship full so the collector
  replaces — rather than merges with — its now-stale view.

Shipping failures (timeouts, fenced replies mid-failover) never advance
the cursor: the next tick simply retries, and the agent's own
re-enrollment path calls :meth:`mark_full` so the successor gets the
whole picture.
"""

from __future__ import annotations

import threading
import time
import typing

from ..coordination.messages import MessageType
from .transport import (
    ReliableLink,
    RemoteError,
    RequestTimeout,
    RetryableError,
    TransportClosed,
)


class TelemetryShipper:
    """Ships bounded metric/trace deltas from one worker to the AM."""

    def __init__(
        self,
        link: ReliableLink,
        worker_id: str,
        job: "str | None" = None,
        tracer: "typing.Any | None" = None,
        metrics: "typing.Any | None" = None,
        interval: float = 1.0,
        max_events: int = 512,
        backlog: int = 4096,
        ack_timeout: "float | None" = None,
    ):
        self.link = link
        self.worker_id = worker_id
        self.job = job
        self.tracer = tracer
        self.metrics = metrics
        self.interval = float(interval)
        self.max_events = int(max_events)
        self.backlog = int(backlog)
        self.ack_timeout = ack_timeout
        #: totals, for tests and the overhead benchmark.
        self.ships = 0
        self.failures = 0
        self.events_shipped = 0
        self.dropped = 0
        self._seq = 0
        self._start = 0
        self._pending: "list[int]" = []
        self._full = True  # the first ship is always a snapshot
        self._lock = threading.Lock()
        self._stop = threading.Event()
        self._thread: "threading.Thread | None" = None

    # -- lifecycle --------------------------------------------------------------

    def start(self) -> None:
        """Start the periodic shipping thread (daemon; idempotent)."""
        if self._thread is not None:
            return
        self._stop.clear()
        self._thread = threading.Thread(
            target=self._loop, name=f"telemetry-{self.worker_id}",
            daemon=True,
        )
        self._thread.start()

    def stop(self) -> None:
        """Stop the thread without flushing (crash/teardown path)."""
        self._stop.set()
        thread, self._thread = self._thread, None
        if thread is not None:
            thread.join(timeout=5.0)

    def flush(self) -> bool:
        """Ship until everything recorded *so far* is delivered.

        The drain target is the buffer length at entry: shipping itself
        records new events (``net.send`` spans, clock samples), so
        chasing "empty" would never terminate — each ship would create
        the next ship's backlog.  Open spans below the target that never
        close, and a dead AM, are handled by the stall bound.  Returns
        True when the target was reached.
        """
        if self.tracer is None:
            return self.ship_once()
        target = len(self.tracer)

        def remaining() -> bool:
            with self._lock:
                if self._full:
                    return True  # a marked-full snapshot is still owed
                return self._start < target or any(
                    i < target for i in self._pending
                )

        stalls = 0
        while remaining() and stalls < 3:
            with self._lock:
                before = (self._start, tuple(self._pending), self._full)
            if not self.ship_once():
                stalls += 1
                time.sleep(min(self.interval, 0.05))
                continue
            with self._lock:
                after = (self._start, tuple(self._pending), self._full)
            stalls = stalls + 1 if after == before else 0
        return not remaining()

    def _loop(self) -> None:
        while not self._stop.wait(self.interval):
            self.ship_once()

    # -- the ship path ----------------------------------------------------------

    def mark_full(self) -> None:
        """Rewind the cursor: the next ship is a complete snapshot.

        Called by the agent after re-enrolling with a successor AM
        (whose collector starts empty) and on a ``resync`` reply.
        """
        with self._lock:
            self._full = True
            self._start = 0
            self._pending = []

    def _shed_backlog(self) -> None:
        """Drop the oldest unshipped events past the backlog bound."""
        if self.tracer is None:
            return
        buffered = len(self.tracer)
        lag = buffered - self._start + len(self._pending)
        if lag <= self.backlog:
            return
        new_start = buffered - self.backlog
        shed = max(0, new_start - self._start)
        kept = [i for i in self._pending if i >= new_start]
        shed += len(self._pending) - len(kept)
        self._start = max(self._start, new_start)
        self._pending = kept
        self.dropped += shed
        # The collector's view of this worker predates the drop — a
        # plain delta would silently leave a gap, so replace it.
        self._full = True
        if self.metrics is not None:
            self.metrics.counter("telemetry.dropped").inc(shed)

    def ship_once(self) -> bool:
        """One delta: collect, send, advance the cursor on success."""
        with self._lock:
            self._shed_backlog()
            start, pending = self._start, list(self._pending)
            full, seq = self._full, self._seq
        records: "list[dict]" = []
        next_start, still_pending = start, pending
        if self.tracer is not None:
            records, next_start, still_pending = self.tracer.collect_events(
                start, pending, limit=self.max_events
            )
            # A tracer shared by an in-process job holds every worker's
            # (and the AM's) tracks: ship only this worker's own.
            own = self.worker_id + "/"
            records = [
                r for r in records
                if r["track"] == self.worker_id or r["track"].startswith(own)
            ]
        payload = {
            "worker": self.worker_id,
            "job": self.job,
            "seq": seq,
            "full": full,
            "start": start,
            "events": records,
            "metrics": (
                self.metrics.snapshot() if self.metrics is not None else None
            ),
            "registry": self.metrics.id if self.metrics is not None else None,
            "dropped": self.dropped,
        }
        try:
            reply = self.link.request(
                MessageType.TELEMETRY, payload, ack_timeout=self.ack_timeout
            )
        except (RequestTimeout, TransportClosed, RetryableError, RemoteError):
            # Cursor untouched: the next tick re-ships the same delta
            # (same indices — the collector folds idempotently even if
            # this one actually landed and only the reply was lost).
            self.failures += 1
            if self.metrics is not None:
                self.metrics.counter("telemetry.failures").inc()
            return False
        with self._lock:
            self._start = max(self._start, next_start)
            self._pending = [i for i in still_pending if i >= 0]
            self._seq = seq + 1
            self._full = False
            if reply.get("resync"):
                self._full = True
                self._start = 0
                self._pending = []
        self.ships += 1
        self.events_shipped += len(records)
        if self.metrics is not None:
            self.metrics.counter("telemetry.ships").inc()
            self.metrics.counter("telemetry.events_shipped").inc(
                len(records)
            )
        return True
