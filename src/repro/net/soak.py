"""Goodput-SLO chaos soak for the networked control plane.

A :class:`ChaosSoak` runs one :class:`~repro.net.job.LocalJob` (workers
as threads, AM per transport seam) while a deterministic
:class:`~repro.coordination.faults.FaultPlan` injects the failures the
failover machinery exists for, from two fields:

* **worker kills** (``silent_crashes``) — a thread raises
  :class:`~repro.coordination.faults.SilentCrash` mid-iteration and its
  link is torn down, so only lease expiry can notice;
* **an AM kill** (``am_crash_iteration``) —
  :func:`~repro.net.job.promote` fences the primary out and rebuilds a
  successor from the journal, taking over via transport redirect
  (memory) or a pre-advertised standby endpoint (TCP).

The soak's verdict is a :class:`GoodputReport` derived from the Chrome
trace (busy ``worker.iteration`` span time over wall time) and the
:class:`~repro.observability.MetricRegistry` (detection latency and
MTTR histograms fed by the lease evictor), with
:meth:`GoodputReport.assert_slo` turning the floors into a hard
pass/fail.  The same plan replays identically over the in-memory
transport and loopback TCP — recovery *counts* must match even though
timings differ.
"""

from __future__ import annotations

import hashlib
import time
import typing

from ..coordination.faults import FaultPlan
from ..coordination.messages import MessageType
from ..observability import GoodputReport, MetricRegistry, Tracer, derive_report
from .job import LocalJob
from .journal import JournalState
from .master_service import JobSpec, NetworkedApplicationMaster
from .tcp import reserve_port
from .transport import RequestTimeout, RetryableError, TransportClosed


def _plain(value):
    """``value`` as comparable plain data (blobs by digest)."""
    if isinstance(value, (bytes, bytearray, memoryview)):
        return hashlib.sha256(value).hexdigest()
    if isinstance(value, dict):
        return {key: _plain(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_plain(item) for item in value]
    if isinstance(value, (set, frozenset)):
        return sorted(value)
    return value


def assert_replay_matches(master: NetworkedApplicationMaster) -> None:
    """The oracle for "the AM is its journal": replay ≡ live.

    Folding the journal a standby would read must give exactly the
    state the live AM holds — every field, the snapshot blob by digest.
    Only ``replayed`` (how many records a successor folded before its
    own) is a property of the replay rather than of the state.
    """
    with master._lock:
        live = _plain(vars(master.state))
        replayed = _plain(vars(JournalState.replay(master.journal.records())))
    del live["replayed"], replayed["replayed"]
    mismatched = {
        name: (live[name], replayed[name])
        for name in live if live[name] != replayed[name]
    }
    if mismatched:
        raise AssertionError(f"live state != journal replay: {mismatched}")


class ChaosSoak:
    """One elastic job soaked under a deterministic fault plan.

    Reads ``plan.silent_crashes`` and ``plan.am_crash_iteration``, both
    keyed by iteration (the job's logical clock, never wall time), which
    is what makes a soak replayable across transports and machines.
    """

    def __init__(
        self,
        transport: str,
        spec: JobSpec,
        workers: "typing.Sequence[str]",
        plan: "FaultPlan | None" = None,
        tracer: "Tracer | None" = None,
        metrics: "MetricRegistry | None" = None,
        join_timeout: float = 30.0,
        timeout: float = 120.0,
    ):
        self.transport = transport
        self.spec = spec
        self.workers = list(workers)
        self.plan = plan or FaultPlan()
        self.tracer = tracer or Tracer(process=f"chaos-soak-{transport}")
        self.metrics = metrics or MetricRegistry()
        self.join_timeout = join_timeout
        self.timeout = timeout
        self.failed_over = False
        self.job: "LocalJob | None" = None
        self.report: "GoodputReport | None" = None
        #: every soak link heartbeats; over TCP it also knows both AM
        #: endpoints, the standby's pre-advertised.
        self._link_options: dict = {"heartbeat_interval": 0.2}
        #: TCP only: the socket holding the standby's port until failover.
        self._standby = None

    #: the job's live AM and its workers' fates (read through to it).
    master = property(lambda self: self.job and self.job.master)
    results = property(lambda self: self.job.results)
    errors = property(lambda self: self.job.errors)
    killed = property(lambda self: self.job.killed)

    def _fail_over(self) -> None:
        """Kill the primary AM and promote a journal-replayed successor."""
        self.tracer.instant(
            "soak.am_kill", track="soak", cat="chaos", epoch=self.master.epoch,
        )
        standby = None
        if self._standby is not None:
            self._standby.close()  # the successor binds its port
            standby = self._link_options["endpoints"][1]
        self.job.fail_over(standby)
        self.failed_over = True

    # -- the soak ---------------------------------------------------------------

    def run(self) -> GoodputReport:
        """Run the job under the plan; returns the goodput report."""
        self.job = job = LocalJob(
            self.transport, self.spec, self.workers, mesh=True,
            tracer=self.tracer, metrics=self.metrics,
        )
        if job.server is not None:
            host = job.server.host
            self._standby, port = reserve_port(host)
            self._link_options["endpoints"] = [
                (host, job.server.port), (host, port),
            ]
        try:
            report = self._drive()
            assert_replay_matches(job.master)
            return report
        finally:
            if self._standby is not None:
                self._standby.close()
            job.close()

    def _drive(self) -> GoodputReport:
        for worker_id in self.workers:
            self.job.start_worker(
                worker_id,
                link_options={**self._link_options, "ack_timeout": 0.5},
                join_timeout=self.join_timeout,
                die_at_iteration=self.plan.silent_crashes.get(worker_id),
            )
        driver = self.job.link(
            "soak-driver", **self._link_options, ack_timeout=1.0
        )
        kill_at = self.plan.am_crash_iteration
        deadline = time.monotonic() + self.timeout
        try:
            while not self.job.join(0.05):
                if time.monotonic() >= deadline:
                    raise TimeoutError(
                        f"soak did not finish within {self.timeout}s "
                        f"(results={sorted(self.results)}, "
                        f"errors={self.errors})"
                    )
                status = self._status(driver)
                if (
                    kill_at is not None
                    and not self.failed_over
                    and status is not None
                    and status.get("iteration", 0) >= kill_at
                ):
                    self._fail_over()
        finally:
            driver.close()
        if self.errors:
            worker, error = sorted(self.errors.items())[0]
            raise RuntimeError(
                f"soak worker {worker!r} failed: {error!r}"
            ) from error
        self.report = derive_report(
            self.tracer.to_events(), self.metrics.snapshot()
        )
        self.metrics.gauge("goodput.ratio").set(self.report.goodput)
        self.metrics.gauge("goodput.busy_seconds").set(
            self.report.busy_seconds
        )
        self.metrics.gauge("goodput.wall_seconds").set(
            self.report.wall_seconds
        )
        return self.report

    def _status(self, driver) -> "dict | None":
        """One best-effort STATUS poll (None while the AM is down)."""
        try:
            return driver.request(MessageType.STATUS, ack_timeout=0.5)
        except (RequestTimeout, TransportClosed, RetryableError):
            return None
