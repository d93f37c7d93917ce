"""Goodput-SLO chaos soak for the networked control plane.

A :class:`ChaosSoak` runs one elastic job in-process (workers as
threads, AM per transport seam) while a deterministic
:class:`SoakSchedule` injects the failures this PR's failover machinery
exists for:

* **worker kills** — a thread raises
  :class:`~repro.coordination.faults.SilentCrash` mid-iteration and its
  link is torn down, so only lease expiry can notice;
* **an AM kill** — the primary is :meth:`abandoned
  <repro.net.master_service.NetworkedApplicationMaster.abandon>` and a
  successor is rebuilt from the journal
  (:meth:`~repro.net.master_service.NetworkedApplicationMaster.from_journal`),
  taking over via transport redirect (memory) or a pre-advertised
  standby endpoint (TCP);
* **connection resets / message drops** — the existing
  :class:`~repro.coordination.faults.FaultPlan` machinery.

The soak's verdict is a :class:`GoodputReport` derived from the Chrome
trace (busy ``worker.iteration`` span time over wall time) and the
:class:`~repro.observability.MetricRegistry` (detection latency and
MTTR histograms fed by the lease evictor), with
:meth:`GoodputReport.assert_slo` turning the floors into a hard
pass/fail.  The same schedule replays identically over the in-memory
transport and loopback TCP — recovery *counts* must match even though
timings differ.
"""

from __future__ import annotations

import hashlib
import threading
import time
import typing

from ..coordination.faults import FaultPlan, SilentCrash
from ..coordination.messages import MessageType
from ..observability import MetricRegistry, Tracer

# GoodputReport, derive_report and SLOViolation moved to
# repro.observability.fleet (they are fleet accounting, not soak
# machinery); re-exported here so existing imports keep working.
from ..observability.fleet import (  # noqa: F401  (re-exports)
    _INSTANT_COUNTS,
    GoodputReport,
    SLOViolation,
    derive_report,
)
from .agent import WorkerAgent
from .journal import JournalState
from .master_service import JobSpec, NetworkedApplicationMaster
from .peers import MemoryPeerHost, TcpPeerHost
from .transport import (
    RequestTimeout,
    RetryableError,
    TransportClosed,
    memory_link,
)


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


class SoakSchedule:
    """One soak's complete, deterministic failure schedule.

    Everything is keyed by *iteration* (the job's logical clock), never
    by wall time, which is what makes the schedule replayable across
    transports and machines.
    """

    def __init__(
        self,
        worker_kills: "typing.Mapping[str, int] | None" = None,
        am_kill_iteration: "int | None" = None,
        connection_resets: "typing.Mapping[str, typing.Sequence[int]] | None" = None,
        drop_every: "typing.Mapping[str, int] | None" = None,
    ):
        #: worker id -> iteration at which its thread silently dies.
        self.worker_kills = dict(worker_kills or {})
        #: AM is killed once training reaches this iteration (None: never).
        self.am_kill_iteration = am_kill_iteration
        #: worker id -> message indices at which its connection resets.
        self.connection_resets = {
            w: tuple(r) for w, r in (connection_resets or {}).items()
        }
        #: worker id -> drop each n-th control-plane message.
        self.drop_every = dict(drop_every or {})

    def fault_plan(self, worker_id: str) -> "FaultPlan | None":
        resets = self.connection_resets.get(worker_id, ())
        drops = self.drop_every.get(worker_id, 0)
        if not resets and not drops:
            return None
        return FaultPlan(connection_resets=tuple(resets), drop_every=drops)

    def describe(self) -> dict:
        return {
            "worker_kills": dict(self.worker_kills),
            "am_kill_iteration": self.am_kill_iteration,
            "connection_resets": {
                w: list(r) for w, r in self.connection_resets.items()
            },
            "drop_every": dict(self.drop_every),
        }


class ChaosSoak:
    """One elastic job soaked under a deterministic fault schedule."""

    def __init__(
        self,
        transport: str,
        spec: JobSpec,
        workers: "typing.Sequence[str]",
        schedule: "SoakSchedule | None" = None,
        tracer: "Tracer | None" = None,
        metrics: "MetricRegistry | None" = None,
        join_timeout: float = 30.0,
        timeout: float = 120.0,
    ):
        if transport not in ("memory", "tcp"):
            raise ValueError(f"unknown transport {transport!r}")
        self.transport = transport
        self.spec = spec
        self.workers = list(workers)
        self.schedule = schedule or SoakSchedule()
        self.tracer = tracer or Tracer(process=f"chaos-soak-{transport}")
        self.metrics = metrics or MetricRegistry()
        self.join_timeout = join_timeout
        self.timeout = timeout
        self.results: "dict[str, dict]" = {}
        self.errors: "dict[str, BaseException]" = {}
        self.killed: "list[str]" = []
        self.failed_over = False
        self.master: "NetworkedApplicationMaster | None" = None
        self.report: "GoodputReport | None" = None
        self._threads: "dict[str, threading.Thread]" = {}
        self._memory_transports: "dict[str, typing.Any]" = {}
        self._endpoints: "list[tuple[str, int]] | None" = None
        self._standby = None  # (socket, port) reserved for the successor
        self._mesh = None

    # -- wiring -----------------------------------------------------------------

    def _make_link(self, node_id, fault_plan=None, ack_timeout=0.5):
        if self.transport == "tcp":
            from .tcp import tcp_link

            link, transport = tcp_link(
                self._endpoints[0][0], self._endpoints[0][1], node_id,
                fault_plan=fault_plan, ack_timeout=ack_timeout,
                heartbeat_interval=0.2, tracer=self.tracer,
                metrics=self.metrics, endpoints=self._endpoints,
                connect_attempts=10,
            )
            return link
        link = memory_link(
            self.master.core, node_id, fault_plan=fault_plan,
            ack_timeout=ack_timeout, tracer=self.tracer,
            metrics=self.metrics, heartbeat_interval=0.2,
        )
        self._memory_transports[node_id] = link.transport
        return link

    def _start_worker(self, worker_id: str) -> None:
        def run():
            link = self._make_link(
                worker_id, fault_plan=self.schedule.fault_plan(worker_id)
            )
            agent = WorkerAgent(
                worker_id, link, poll_interval=0.02,
                join_timeout=self.join_timeout, tracer=self.tracer,
                metrics=self.metrics, peer_host=self._mesh,
                die_at_iteration=self.schedule.worker_kills.get(worker_id),
            )
            try:
                self.results[worker_id] = agent.run()
            except SilentCrash:
                self.killed.append(worker_id)
            except BaseException as exc:  # surfaced in the report/tests
                self.errors[worker_id] = exc
            finally:
                # The crashed process's sockets die with it: closing the
                # link here stops the TCP heartbeat thread, so nothing
                # keeps feeding the dead worker's lease.
                link.close()

        thread = threading.Thread(
            target=run, name=f"soak-{worker_id}", daemon=True
        )
        self._threads[worker_id] = thread
        thread.start()

    # -- failover ---------------------------------------------------------------

    def _fail_over(self) -> None:
        """Kill the primary AM and promote a journal-replayed successor."""
        old = self.master
        if self.tracer is not None:
            self.tracer.instant(
                "soak.am_kill", track="soak", cat="chaos", epoch=old.epoch,
            )
        old.abandon()
        successor = NetworkedApplicationMaster.from_journal(
            old.journal, tracer=self.tracer, metrics=self.metrics,
        )
        if self.transport == "tcp":
            sock, port = self._standby
            sock.close()
            host = self._endpoints[0][0]
            deadline = time.monotonic() + 5.0
            while True:
                try:
                    successor.serve_tcp(host, port)
                    break
                except OSError:
                    if time.monotonic() >= deadline:
                        raise
                    time.sleep(0.05)
        else:
            for transport in list(self._memory_transports.values()):
                transport.redirect(successor.core)
        self.master = successor
        self.failed_over = True

    # -- the soak ---------------------------------------------------------------

    def run(self) -> GoodputReport:
        """Run the job under the schedule; returns the goodput report."""
        spec = self.spec
        self.master = NetworkedApplicationMaster(
            spec, self.workers, tracer=self.tracer, metrics=self.metrics,
        )
        if self.transport == "tcp":
            from .tcp import reserve_port

            server = self.master.serve_tcp()
            self._standby = reserve_port(server.host)
            self._endpoints = [
                (server.host, server.port),
                (server.host, self._standby[1]),
            ]
            self._mesh = TcpPeerHost()
        else:
            self._mesh = MemoryPeerHost()
        try:
            report = self._drive()
            assert_replay_matches(self.master)
            return report
        finally:
            if self._standby is not None:
                try:
                    self._standby[0].close()
                except OSError:
                    pass
            if self._mesh is not None:
                self._mesh.close()
            self.master.close()

    def _drive(self) -> GoodputReport:
        for worker_id in self.workers:
            self._start_worker(worker_id)
        driver = self._make_link("soak-driver", ack_timeout=1.0)
        kill_at = self.schedule.am_kill_iteration
        deadline = time.monotonic() + self.timeout
        try:
            while any(t.is_alive() for t in self._threads.values()):
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
                time.sleep(0.05)
        finally:
            driver.close()
        for thread in self._threads.values():
            thread.join(timeout=5.0)
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
