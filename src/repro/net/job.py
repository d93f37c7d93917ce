"""The two ways to run an elastic job, and the one AM takeover.

:class:`LocalJob` runs the networked AM and one agent thread per worker
in this process.  :class:`MultiprocessElasticJob` hosts the AM, spawns
each worker as ``python -m repro.cli join`` over loopback TCP, and
drives scale-out / scale-in / status over its own TCP control link —
the same wire protocol the workers speak.  Both take over through
:func:`promote`.
"""

from __future__ import annotations

import os
import subprocess
import sys
import threading
import time
import typing

import repro

from ..coordination.faults import SilentCrash
from ..coordination.messages import MessageType
from .agent import WorkerAgent
from .journal import Journal
from .master_service import JobSpec, NetworkedApplicationMaster
from .peers import MemoryPeerHost, TcpPeerHost
from .tcp import tcp_link
from .transport import memory_link


def promote(
    old: NetworkedApplicationMaster,
    journal: Journal,
    tracer: "typing.Any | None" = None,
    metrics: "typing.Any | None" = None,
    endpoint: "tuple[str, int] | None" = None,
) -> NetworkedApplicationMaster:
    """Fence ``old`` out; return its successor replayed from ``journal``.

    A file-backed journal is re-read from disk, as an out-of-process
    standby would.  With ``endpoint`` the successor serves TCP on that
    ``(host, port)``, retrying the bind while the old listener's port
    lingers in TIME_WAIT (clients are redialing it, so no fresh port).
    """
    old.abandon()
    if journal.path is not None:
        journal = Journal(journal.path)
    successor = NetworkedApplicationMaster.from_journal(
        journal, tracer=tracer, metrics=metrics
    )
    if endpoint is not None:
        deadline = time.monotonic() + 5.0
        while True:
            try:
                successor.serve_tcp(*endpoint)
                break
            except OSError:
                if time.monotonic() >= deadline:
                    raise
                time.sleep(0.05)
    return successor


class LocalJob:
    """One elastic job in this process: the AM and a thread per worker.

    ``transport`` is ``"memory"`` or loopback ``"tcp"``; ``mesh=True``
    adds a peer mesh of the same kind for the ring.  Link options go to
    :func:`memory_link`/:func:`tcp_link` and agent options to
    :class:`WorkerAgent`, over the job's defaults: its tracer and
    metrics, ten TCP dial attempts, the mesh and a 20 ms agent poll.
    """

    def __init__(
        self,
        transport: str,
        spec: JobSpec,
        workers: typing.Sequence[str],
        mesh: bool = False,
        job_id: str = "netjob",
        tracer: "typing.Any | None" = None,
        metrics: "typing.Any | None" = None,
        host: str = "127.0.0.1",
    ):
        if transport not in ("memory", "tcp"):
            raise ValueError(f"unknown transport {transport!r}")
        self.transport, self.tracer, self.metrics = transport, tracer, metrics
        self.master = NetworkedApplicationMaster(
            spec, workers, job_id=job_id, tracer=tracer, metrics=metrics,
        )
        if transport == "tcp":
            self.master.serve_tcp(host=host)
        peer_host = TcpPeerHost if transport == "tcp" else MemoryPeerHost
        self.mesh = peer_host() if mesh else None
        #: per worker its run's result, error and agent; per node id
        #: (workers and drivers alike) its latest link.
        self.results, self.errors, self.agents, self.links = {}, {}, {}, {}
        #: workers whose thread died of :class:`SilentCrash` (chaos).
        self.killed: "list[str]" = []
        self._threads: "list[threading.Thread]" = []
        self._stopped = self._closed = False
        self._takeover = threading.Lock()

    #: the current AM's TCP listener (None in memory).
    server = property(lambda self: self.master._server)

    def link(self, node_id: str, **options):
        """A reliable link from ``node_id`` into the current AM."""
        options = {"tracer": self.tracer, "metrics": self.metrics, **options}
        if self.server is None:
            # Under the takeover lock: a memory link built while the AM
            # is promoted must be in ``links`` when they are redirected.
            with self._takeover:
                link = memory_link(self.master.core, node_id, **options)
                self.links[node_id] = link
            return link
        options.setdefault("connect_attempts", 10)
        link, _ = tcp_link(
            self.server.host, self.server.port, node_id, **options
        )
        self.links[node_id] = link
        return link

    def start_worker(
        self, worker_id: str, link_options: "dict | None" = None,
        **agent_options,
    ) -> None:
        """Run ``worker_id``'s agent on its own thread and link."""
        agent_options = {
            "poll_interval": 0.02, "tracer": self.tracer,
            "metrics": self.metrics, "peer_host": self.mesh,
            **agent_options,
        }

        def run():
            link = self.link(worker_id, **(link_options or {}))
            agent = self.agents[worker_id] = WorkerAgent(
                worker_id, link, **agent_options
            )
            try:
                self.results[worker_id] = agent.run()
            except SilentCrash:
                self.killed.append(worker_id)
            except BaseException as exc:
                # A stopped job's workers die of their closed links.
                if not self._stopped:
                    self.errors[worker_id] = exc
            finally:
                # A dead worker's link dies with it, so nothing keeps
                # feeding its lease.
                link.close()

        thread = threading.Thread(
            target=run, name=f"job-{worker_id}", daemon=True
        )
        self._threads.append(thread)
        thread.start()

    def join(self, timeout: float) -> bool:
        """Wait up to ``timeout`` s for the workers; True once all ended."""
        deadline = time.monotonic() + timeout
        for thread in list(self._threads):
            thread.join(max(0.0, deadline - time.monotonic()))
        return not any(thread.is_alive() for thread in self._threads)

    def fail_over(
        self, endpoint: "tuple[str, int] | None" = None
    ) -> NetworkedApplicationMaster:
        """Kill the AM and :func:`promote` its successor.

        Over TCP the successor serves ``endpoint`` (default: the old
        one) and the links redial it; in memory every link is
        redirected to it.
        """
        if self.server is not None:
            endpoint = endpoint or (self.server.host, self.server.port)
        with self._takeover:
            self.master = promote(
                self.master, self.master.journal, tracer=self.tracer,
                metrics=self.metrics, endpoint=endpoint,
            )
            if self.server is None:
                for link in list(self.links.values()):
                    link.transport.redirect(self.master.core)
        return self.master

    def stop(self) -> None:
        """Hard preemption: tear the job down under its workers."""
        self._stopped = True
        self.close()
        self.join(5.0)

    def close(self) -> None:
        """Close every link, the AM (and its server) and the mesh."""
        if self._closed:
            return
        self._closed = True
        for link in list(self.links.values()):
            link.close()
        self.master.close()
        if self.mesh is not None:
            self.mesh.close()


class JobFailed(RuntimeError):
    """A worker process died or the job missed a progress deadline."""


class MultiprocessElasticJob:
    """An elastic training job whose workers are real OS processes."""

    def __init__(
        self,
        spec: JobSpec,
        initial_workers: typing.Sequence[str],
        host: str = "127.0.0.1",
        tracer: "typing.Any | None" = None,
        worker_trace_dir: "str | None" = None,
        journal_path: "str | None" = None,
        peer_transport: "str | None" = None,
    ):
        self.spec = spec
        self.host = host
        self.tracer = tracer
        self.worker_trace_dir = worker_trace_dir
        #: peer mesh transport for the ring plane ("tcp" | "shm" |
        #: "auto"); None defers to each worker's $ELAN_PEER_TRANSPORT.
        #: Co-located processes (this whole class) benefit from "shm";
        #: ShmPeerHost falls back to TCP per-peer for remote addresses.
        self.peer_transport = peer_transport
        #: with a path the AM journal is file-backed, so :meth:`fail_over`
        #: recovers from disk exactly like an out-of-process standby would.
        self.journal_path = journal_path
        journal = Journal(journal_path) if journal_path else None
        self.master = NetworkedApplicationMaster(
            spec, initial_workers, tracer=tracer, journal=journal
        )
        self.port = self.master.serve_tcp(host=host, port=0).port
        self.processes: "dict[str, subprocess.Popen]" = {}
        #: workers we killed on purpose — their nonzero exits are chaos,
        #: not failure, and :meth:`_poll` must not abort the job on them.
        self._expected_dead: "set[str]" = set()
        self._control = None
        self.failovers = 0

    #: the current AM's TCP listener.
    server = property(lambda self: self.master._server)

    # -- worker processes -------------------------------------------------------

    def worker_trace_path(self, worker_id: str) -> "str | None":
        """Where ``worker_id``'s Chrome trace lands (if collecting)."""
        if self.worker_trace_dir is None:
            return None
        return os.path.join(self.worker_trace_dir, f"{worker_id}.json")

    def spawn(
        self,
        worker_id: str,
        reset_at: typing.Sequence[int] = (),
        drop_every: int = 0,
        peer_reset_at: typing.Sequence[int] = (),
        ring_fail_at: typing.Sequence[int] = (),
        shard_die_after: "int | None" = None,
    ) -> subprocess.Popen:
        """Start one worker process pointed at this job's AM.

        ``reset_at``/``drop_every`` inject that worker's deterministic
        :class:`~repro.coordination.faults.FaultPlan` via CLI flags
        (``peer_reset_at`` afflicts its ring peer links instead of the
        AM link; ``ring_fail_at`` aborts its ring at those iterations;
        ``shard_die_after`` hard-kills the process after it served that
        many shard chunks, injecting a shard-owner death mid-fetch),
        so chaos runs exercise a real process's real connections.
        """
        command = [
            sys.executable, "-m", "repro.cli", "join",
            "--host", self.host, "--port", str(self.port),
            "--worker", worker_id,
        ]
        for send_index in reset_at:
            command += ["--reset-at", str(send_index)]
        if drop_every:
            command += ["--drop-every", str(drop_every)]
        for send_index in peer_reset_at:
            command += ["--peer-reset-at", str(send_index)]
        for iteration in ring_fail_at:
            command += ["--ring-fail-at", str(iteration)]
        if shard_die_after is not None:
            command += ["--shard-die-after", str(shard_die_after)]
        if not self.spec.ring_enabled:
            command += ["--no-ring"]
        if self.peer_transport:
            command += ["--peer-transport", self.peer_transport]
        trace_path = self.worker_trace_path(worker_id)
        if trace_path:
            command += ["--trace", trace_path]
        if shard_die_after is not None:
            # The owner dies by design (os._exit); its nonzero exit is
            # the chaos, not a job failure.
            self._expected_dead.add(worker_id)
        env = dict(os.environ)
        src_root = os.path.dirname(os.path.dirname(repro.__file__))
        existing = env.get("PYTHONPATH")
        env["PYTHONPATH"] = (
            src_root if not existing
            else os.pathsep.join([src_root, existing])
        )
        process = subprocess.Popen(
            command,
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
        )
        self.processes[worker_id] = process
        return process

    def start(
        self, faults: "dict[str, dict] | None" = None
    ) -> "MultiprocessElasticJob":
        """Spawn every initial worker.

        ``faults`` optionally maps a worker id to :meth:`spawn` fault
        kwargs (``reset_at``, ``drop_every``).
        """
        for worker_id in self.master.am.group:
            self.spawn(worker_id, **(faults or {}).get(worker_id, {}))
        return self

    # -- chaos controls ----------------------------------------------------------

    def kill_worker(self, worker_id: str) -> None:
        """SIGKILL one worker process (simulated machine loss).

        The worker gets no chance to say goodbye: the AM only learns of
        the death when its heartbeat lease expires, which is exactly the
        detection path the lease supervisor exists to exercise.
        """
        process = self.processes.get(worker_id)
        if process is None:
            raise KeyError(f"no such worker process: {worker_id!r}")
        self._expected_dead.add(worker_id)
        if process.poll() is None:
            process.kill()
        process.wait(timeout=10.0)

    def fail_over(self) -> NetworkedApplicationMaster:
        """Kill the AM and promote a journal-replayed successor.

        The successor is rebound to the *same* port so the worker
        processes' links reconnect and retransmit without any endpoint
        change (:func:`promote` re-reads a file-backed journal).
        """
        self.master = promote(
            self.master, self.master.journal, tracer=self.tracer,
            metrics=self.master.metrics, endpoint=(self.host, self.port),
        )
        self.failovers += 1
        return self.master

    # -- the scheduler-side control link ----------------------------------------

    @property
    def control(self):
        """Lazy TCP link used for adjustment requests and status polls."""
        if self._control is None:
            self._control, _ = tcp_link(
                self.host, self.port, "driver", ack_timeout=2.0
            )
        return self._control

    def scale_out(self, new_workers: typing.Sequence[str]) -> bool:
        """Request a scale-out and spawn the joining processes."""
        reply = self.control.request(
            MessageType.ADJUSTMENT_REQUEST,
            {"kind": "scale_out", "add": list(new_workers)},
        )
        if reply.get("accepted"):
            for worker_id in new_workers:
                self.spawn(worker_id)
        return bool(reply.get("accepted"))

    def scale_in(self, remove_workers: typing.Sequence[str]) -> bool:
        """Request a scale-in (the removed workers exit by themselves)."""
        reply = self.control.request(
            MessageType.ADJUSTMENT_REQUEST,
            {"kind": "scale_in", "remove": list(remove_workers)},
        )
        return bool(reply.get("accepted"))

    def status(self) -> dict:
        """One STATUS round-trip."""
        return self.control.request(MessageType.STATUS)

    # -- fleet observability -----------------------------------------------------

    def fleet_report(self) -> dict:
        """Per-job + fleet goodput reports from the live fleet collector.

        After a :meth:`fail_over` this reads the *successor's* collector,
        which the surviving workers repopulated with full re-ships at
        re-enrollment — exercising exactly the rebuild path a real
        monitoring stack would depend on.
        """
        return self.master.fleet.report(
            am_events=(
                self.tracer.to_events() if self.tracer is not None else None
            ),
            am_metrics=self.master.metrics.snapshot(),
        )

    def export_fleet_trace(self, path: str) -> int:
        """Write the merged, clock-aligned fleet trace; returns event count."""
        from ..observability import write_trace_events

        events = self.master.fleet.merged_events(
            am_events=(
                self.tracer.to_events() if self.tracer is not None else None
            ),
        )
        return write_trace_events(path, events)

    # -- progress ----------------------------------------------------------------

    def _poll(
        self,
        predicate: typing.Callable[[dict], bool],
        timeout: float,
        what: str,
    ) -> dict:
        deadline = time.monotonic() + timeout
        while True:
            status = self.status()
            if predicate(status):
                return status
            for worker_id, process in self.processes.items():
                if worker_id in self._expected_dead:
                    continue
                code = process.poll()
                if code is not None and code != 0:
                    output = (process.stdout.read() or "").strip()
                    raise JobFailed(
                        f"worker {worker_id!r} exited with {code} while "
                        f"waiting for {what}:\n{output}"
                    )
            if time.monotonic() >= deadline:
                raise JobFailed(f"timed out waiting for {what}: {status}")
            time.sleep(0.05)

    def wait_until_iteration(self, iteration: int, timeout: float = 30.0) -> dict:
        """Block until training progress reaches ``iteration``."""
        return self._poll(
            lambda s: s["iteration"] >= iteration, timeout,
            f"iteration {iteration}",
        )

    def wait_for_adjustments(self, count: int, timeout: float = 30.0) -> dict:
        """Block until ``count`` adjustments have committed."""
        return self._poll(
            lambda s: s["adjustments_committed"] >= count, timeout,
            f"{count} committed adjustments",
        )

    def wait_complete(self, timeout: float = 60.0) -> dict:
        """Block until every current-group worker finished and reported."""
        status = self._poll(lambda s: s["complete"], timeout, "completion")
        for process in self.processes.values():
            process.wait(timeout=10.0)
        return status

    def shutdown(self) -> None:
        """Stop everything: control link, worker processes, server."""
        if self._control is not None:
            self._control.close()
            self._control = None
        for process in self.processes.values():
            if process.poll() is None:
                process.terminate()
        for process in self.processes.values():
            try:
                process.wait(timeout=5.0)
            except subprocess.TimeoutExpired:
                process.kill()
        self.master.close()
