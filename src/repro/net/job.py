"""One way to run an elastic job, and the one AM takeover.

:class:`LocalJob` hosts the networked AM in this process.  Each worker
is an agent thread (:meth:`LocalJob.start_worker`) or, over loopback
TCP, a ``python -m repro.cli join`` process
(:meth:`LocalJob.spawn_worker`); a driver link plays the scheduler with
the wire protocol the workers speak.  Every takeover is
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
    """One elastic job: the AM in this process, workers as threads or
    (over TCP) as OS processes.

    ``transport`` is ``"memory"`` or loopback ``"tcp"``; ``mesh=True``
    adds a peer mesh of the same kind for the thread workers' ring.
    Link options go to :func:`memory_link`/:func:`tcp_link` and agent
    options to :class:`WorkerAgent`, over the job's defaults: its tracer
    and metrics, ten TCP dial attempts, the mesh and a 20 ms agent poll.
    ``journal`` (default: in memory) is the AM's write-ahead journal.
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
        journal: "Journal | None" = None,
    ):
        if transport not in ("memory", "tcp"):
            raise ValueError(f"unknown transport {transport!r}")
        self.transport, self.tracer, self.metrics = transport, tracer, metrics
        self.master = NetworkedApplicationMaster(
            spec, workers, job_id=job_id, tracer=tracer, metrics=metrics,
            journal=journal,
        )
        if transport == "tcp":
            self.master.serve_tcp(host=host)
        peer_host = TcpPeerHost if transport == "tcp" else MemoryPeerHost
        self.mesh = peer_host() if mesh else None
        #: per worker its run's result, error and agent (thread) or
        #: process; per node id (workers and drivers alike) its latest
        #: link.
        self.results, self.errors, self.agents, self.links = {}, {}, {}, {}
        self.processes: "dict[str, subprocess.Popen]" = {}
        #: workers that died on purpose: a thread of :class:`SilentCrash`,
        #: a process of exit code 9 or a signal (chaos).
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

    @property
    def driver(self):
        """The scheduler's link into the AM (node ``driver``): the one
        :meth:`link` made for it, else a fresh one."""
        return self.links.get("driver") or self.link("driver")

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

        self._run(worker_id, run)

    def spawn_worker(self, worker_id: str, *join_flags: str) -> None:
        """Run ``worker_id`` as a ``python -m repro.cli join`` process.

        ``join_flags`` are further ``join`` options (``--reset-at 6``,
        ``--trace path`` ...).  A clean exit files the process's output
        in ``results``; exit code 9 (a scheduled chaos death) or a
        signal files it in ``killed``; any other exit files its output
        in ``errors``.
        """
        if self.server is None:
            raise ValueError("process workers need the tcp transport")
        src_root = os.path.dirname(os.path.dirname(repro.__file__))
        path = os.pathsep.join(
            filter(None, [src_root, os.environ.get("PYTHONPATH")])
        )
        self.processes[worker_id] = process = subprocess.Popen(
            [
                sys.executable, "-m", "repro.cli", "join",
                "--host", self.server.host, "--port", str(self.server.port),
                "--worker", worker_id, *join_flags,
            ],
            env={**os.environ, "PYTHONPATH": path},
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
        )

        def run():
            output, _ = process.communicate()
            code = process.returncode
            if code == 0:
                self.results[worker_id] = output
            elif code == 9 or code < 0:
                self.killed.append(worker_id)
            elif not self._stopped:
                self.errors[worker_id] = RuntimeError(
                    f"exited {code}:\n{output.strip()}"
                )

        self._run(worker_id, run)

    def kill_worker(self, worker_id: str) -> None:
        """SIGKILL ``worker_id``'s process: a machine lost without a
        goodbye, which only its expiring lease reveals to the AM."""
        process = self.processes[worker_id]
        process.kill()
        process.wait()

    def _run(self, worker_id: str, target) -> None:
        thread = threading.Thread(
            target=target, name=f"job-{worker_id}", daemon=True
        )
        self._threads.append(thread)
        thread.start()

    def wait(
        self, predicate: typing.Callable[[dict], bool], timeout: float
    ) -> dict:
        """Poll ``STATUS`` over :attr:`driver` every 20 ms until
        ``predicate(status)`` holds, the job completes or ``timeout`` s
        pass; return the last status.  Raises :class:`RuntimeError` as
        soon as a worker failed."""
        deadline = time.monotonic() + timeout
        while True:
            if self.errors:
                raise RuntimeError("workers failed: " + "; ".join(
                    f"{worker} {error}" for worker, error
                    in self.errors.items()
                ))
            status = self.driver.request(MessageType.STATUS)
            if (predicate(status) or status["complete"]
                    or time.monotonic() >= deadline):
                return status
            # Re-read ``master`` each round: a takeover replaces it.
            self.master.wait_complete(0.02)

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
        """Kill every worker process; close every link, the AM (and its
        server) and the mesh."""
        if self._closed:
            return
        self._closed = True
        for process in self.processes.values():
            process.kill()
        for link in list(self.links.values()):
            link.close()
        self.master.close()
        if self.mesh is not None:
            self.mesh.close()
