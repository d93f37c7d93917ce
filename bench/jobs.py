"""The three single-job workloads: one elastic job, run from outside.

A job is the system under test end to end: a
:class:`~repro.net.NetworkedApplicationMaster` served over loopback
TCP, one :class:`~repro.net.WorkerAgent` thread per replica on its own
``tcp_link``, and one driver (this thread) with one control link that
issues the pinned adjustments and polls ``STATUS`` no faster than every
20 ms.  Every timestamp used later comes from the proxies' log.
"""

from __future__ import annotations

import collections
import dataclasses
import glob
import threading
import time

from repro.coordination.messages import MessageType
from repro.net import (
    JobSpec,
    NetworkedApplicationMaster,
    ShmPeerHost,
    TcpPeerHost,
    WorkerAgent,
    tcp_link,
)
from repro.net.shm import SHM_NAME_PREFIX

from . import oracle
from .proxies import TimedLink, TimedPeerHost

WARMUP = 8
INTERVAL = 4
BASE_WORKERS = 4
TOTAL_BATCH = 64
BASE_IDS = tuple(f"w{i}" for i in range(BASE_WORKERS))
#: the driver's STATUS cadence floor (seconds).
POLL_FLOOR = 0.02
JOB_DEADLINE = 40.0


@dataclasses.dataclass(frozen=True)
class JobShape:
    """What distinguishes one job workload from another."""

    name: str
    peer: "str | None"  # None (star) | "tcp" | "shm"
    shards: int
    iterations: int
    #: pinned commits: (at_iteration, kind, delta)
    schedule: "tuple[tuple[int, str, int], ...]" = ()

    @property
    def timed_iterations(self) -> int:
        return self.iterations - WARMUP


#: ISSUE 12's schedule: warm-up 8, two steady periods at 4, 4 -> 2 at
#: 16, two steady periods at 2, 2 -> 4 at 28, two steady periods at 4,
#: then the closing period (its last iteration always rides the star, so
#: it bounds no period).  The three periods between the pins are the
#: driver's margin: it must see the first commit in a STATUS poll, ask
#: for the second adjustment and have both joiners report before rank 0
#: coordinates at 28.
CHURN = ((16, "scale_in", 2), (28, "scale_out", 2))
CHURN_ITERATIONS = 44

SHAPES = {
    "star_tcp_churn": JobShape(
        "star_tcp_churn", None, 0, CHURN_ITERATIONS, CHURN
    ),
    "ring_tcp_steady": JobShape(
        "ring_tcp_steady", "tcp", 0, WARMUP + 24
    ),
    "ring_shm_churn_sharded": JobShape(
        "ring_shm_churn_sharded", "shm", 2, CHURN_ITERATIONS, CHURN
    ),
}


def job_spec(shape: JobShape, seed: int) -> JobSpec:
    """One job shape everywhere: ~512 KB of float64 gradients."""
    return JobSpec(
        train_size=512, test_size=64, input_dim=256, hidden_dim=248,
        num_classes=8, seed=seed, total_batch_size=TOTAL_BATCH,
        iterations=shape.iterations, coordination_interval=INTERVAL,
        iteration_sleep=0.0, replication_shards=shape.shards,
        allreduce_timeout=15.0,
        # Serial chunk upload/fetch: with the default window of 4 the
        # uploader's first chunks race each other to the AM, and a
        # seq >= 1 that wins is answered "restart" (see README, program
        # defects) -- about one churn job in fifty then dies.
        replication_window=1,
    )


def shm_segments() -> "list[str]":
    return sorted(glob.glob("/dev/shm/" + SHM_NAME_PREFIX + "*"))


@dataclasses.dataclass
class JobRecord:
    """Everything one job left behind, for metrics and the oracle."""

    shape: JobShape
    seed: int
    traced: bool
    t_start: float
    t_end: float = 0.0
    log: list = dataclasses.field(default_factory=list)
    results: dict = dataclasses.field(default_factory=dict)
    errors: dict = dataclasses.field(default_factory=dict)
    digests: dict = dataclasses.field(default_factory=dict)
    status: dict = dataclasses.field(default_factory=dict)
    am_metrics: dict = dataclasses.field(default_factory=dict)
    worker_metrics: dict = dataclasses.field(default_factory=dict)
    commit_latencies: list = dataclasses.field(default_factory=list)
    journal_kinds: dict = dataclasses.field(default_factory=dict)
    resends: int = 0
    span_events: int = 0
    threads_peak: int = 0
    cpu_s: float = 0.0
    #: operations: worker runs + adjustments + completions.
    attempted: int = 0
    failures: list = dataclasses.field(default_factory=list)
    expected_digest: "str | None" = None


def _make_host(peer: "str | None"):
    if peer == "tcp":
        return TcpPeerHost()
    if peer == "shm":
        return ShmPeerHost()
    return None


def run_job(shape: JobShape, seed: int, traced: bool = False) -> JobRecord:
    """Bring one job up, drive its schedule, tear it down, judge it."""
    tracer = metrics = None
    if traced:
        from repro.observability import MetricRegistry, Tracer

        tracer, metrics = Tracer(), MetricRegistry()
    shm_before = set(shm_segments())
    cpu_before = time.process_time()
    record = JobRecord(shape, seed, traced, t_start=time.perf_counter())
    log = record.log
    spec = job_spec(shape, seed)
    base = list(BASE_IDS)
    master = NetworkedApplicationMaster(spec, base, tracer=tracer)
    server = master.serve_tcp()
    raw_host = _make_host(shape.peer)
    host = TimedPeerHost(raw_host, log) if raw_host is not None else None
    links: "dict[str, TimedLink]" = {}
    threads: "dict[str, threading.Thread]" = {}

    def start_worker(worker_id: str) -> None:
        def run():
            try:
                link, _ = tcp_link(
                    server.host, server.port, worker_id, tracer=tracer,
                    metrics=metrics, connect_attempts=10,
                )
                links[worker_id] = timed = TimedLink(link, worker_id, log)
                agent = WorkerAgent(
                    worker_id, timed, poll_interval=0.01, tracer=tracer,
                    metrics=metrics, peer_host=host,
                )
                record.results[worker_id] = agent.run()
            except BaseException as exc:  # judged below, never lost
                record.errors[worker_id] = repr(exc)

        thread = threading.Thread(
            target=run, name=f"bench-{worker_id}", daemon=True
        )
        threads[worker_id] = thread
        thread.start()

    adjustments = 0
    try:
        for worker_id in base:
            start_worker(worker_id)
        control, _ = tcp_link(server.host, server.port, "driver")
        control = TimedLink(control, "driver", log)
        deadline = record.t_start + JOB_DEADLINE
        next_worker = BASE_WORKERS
        group = list(base)
        try:
            for committed, (pin, kind, delta) in enumerate(shape.schedule):
                _wait_status(
                    control, deadline, record,
                    lambda s, n=committed: s["adjustments_committed"] >= n,
                )
                added = []
                if kind == "scale_out":
                    added = [f"w{next_worker + i}" for i in range(delta)]
                    next_worker += delta
                    payload = {"kind": kind, "add": added,
                               "at_iteration": pin}
                    group = group + added
                else:
                    payload = {"kind": kind, "remove": group[-delta:],
                               "at_iteration": pin}
                    group = group[:-delta]
                adjustments += 1
                reply = control.request(
                    MessageType.ADJUSTMENT_REQUEST, payload
                )
                if not reply.get("accepted"):
                    record.failures.append(f"refused {kind}@{pin}")
                    break
                for worker_id in added:
                    start_worker(worker_id)
            _wait_status(control, deadline, record, lambda s: s["complete"])
            record.status = control.request(MessageType.STATUS)
        except _Abandon:
            pass
        finally:
            record.resends += control.resends
            control.close()
        for thread in threads.values():
            thread.join(timeout=max(0.1, deadline - time.perf_counter()))
    finally:
        for link in list(links.values()):
            record.resends += link.resends
            link.close()
        record.digests = master.final_digests()
        record.am_metrics = master.metrics.snapshot()
        record.commit_latencies = list(master.commit_latencies)
        record.journal_kinds = dict(collections.Counter(
            entry["kind"] for entry in master.journal.records()
        ))
        record.status.setdefault("handled", master.core.handled)
        record.status.setdefault("duplicates", master.core.duplicates)
        master.close()
        if host is not None:
            host.close()
        for thread in threads.values():
            thread.join(timeout=5.0)
    record.t_end = time.perf_counter()
    record.cpu_s = time.process_time() - cpu_before
    if metrics is not None:
        record.worker_metrics = metrics.snapshot()
        record.span_events = len(tracer.to_events())
    _judge(record, spec, adjustments, len(threads), shm_before)
    return record


def _wait_status(control, deadline, record, predicate) -> None:
    """Poll STATUS (>= 20 ms apart) until ``predicate`` or the deadline."""
    while True:
        status = control.request(MessageType.STATUS)
        record.threads_peak = max(
            record.threads_peak, threading.active_count()
        )
        if predicate(status):
            return
        if record.errors or time.perf_counter() >= deadline:
            record.failures.append("missed job deadline")
            raise _Abandon()
        time.sleep(POLL_FLOOR)


class _Abandon(Exception):
    """The job missed its deadline; tear down and count the failure."""


def observed_commits(log) -> "list[tuple[int, int]]":
    """``(commit_iteration, new_size)`` pairs the survivors reported."""
    commits = set()
    for _who, kind, _t0, _t1, _it, tag, _n in log:
        if kind == "coordinate" and tag and tag.startswith("adjust:"):
            _, size, commit = tag.split(":")
            commits.add((int(commit), int(size)))
    return sorted(commits)


def _judge(record, spec, adjustments, worker_runs, shm_before) -> None:
    """Count operations and failures; compare digests with the replay."""
    shape = record.shape
    record.attempted = worker_runs + adjustments + 1
    for worker_id, error in record.errors.items():
        record.failures.append(f"worker {worker_id} raised {error}")
    commits = observed_commits(record.log)
    landed = [commit for commit, _size in commits]
    pinned = [pin for pin, _kind, _delta in shape.schedule]
    if landed != pinned:
        record.failures.append(
            f"commits landed at {landed}, pinned {pinned}"
        )
    sizes = oracle.group_sizes(shape.iterations, BASE_WORKERS, commits)
    record.expected_digest = oracle.expected_digest(spec, tuple(sizes))
    finals = set(record.digests.values())
    if len(finals) != 1:
        record.failures.append(f"replicas ended on {len(finals)} digests")
    elif finals != {record.expected_digest}:
        record.failures.append("digest differs from the serial replay")
    if len(record.digests) != sizes[-1]:
        record.failures.append(
            f"{len(record.digests)} of {sizes[-1]} replicas reported"
        )
    for name in set(shm_segments()) - shm_before:
        record.failures.append(f"leaked shm segment {name}")
