"""The in-memory cluster workload: scheduler bring-ups and job waves.

One segment is one :class:`~repro.cluster.ClusterScheduler` bring-up
(``e-fifo``, 4 GPUs, in-memory :class:`~repro.cluster.ElasticJobRunner`
jobs, one client on a ``memory_link``) followed by :data:`WAVES` waves.
A wave submits four small jobs, flips the capacity 4 -> 8 -> 4 while
they train, and ends when the last job completes.  No socket, no peer
mesh, no ring: only ``cluster``, ``journal``, ``InMemoryTransport`` and
the agent/AM core run.
"""

from __future__ import annotations

import collections
import dataclasses
import threading
import time

from repro.cluster import ClusterScheduler, ElasticJobRunner, JobRequest
from repro.coordination.messages import MessageType
from repro.net import JobSpec, memory_link

from . import oracle
from .proxies import SpanRecorder, TimedLink

NAME = "cluster_waves_mem"
WAVES = 1
JOBS_PER_WAVE = 4
#: long enough that both capacity flips land on their pins: the jobs
#: train at ~1 ms per iteration while the grow needs a scheduling pass,
#: four RESIZEs and four joiner threads before the first pin.
JOB_ITERATIONS = 256
INTERVAL = 4
WARMUP = 8
GPUS = 4
GPUS_GROWN = 8
GROW_PIN = 96
SHRINK_PIN = 176
#: the driver's scheduling-pass cadence (direct calls, no link).
STEP_FLOOR = 0.005
WAVE_DEADLINE = 20.0

_now = time.perf_counter


class TeeTracer:
    """Hand one hook to the program, feed two recorders."""

    enabled = True

    def __init__(self, recorder: SpanRecorder, tracer):
        self._recorder = recorder
        self._tracer = tracer

    def begin(self, name, track=None, cat="", **args):
        return (
            self._recorder.begin(name, track=track, cat=cat, **args),
            self._tracer.begin(name, track=track, cat=cat, **args),
        )

    def end(self, token, **extra) -> None:
        if token is not None:
            self._recorder.end(token[0])
            self._tracer.end(token[1], **extra)

    def instant(self, name, track=None, cat="", **args) -> None:
        self._recorder.instant(name, track=track, cat=cat, **args)
        self._tracer.instant(name, track=track, cat=cat, **args)

    def span(self, name, track=None, cat="", **args):
        return self._tracer.span(name, track=track, cat=cat, **args)

    def __getattr__(self, name):
        return getattr(self._tracer, name)


class TimedRunner:
    """The runner protocol, timed; everything else passes through."""

    def __init__(self, runner: ElasticJobRunner, log: list):
        self._runner = runner
        self._log = log
        self._job = runner.request.job_id

    def start(self, workers: int) -> None:
        t0 = _now()
        self._runner.start(workers)
        self._log.append((self._job, "runner.start", t0, _now(), None, None, 0))

    def resize(self, workers: int, at_iteration=None, **kwargs) -> bool:
        t0 = _now()
        accepted = self._runner.resize(
            workers, at_iteration=at_iteration, **kwargs
        )
        self._log.append(
            (self._job, "runner.resize", t0, _now(), at_iteration,
             "accepted" if accepted else "deferred", workers)
        )
        return accepted

    def __getattr__(self, name):
        return getattr(self._runner, name)


@dataclasses.dataclass
class SegmentRecord:
    """One scheduler bring-up and its waves."""

    seed: int
    traced: bool
    t_start: float
    t_end: float = 0.0
    log: list = dataclasses.field(default_factory=list)
    #: per wave: (t_submit, job_ids)
    waves: list = dataclasses.field(default_factory=list)
    completed: dict = dataclasses.field(default_factory=dict)
    journal_kinds: dict = dataclasses.field(default_factory=dict)
    am_handled: int = 0
    am_duplicates: int = 0
    resends: int = 0
    span_events: int = 0
    threads_peak: int = 0
    cpu_s: float = 0.0
    attempted: int = 0
    failures: list = dataclasses.field(default_factory=list)


def small_spec(request: JobRequest) -> JobSpec:
    """The spec ``ElasticJobRunner`` derives from a request (replay side)."""
    return JobSpec(
        seed=request.seed, iterations=request.iterations,
        coordination_interval=request.coordination_interval,
        iteration_sleep=request.iteration_sleep, ring_enabled=False,
    )


def job_request(seed: int, index: int, wave: int, slot: int) -> JobRequest:
    return JobRequest(
        job_id=f"s{index}v{wave}j{slot}", iterations=JOB_ITERATIONS,
        min_res=1, req_res=1, max_res=2,
        seed=seed * 1000 + wave * JOBS_PER_WAVE + slot,
        coordination_interval=INTERVAL,
    )


def reference_spec(seed: int) -> JobSpec:
    """The job shape of this workload (for batch size and the drives)."""
    return small_spec(job_request(seed, 0, 0, 0))


def run_segment(seed: int, index: int, traced: bool = False) -> SegmentRecord:
    """One bring-up + :data:`WAVES` waves; judged against the replay."""
    tracer = metrics = None
    cpu_before = time.process_time()
    record = SegmentRecord(seed, traced, t_start=_now())
    log = record.log
    recorder = SpanRecorder(log)
    hook = recorder
    if traced:
        from repro.observability import MetricRegistry, Tracer

        tracer, metrics = Tracer(), MetricRegistry()
        hook = TeeTracer(recorder, tracer)
    runners: "dict[str, ElasticJobRunner]" = {}

    def factory(request, _scheduler):
        runner = ElasticJobRunner(
            request, transport="memory", tracer=hook, metrics=metrics,
            join_timeout=WAVE_DEADLINE,
        )
        runners[request.job_id] = runner
        return TimedRunner(runner, log)

    sched = ClusterScheduler(
        "e-fifo", GPUS, runner_factory=factory, tracer=tracer,
        metrics=metrics,
    )
    client = TimedLink(
        memory_link(sched.core, "client", ack_timeout=1.0), "client", log
    )
    requests: "dict[str, JobRequest]" = {}
    try:
        for wave in range(WAVES):
            _run_wave(sched, client, record, requests, seed, index, wave)
            if record.failures:
                break
    finally:
        record.resends = client.resends
        client.close()
        record.completed = {
            job_id: dict(data) for job_id, data in sched.completed.items()
        }
        for runner in runners.values():
            if runner.master is not None:
                record.am_handled += runner.master.core.handled
                record.am_duplicates += runner.master.core.duplicates
        record.journal_kinds = dict(collections.Counter(
            entry["kind"] for entry in sched.journal.records()
        ))
        sched.close()
    record.t_end = _now()
    record.cpu_s = time.process_time() - cpu_before
    record.resends += recorder.sends - len(recorder.send_ids)
    if tracer is not None:
        record.span_events = len(tracer.to_events())
    _judge(record, requests)
    return record


def _step(sched, record, pin_at=None):
    """One timed scheduling pass (also samples the thread count)."""
    t0 = _now()
    out = sched.step(pin_at=pin_at)
    record.log.append(("driver", "sched.step", t0, _now(), None, None, 0))
    record.threads_peak = max(record.threads_peak, threading.active_count())
    return out


def _run_wave(sched, client, record, requests, seed, index, wave) -> None:
    log = record.log
    deadline = _now() + WAVE_DEADLINE
    job_ids = []
    t_submit = _now()
    for slot in range(JOBS_PER_WAVE):
        request = job_request(seed, index, wave, slot)
        requests[request.job_id] = request
        job_ids.append(request.job_id)
        reply = client.request(
            MessageType.SUBMIT, {"job": request.to_payload()}
        )
        if not reply.get("accepted"):
            record.failures.append(f"submit of {request.job_id} refused")
    record.waves.append((t_submit, job_ids))
    _step(sched, record)

    def sized(workers):
        return all(
            job in sched.completed
            or (job in sched.running and sched.running[job].workers == workers)
            for job in job_ids
        )

    for capacity, pin, workers in (
        (GPUS_GROWN, GROW_PIN, 2), (GPUS, SHRINK_PIN, 1),
    ):
        t0 = _now()
        sched.set_capacity(capacity, reason="bench")
        log.append(("driver", "sched.set_capacity", t0, _now(), None,
                    str(capacity), 0))
        while True:
            _step(sched, record, pin_at=pin)
            if sized(workers):
                break
            if _now() >= deadline:
                record.failures.append("missed wave deadline (resize)")
                return
            time.sleep(STEP_FLOOR)
    # No scheduling pass while the wave drains: a pass that sees a freed
    # GPU grows a neighbour again, and a joiner admitted in a job's last
    # iterations can miss the job altogether.
    while not all(
        job in sched.completed or sched.running[job].runner.complete()
        for job in job_ids
    ):
        if _now() >= deadline:
            record.failures.append("missed wave deadline (completion)")
            return
        time.sleep(STEP_FLOOR)
    _step(sched, record)


def iteration_sizes(log, job_id: str, iterations: int) -> "list[int]":
    """Group size per iteration, as the job's workers reported it."""
    counts = [0] * iterations
    prefix = job_id + "-w"
    for who, kind, _t0, _t1, iteration, _tag, _n in log:
        if kind == "iteration" and who.startswith(prefix):
            counts[iteration] += 1
    return counts


def _judge(record: SegmentRecord, requests) -> None:
    """Operations: worker runs + adjustments + completions, per job."""
    log = record.log
    for job_id, request in requests.items():
        workers = {
            who for who, kind, *_ in log
            if kind == "iteration" and who.startswith(job_id + "-w")
        }
        record.attempted += max(1, len(workers)) + 2 + 1
        done = record.completed.get(job_id)
        if done is None:
            record.failures.append(f"{job_id} never completed")
            continue
        sizes = iteration_sizes(log, job_id, request.iterations)
        if 0 in sizes:
            record.failures.append(f"{job_id}: untrained iterations")
            continue
        changes = sum(1 for a, b in zip(sizes, sizes[1:]) if a != b)
        if changes != 2 or sizes[-1] != 1:
            record.failures.append(
                f"{job_id}: capacity flips landed as {_runs(sizes)}"
            )
        digests = set(done["digests"].values())
        if len(digests) != 1:
            record.failures.append(f"{job_id}: replicas disagree")
        elif digests != {
            oracle.expected_digest(small_spec(request), tuple(sizes))
        }:
            record.failures.append(
                f"{job_id}: digest differs from the serial replay"
            )


def _runs(sizes) -> str:
    out, previous = [], None
    for index, size in enumerate(sizes):
        if size != previous:
            out.append(f"{size}@{index}")
            previous = size
    return " ".join(out)
