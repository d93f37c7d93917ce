"""One scenario runner: a JSON file drives one elastic job on LocalJob.

A :class:`Scenario` holds the transports to run over, the worker kind
(agent threads, or ``repro.cli join`` processes with a peer transport),
the initial workers and the :class:`JobSpec` fields, at most one
scale-out, faults keyed by iteration (worker kills, one AM kill,
per-worker link and peer resets, a shard-owner death) and what must
hold at the end (commits, survivors, a goodput floor, an MTTR ceiling).

:func:`run` drives it on :class:`LocalJob` through one
:meth:`LocalJob.wait` loop, writes every trace and metric under its
output directory and ends with :func:`assert_replay_matches` plus every
check the scenario makes meaningful; no check is chosen by a flag.  A
scenario over two transports must also recover alike and end on the
same digest on both.  The committed files are ``examples/scenarios/``;
``python -m repro.cli scenario FILE`` runs one.
"""

from __future__ import annotations

import ast
import dataclasses
import hashlib
import json
import os

from ..coordination.faults import FaultPlan
from ..coordination.messages import MessageType
from ..observability import (
    GoodputReport,
    MetricRegistry,
    Tracer,
    derive_report,
    load_trace_events,
    validate_events,
    write_trace_events,
)
from .job import LocalJob
from .journal import Journal, JournalState
from .master_service import JobSpec, NetworkedApplicationMaster
from .tcp import reserve_port


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


class ScenarioError(ValueError):
    """A scenario that cannot run; the message names the field."""


def _section(data, where: str, required=(), optional=()) -> dict:
    """``data`` as a dict holding only the keys named (``where`` names it)."""
    if not isinstance(data, dict):
        raise ScenarioError(f"{where}: expected an object, got {data!r}")
    for key in data:
        if key not in required and key not in optional:
            raise ScenarioError(f"{where}.{key}: unknown key")
    for key in required:
        if key not in data:
            raise ScenarioError(f"{where}.{key}: missing")
    return data


@dataclasses.dataclass(frozen=True)
class Scenario:
    """One elastic job's script and its expected outcome (see module)."""

    name: str
    transports: "tuple[str, ...]"
    spec: JobSpec
    initial: "tuple[str, ...]"
    #: ``"threads"`` (agents in this process, on the job's own mesh) or
    #: ``"processes"`` (``repro.cli join`` over ``peer_transport``).
    worker_kind: str
    peer_transport: str
    #: ``(iteration, joiners)`` of the one scale-out, if any.
    scale_out: "tuple[int, tuple[str, ...]] | None"
    #: worker -> iteration at which it dies without a goodbye.
    worker_kills: "dict[str, int]"
    #: iteration at which the AM is killed and a successor promoted.
    am_kill: "int | None"
    #: worker -> send indices at which its AM link / ring links reset.
    link_resets: "dict[str, tuple[int, ...]]"
    peer_resets: "dict[str, tuple[int, ...]]"
    #: ``(owner, chunks)``: the shard owner exits after serving that
    #: many shard chunks, mid-fetch.
    shard_owner_death: "tuple[str, int] | None"
    commits: int
    survivors: "tuple[str, ...]"
    goodput_floor: float
    mttr_ceiling: float
    #: wall-clock budget of one transport's run, in seconds.
    timeout: float

    @classmethod
    def load(cls, path: str) -> "Scenario":
        """The scenario in JSON file ``path``, named after the file."""
        with open(path) as f:
            data = json.load(f)
        return cls.from_dict(
            data, os.path.splitext(os.path.basename(path))[0]
        )

    @classmethod
    def from_dict(cls, data: dict, name: str) -> "Scenario":
        """Validate ``data``; every error names the offending field."""
        top = _section(
            data, "scenario",
            required=("transports", "workers", "spec", "expect"),
            optional=("scale_out", "faults", "timeout"),
        )
        transports = tuple(top["transports"])
        if not transports or len(set(transports)) != len(transports) or (
            not set(transports) <= {"memory", "tcp"}
        ):
            raise ScenarioError(
                f"transports: {list(transports)} is not a list of distinct "
                "'memory'/'tcp'"
            )
        workers = _section(top["workers"], "workers", ("kind", "initial"),
                           ("peer_transport",))
        kind = workers["kind"]
        if kind not in ("threads", "processes"):
            raise ScenarioError(f"workers.kind: {kind!r} is not "
                                "'threads' or 'processes'")
        peer_transport = workers.get("peer_transport", "tcp")
        if kind == "threads" and "peer_transport" in workers:
            raise ScenarioError("workers.peer_transport: thread workers "
                                "ring over the job's own mesh")
        if peer_transport not in ("tcp", "shm"):
            raise ScenarioError(f"workers.peer_transport: {peer_transport!r}"
                                " is not 'tcp' or 'shm'")
        if kind == "processes" and "memory" in transports:
            raise ScenarioError("transports: process workers need tcp, "
                                "not the in-process memory pipe")
        try:
            spec = JobSpec(**top["spec"])
        except TypeError as exc:  # names the misspelt key
            raise ScenarioError(f"spec: {exc}") from None
        if kind == "processes" and spec.telemetry_interval <= 0:
            raise ScenarioError("spec.telemetry_interval: process workers "
                                "report their iterations by telemetry, so "
                                "it must be > 0")
        initial = tuple(workers["initial"])
        scale_out = None
        if "scale_out" in top:
            section = _section(top["scale_out"], "scale_out", ("at", "add"))
            scale_out = (int(section["at"]), tuple(section["add"]))
        started = set(initial) | set(scale_out[1] if scale_out else ())
        faults = _section(top.get("faults", {}), "faults", optional=(
            "worker_kills", "am_kills", "link_resets", "peer_resets",
            "shard_owner_death",
        ))
        for key in ("worker_kills", "link_resets", "peer_resets",
                    "shard_owner_death"):
            for worker in faults.get(key, {}):
                if worker not in started:
                    raise ScenarioError(
                        f"faults.{key}.{worker}: the scenario never starts "
                        f"{worker!r} (it starts {sorted(started)})"
                    )
        am_kills = list(faults.get("am_kills", ()))
        if len(am_kills) > 1:
            raise ScenarioError(f"faults.am_kills: {am_kills} — one AM kill "
                                "at most (one standby endpoint)")
        death = list(faults.get("shard_owner_death", {}).items())
        if len(death) > 1:
            raise ScenarioError("faults.shard_owner_death: one owner at most")
        if death and kind == "threads":
            raise ScenarioError(
                "faults.shard_owner_death: a dying shard owner exits its "
                "process, which for a thread worker is the runner itself"
            )
        # A scale-out's shard owners are the first replication_shards
        # members of the group, in order.
        if death and (not scale_out or death[0][0] not in
                      initial[:spec.replication_shards]):
            raise ScenarioError(
                f"faults.shard_owner_death.{death[0][0]}: owns no shard "
                "(the owners are the first spec.replication_shards initial "
                "workers, at the scale-out)"
            )
        expect = _section(top["expect"], "expect", (
            "commits", "survivors", "goodput_floor", "mttr_ceiling",
        ))
        return cls(
            name=name, transports=transports, spec=spec, initial=initial,
            worker_kind=kind, peer_transport=peer_transport,
            scale_out=scale_out,
            worker_kills={w: int(i) for w, i in
                          faults.get("worker_kills", {}).items()},
            am_kill=int(am_kills[0]) if am_kills else None,
            link_resets={w: tuple(map(int, s)) for w, s in
                         faults.get("link_resets", {}).items()},
            peer_resets={w: tuple(map(int, s)) for w, s in
                         faults.get("peer_resets", {}).items()},
            shard_owner_death=(death[0][0], int(death[0][1])) if death
            else None,
            commits=int(expect["commits"]),
            survivors=tuple(expect["survivors"]),
            goodput_floor=float(expect["goodput_floor"]),
            mttr_ceiling=float(expect["mttr_ceiling"]),
            timeout=float(top.get("timeout", 120.0)),
        )

    @property
    def joiners(self) -> "tuple[str, ...]":
        return self.scale_out[1] if self.scale_out else ()

    @property
    def dead(self) -> "set[str]":
        """Every worker the faults kill."""
        owner = {self.shard_owner_death[0]} if self.shard_owner_death else set()
        return set(self.worker_kills) | owner


@dataclasses.dataclass
class Run:
    """One transport's run: the closed job, its final status and report."""

    job: LocalJob
    status: dict
    report: GoodputReport


def run(scenario: Scenario, out_dir: str) -> "dict[str, Run]":
    """Run ``scenario`` once per transport, artifacts under
    ``out_dir/<transport>/``; raise AssertionError (or SLOViolation) on
    the first check that fails, else return the runs."""
    if not __debug__:
        raise RuntimeError("the scenario checks are assert statements; "
                           "run without python -O")
    runs = {
        transport: _run(scenario, transport, os.path.join(out_dir, transport))
        for transport in scenario.transports
    }
    if len(runs) > 1:
        # The faults are keyed by iteration, so what happened — not how
        # long it took — must match on every wire, down to the model.
        for label in ("failovers", "condemned", "evictions_minted",
                      "workers_evicted"):
            values = {t: r.report.counts[label] for t, r in runs.items()}
            assert len(set(values.values())) == 1, (label, values)
        digests = {t: sorted(set(r.status["digests"].values()))
                   for t, r in runs.items()}
        assert len({tuple(d) for d in digests.values()}) == 1, digests
    return runs


def _run(sc: Scenario, transport: str, out: str) -> Run:
    os.makedirs(os.path.join(out, "workers"), exist_ok=True)
    journal = os.path.join(out, "journal.jsonl")
    if os.path.exists(journal):
        os.remove(journal)  # a fresh job, not a resumed one
    tracer = Tracer(process=f"scenario-{transport}")
    # One registry for the AM and its successor: the checks read what
    # the predecessor recorded too.
    metrics = MetricRegistry()
    threads = sc.worker_kind == "threads"
    job = LocalJob(transport, sc.spec, sc.initial, mesh=threads,
                   tracer=tracer, metrics=metrics, journal=Journal(journal))
    # An AM kill over TCP takes over onto a standby endpoint every link
    # knows from the start (bound, not listening, until the takeover).
    standby, endpoints = None, {}
    if sc.am_kill is not None and job.server is not None:
        host = job.server.host
        standby, port = reserve_port(host)
        endpoints = {"endpoints": [(host, job.server.port), (host, port)]}
    try:
        _start_workers(sc, job, out, endpoints)
        status = _drive(sc, job, standby, endpoints)
        tracer.export(os.path.join(out, "trace.json"))
        report = _check(sc, job, status, out)
        with open(os.path.join(out, "metrics.json"), "w") as f:
            json.dump(metrics.snapshot(), f, indent=2, sort_keys=True)
        assert_replay_matches(job.master)
    finally:
        if standby is not None:
            standby.close()
        job.close()
    print(f"[{sc.name} over {transport}] {sc.commits} commits, survivors "
          f"{list(sc.survivors)}, one digest; artifacts in {out}")
    return Run(job, status, report)


def _start_workers(sc: Scenario, job: LocalJob, out: str, endpoints) -> None:
    # Joiners start with the job: a JOIN poll before the scale-out
    # request is answered "pending", so no start-up delays the commit.
    for worker in (*sc.initial, *sc.joiners):
        links = sc.link_resets.get(worker, ())
        peers = sc.peer_resets.get(worker, ())
        if sc.worker_kind == "threads":
            job.start_worker(
                worker,
                link_options={"heartbeat_interval": 0.2, "ack_timeout": 0.5,
                              "fault_plan": FaultPlan.for_link(resets=links),
                              **endpoints},
                die_at_iteration=sc.worker_kills.get(worker),
                peer_fault_plan=FaultPlan.for_link(resets=peers),
            )
            continue
        flags = ["--peer-transport", sc.peer_transport,
                 "--trace", os.path.join(out, "workers", f"{worker}.json")]
        flags += [f for i in links for f in ("--reset-at", str(i))]
        flags += [f for i in peers for f in ("--peer-reset-at", str(i))]
        if sc.shard_owner_death and sc.shard_owner_death[0] == worker:
            flags += ["--shard-die-after", str(sc.shard_owner_death[1])]
        for host, port in endpoints.get("endpoints", [])[1:]:
            flags += ["--am-endpoint", f"{host}:{port}"]
        job.spawn_worker(worker, *flags)


def _drive(sc: Scenario, job: LocalJob, standby, endpoints) -> dict:
    """Fire each fault once training reaches its iteration and every
    adjustment owed by earlier faults has committed; wait for the end."""
    # The driver's STATUS polls stay out of the AM's trace and metrics.
    job.link("driver", ack_timeout=1.0, tracer=None, metrics=None,
             **endpoints)
    owing = sorted([*sc.worker_kills.values()] + (
        [sc.scale_out[0]] * (1 + bool(sc.shard_owner_death))
        if sc.scale_out else []
    ))

    def scale_out(joiners):
        reply = job.driver.request(MessageType.ADJUSTMENT_REQUEST,
                                   {"kind": "scale_out", "add": list(joiners)})
        assert reply.get("accepted"), reply

    def kill_am():
        job.tracer.instant("soak.am_kill", track="soak", cat="chaos",
                           epoch=job.master.epoch)
        if standby is not None:
            standby.close()  # the successor binds its port
        job.fail_over(endpoints["endpoints"][1] if endpoints else None)

    events = []  # (iteration, label, action)
    if sc.scale_out:
        events.append((sc.scale_out[0], f"scale out {list(sc.joiners)}",
                       lambda: scale_out(sc.joiners)))
    if sc.worker_kind == "processes":  # thread workers die on their own
        events += [(at, f"SIGKILL {w}", lambda w=w: job.kill_worker(w))
                   for w, at in sc.worker_kills.items()]
    if sc.am_kill is not None:
        events.append((sc.am_kill, "kill the AM", kill_am))
    events.sort(key=lambda event: event[0])

    def step(status) -> bool:
        while events and status["iteration"] >= events[0][0] and (
            status["adjustments_committed"]
            >= sum(1 for at in owing if at < events[0][0])
        ):
            at, label, action = events.pop(0)
            print(f"iteration {status['iteration']} (>= {at}): {label}")
            action()
        return not events and status["complete"]

    status = job.wait(step, sc.timeout)
    assert status["complete"] and not events, (
        f"{sc.name}: not complete within {sc.timeout}s, faults still "
        f"pending {[label for _, label, _ in events]}: {status}"
    )
    assert job.join(10.0), "workers still running"
    assert not job.errors, job.errors
    return job.master.status()


def _lane(events: "list[dict]", worker: str) -> "list[dict]":
    """The events of ``worker``'s lane in a shared trace."""
    tids = {e["tid"] for e in events if e.get("name") == "thread_name"
            and e["args"]["name"] == worker}
    return [e for e in events if e.get("tid") in tids]


def _check(sc: Scenario, job: LocalJob, status: dict, out: str
           ) -> GoodputReport:
    """Every check the scenario makes meaningful; the goodput report."""
    spec, dead = sc.spec, sc.dead
    failovers = int(sc.am_kill is not None)
    snap = job.master.metrics.snapshot()
    events = job.tracer.to_events()
    names = {e.get("name") for e in events}
    assert not validate_events(events), validate_events(events)

    # Outcome: who finished, who died, on one model.
    assert sorted(job.killed) == sorted(dead), (job.killed, dead)
    assert sorted(job.results) == sorted(sc.survivors), sorted(job.results)
    assert sorted(status["digests"]) == sorted(sc.survivors), status
    assert len(set(status["digests"].values())) == 1, status["digests"]
    assert status["group"] == list(sc.survivors), status["group"]
    assert status["adjustments_committed"] == sc.commits, status
    assert dead <= set(status["departed"]), status["departed"]
    assert status["epoch"] == 1 + failovers, status["epoch"]
    assert snap.get("am.failover", 0) == failovers, snap.get("am.failover")
    if failovers:
        assert "am.failover" in names and "soak.am_kill" in names

    if job.server is not None:
        # After a takeover the successor's listener sees only the
        # survivors' redials and the driver's; otherwise every worker,
        # the driver and one redial per injected AM-link reset.
        floor = len(sc.survivors) + 1 if failovers else (
            len(sc.initial) + len(sc.joiners) + 1
            + sum(map(len, sc.link_resets.values()))
        )
        accepted = job.server.connections_accepted
        assert accepted >= floor, (accepted, floor)

    def worker_events(worker):
        if sc.worker_kind == "threads":
            return _lane(events, worker)
        worker_trace = load_trace_events(
            os.path.join(out, "workers", f"{worker}.json")
        )
        assert not validate_events(worker_trace), worker
        return worker_trace

    # The data plane: the uploader streamed the snapshot once; with no
    # death, takeover or shard owner, the AM served it to every joiner.
    chunks = snap.get("net.chunks.received", 0)
    quiet = not dead and not failovers
    if sc.scale_out:
        assert chunks >= 1, snap
        transfers = snap.get("net.transfers.completed", 0)
        assert transfers >= 1 and (transfers == 1 or not quiet), transfers
        if quiet and not spec.replication_shards:
            served = snap.get("net.chunks.served", 0)
            assert served == len(sc.joiners) * chunks, (served, chunks)
    if sc.scale_out and spec.replication_shards:
        # Each joiner fans in shard by shard (the plan is chunk-aligned,
        # so a small snapshot clamps to one shard per chunk).
        planned = int(snap.get("net.shards.planned", 0))
        assert planned >= min(spec.replication_shards, int(chunks)), snap
        assert snap.get("net.shards.joins_completed", 0) == len(sc.joiners)
        spans = [e for w in sc.joiners for e in worker_events(w)
                 if e.get("name") == "replicate.shard_fetch"]
        assert len(spans) >= len(sc.joiners) * planned, len(spans)
        if sc.shard_owner_death:
            # A joiner re-planned the dead owner's shard onto a surviving
            # owner or the AM.
            owner = sc.shard_owner_death[0]
            shard = sc.initial.index(owner)
            sources = {e["args"].get("source") for e in spans
                       if e["args"].get("shard") == shard}
            replanned = sources & ((set(sc.initial) - dead) | {"am"})
            assert replanned, sources
            print(f"shard {shard} re-planned off dead owner {owner} onto "
                  f"{sorted(replanned)}")

    if spec.ring_enabled:
        # The ring took the AM out of the gradient path: an original
        # worker syncs at the AM once per star iteration and ring
        # fallback it counted.  With no peer lost, its star iterations
        # are the coordination_interval before the ring is handed out,
        # one per commit boundary and the final barrier.  A takeover
        # (the successor's dedup table starts empty) or a dead shard
        # owner (it breaks the ring until evicted) leaves only "some".
        executions = job.master.core.executions
        for worker in sorted(set(sc.initial) - dead):
            syncs = executions.get((worker, "sync"), 0)
            if failovers or sc.shard_owner_death:
                assert syncs > 0, (worker, syncs)
                continue
            tally = job.results[worker]
            if isinstance(tally, str):  # a process prints "w0: {...}"
                [line] = [line for line in tally.splitlines()
                          if line.startswith(f"{worker}: ")]
                tally = ast.literal_eval(line[len(worker) + 2:])
            assert syncs == tally["star_iterations"] + tally[
                "ring_fallbacks"], (worker, syncs, tally)
            if not dead:
                assert tally["star_iterations"] == (
                    spec.coordination_interval + sc.commits + 1
                ), (worker, tally)
        for worker in sc.survivors:
            lane = {e.get("name") for e in worker_events(worker)}
            assert {"net.allreduce.reduce_scatter",
                    "net.allreduce.all_gather"} <= lane, worker

    # Goodput and recovery: from the fleet the workers shipped (the
    # successor's collector is rebuilt from their full re-ships), else
    # from the trace the thread workers share with the AM.
    if spec.telemetry_interval > 0:
        fleet = job.master.fleet
        for worker in sc.survivors:
            assert worker in fleet.workers(), (worker, fleet.workers())
            assert fleet.worker_events(worker), worker
            assert fleet.worker_metrics(worker), worker
        merged = fleet.merged_events(am_events=events)
        write_trace_events(os.path.join(out, "fleet-trace.json"), merged)
        assert not validate_events(merged)
        rows = {e["args"]["name"] for e in merged
                if e.get("ph") == "M" and e.get("name") == "process_name"}
        assert set(sc.survivors) <= rows, rows
        if spec.replication_shards and sc.scale_out:
            assert "replicate.shard_fetch" in {e.get("name") for e in merged}
        report = fleet.report(am_events=events, am_metrics=snap)["fleet"]
        assert report.iterations > 0, report.format()
    else:
        report = derive_report(events, snap)
    assert 0.0 < report.goodput <= 1.0 and report.wall_seconds > 0, (
        report.format()
    )
    assert report.counts["failovers"] == failovers, report.counts
    if spec.worker_lease_ttl > 0:
        assert report.counts["condemned"] == len(dead), report.counts
        assert report.counts["evictions_minted"] == len(dead), report.counts
    if dead:
        detection = snap.get("failure.detection_latency_seconds") or {}
        mttr = snap.get("failure.mttr_seconds") or {}
        assert detection.get("count", 0) >= 1, detection
        assert mttr.get("count", 0) >= 1, mttr
        assert report.mean_detection is not None and report.recoveries >= 1
        assert report.mean_mttr is not None, report.format()
    report.assert_slo(goodput_floor=sc.goodput_floor,
                      mttr_ceiling=sc.mttr_ceiling)
    job.master.metrics.gauge("goodput.ratio").set(report.goodput)
    job.master.metrics.gauge("goodput.busy_seconds").set(report.busy_seconds)
    job.master.metrics.gauge("goodput.wall_seconds").set(report.wall_seconds)
    return report
