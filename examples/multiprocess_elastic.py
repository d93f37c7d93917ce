"""Multi-process elastic training over loopback TCP.

Runs a 2-worker data-parallel :class:`~repro.net.LocalJob` whose every
worker is a *separate OS process* (``python -m repro.cli join``, started
by ``LocalJob.spawn_worker``) talking to the in-process application
master over real sockets, then scales out to 4 workers mid-run through
the job's driver link.  Worker w0 suffers an injected connection reset
on its AM link *and* on its ring peer links, so the run demonstrates
the §V-D recipe end-to-end on both planes: lost messages are
retransmitted after the reconnect, receivers deduplicate, and the final
sha256 parameter digests prove no replica lost an update.

Steady-state gradients ride the decentralized ring allreduce
(reduce-scatter + all-gather over direct worker↔worker TCP links); the
AM only serves the pre-activation, adjustment-boundary and final-
barrier iterations, which the sync-execution assertion at the bottom
checks.  Each worker exports its own Chrome trace, validated to contain
``net.allreduce.reduce_scatter`` / ``net.allreduce.all_gather`` spans.

Run:  python examples/multiprocess_elastic.py

The scale-out snapshot travels the chunked binary data plane
(``STATE_CHUNK``/``STATE_DONE`` upload, round-gated ``STATE_FETCH``
of a shard plan); environment knobs size the synthetic model so CI can push a
multi-megabyte snapshot through it:

* ``ELAN_HIDDEN`` / ``ELAN_INPUT`` — model dimensions (default 16/16;
  1024/512 makes an ~8 MB snapshot),
* ``ELAN_ITERS`` — iterations (default 40),
* ``ELAN_SLEEP`` — per-iteration pacing in seconds (default 0.05),
* ``ELAN_CHUNK_KB`` — replication chunk size (default 256),
* ``ELAN_PEER_TRANSPORT`` — ring peer transport, passed to every
  worker as ``--peer-transport`` (``tcp`` default; ``shm`` rides
  shared-memory ring buffers between the co-located worker processes,
  bootstrap + doorbell over a Unix socket),
* ``ELAN_WORKER_TRACE_DIR`` — where per-worker traces land (default: a
  temporary directory).

Crash-tolerance chaos knobs (either one turns the run into a failover
drill: the AM journals to disk and worker leases are enabled):

* ``ELAN_WORKER_KILL_ITER`` — SIGKILL one worker process at this
  iteration (``ELAN_WORKER_KILL`` names it, default ``w3``); the AM
  must lease-evict it and commit the shrink on its own,
* ``ELAN_AM_KILL_ITER`` — kill the AM at this iteration and promote a
  successor replayed from the on-disk journal onto the same port; the
  run then asserts the fencing epoch bumped and an ``am.failover``
  instant landed in the trace.

Sharded-migration knobs (docs/PROTOCOL.md "Sharded plans"):

* ``ELAN_SHARDS`` — number of shard owners for the scale-out snapshot
  (0, the default, plans one AM-owned shard; 2 makes w0 and w1
  each freeze the snapshot and serve disjoint shard halves directly to
  the joiners over the peer mesh),
* ``ELAN_SHARD_OWNER_KILL`` — hard-kill shard owner w0 after it served
  this many shard chunks (mid-fetch); the joiners must re-plan the
  dead owner's shards onto the surviving owner (or the AM), the lease
  supervisor must evict w0, and the final digests must still agree.

Observability knobs:

* ``ELAN_TRACE=/path/to/trace.json`` — export the AM-side trace
  (net.send / net.recv / net.reconnect / net.state_upload spans),
* ``ELAN_TELEMETRY`` — worker→AM telemetry shipping interval in seconds
  (default 0.5; 0 disables).  With shipping on, every worker pushes
  metric/trace deltas to the AM's fleet collector and the run prints a
  live per-job goodput report at the end,
* ``ELAN_FLEET_TRACE=/path`` — export the merged, clock-aligned fleet
  trace (AM + every worker as named process rows; feed it to
  ``python -m repro.cli tracing validate`` / ``summarize``),
* ``ELAN_METRICS=/path`` — dump the AM metric registry's snapshot as
  JSON (readable back via ``python -m repro.cli tracing metrics`` and
  ``fleet prom``).

See docs/OBSERVABILITY.md and docs/PROTOCOL.md.
"""

import ast
import json
import os
import sys
import tempfile

from repro.coordination.messages import MessageType
from repro.net import JobSpec, Journal, LocalJob
from repro.observability import (
    MetricRegistry,
    Tracer,
    load_trace_events,
    validate_events,
    write_trace_events,
)


def _env_int(name: str, default: int) -> int:
    return int(os.environ.get(name, default))


def _env_opt_int(name: str) -> "int | None":
    value = os.environ.get(name)
    return int(value) if value else None


def main() -> int:
    tracer = Tracer(process="elan-net")
    worker_kill_iter = _env_opt_int("ELAN_WORKER_KILL_ITER")
    am_kill_iter = _env_opt_int("ELAN_AM_KILL_ITER")
    shards = _env_int("ELAN_SHARDS", 0)
    shard_owner_kill = _env_opt_int("ELAN_SHARD_OWNER_KILL")
    chaos = (
        worker_kill_iter is not None
        or am_kill_iter is not None
        or shard_owner_kill is not None
    )
    spec = JobSpec(
        iterations=_env_int("ELAN_ITERS", 40),
        coordination_interval=4,
        iteration_sleep=float(os.environ.get("ELAN_SLEEP", "0.05")),
        input_dim=_env_int("ELAN_INPUT", 16),
        hidden_dim=_env_int("ELAN_HIDDEN", 16),
        chunk_bytes=_env_int("ELAN_CHUNK_KB", 256) * 1024,
        # Chaos drills need the lease supervisor: a SIGKILLed worker
        # sends no goodbye, so only its expiring heartbeat lease tells
        # the AM to mint the shrink plan.
        worker_lease_ttl=2.0 if chaos else 0.0,
        lease_check_interval=0.25,
        # Live telemetry: the knob rides the join reply, so setting it
        # here is all it takes for every worker process to ship.
        telemetry_interval=float(os.environ.get("ELAN_TELEMETRY", "0.5")),
        # Sharded migration: the scale-out snapshot fans in from this
        # many owner peers instead of trickling out of the AM alone.
        replication_shards=shards,
    )
    trace_dir = os.environ.get(
        "ELAN_WORKER_TRACE_DIR"
    ) or tempfile.mkdtemp(prefix="elan-worker-traces-")
    os.makedirs(trace_dir, exist_ok=True)

    def worker_trace_path(worker_id):
        return os.path.join(trace_dir, f"{worker_id}.json")

    # Journal to disk so AM failover replays from the file, exactly
    # like an out-of-process standby would.
    journal_path = (
        os.path.join(trace_dir, "am-journal.jsonl") if chaos else None
    )
    job = LocalJob(
        "tcp", spec, ["w0", "w1"], tracer=tracer,
        # One registry for the AM and its successor: the post-failover
        # checks below read what the predecessor recorded.
        metrics=MetricRegistry(),
        journal=Journal(journal_path) if journal_path else None,
    )
    print(f"AM listening on {job.server.host}:{job.server.port}")
    # The driver's STATUS polls stay out of the AM's trace and metrics.
    driver = job.link("driver", ack_timeout=2.0, tracer=None, metrics=None)
    # shm moves co-located ring traffic through shared-memory ring
    # buffers; every worker process is on this host, so SHM always
    # applies (remote tcp:// peers would fall back transparently).
    peer_transport = os.environ.get("ELAN_PEER_TRANSPORT", "tcp")

    def spawn(worker_id, *faults):
        job.spawn_worker(
            worker_id, "--peer-transport", peer_transport,
            "--trace", worker_trace_path(worker_id), *faults,
        )

    def wait(what, predicate, timeout):
        # The driver's STATUS polls also redial a successor AM, whose
        # listener counts that reconnect below.
        status = job.wait(predicate, timeout)
        assert predicate(status), f"timed out waiting for {what}: {status}"
        return status

    # w0's 6th AM send dies with its connection, and so does its 5th
    # ring peer send: both transports must reconnect and retransmit
    # without any receiver executing anything twice.
    w0_faults = ["--reset-at", "6", "--peer-reset-at", "5"]
    if shard_owner_kill is not None:
        # ... and, as a shard owner, w0 hard-exits after serving this
        # many shard chunks: a mid-fetch owner death.
        w0_faults += ["--shard-die-after", str(shard_owner_kill)]
    spawn("w0", *w0_faults)
    spawn("w1")
    # The joiners start with the job: a JOIN poll that arrives before
    # the scale-out request is answered "pending", and the first poll
    # after it is the joiner's report, so no process start-up delays
    # the commit.
    spawn("w2")
    spawn("w3")
    killed_worker = None
    try:
        wait("iteration 4", lambda s: s["iteration"] >= 4, 30)
        print(f"  running: {driver.request(MessageType.STATUS)}")

        print("scaling out to 4 worker processes (training continues) ...")
        reply = driver.request(
            MessageType.ADJUSTMENT_REQUEST,
            {"kind": "scale_out", "add": ["w2", "w3"]},
        )
        assert reply.get("accepted"), reply
        status = wait(
            "1 committed adjustment",
            lambda s: s["adjustments_committed"] >= 1, 30,
        )
        print(f"  committed in {status['commit_latencies'][0] * 1e3:.0f} ms: "
              f"group {status['group']}")

        if shard_owner_kill is not None:
            # w0 died mid-fetch while serving shard chunks; the joiners
            # re-planned its shards onto w1/the AM and the lease
            # supervisor must now evict the corpse.
            status = wait(
                "the lease eviction",
                lambda s: s["adjustments_committed"] >= 2, 60,
            )
            print("chaos: shard owner w0 died mid-fetch; lease eviction "
                  f"committed: group {status['group']}")
            assert "w0" not in status["group"], status

        if worker_kill_iter is not None:
            killed_worker = os.environ.get("ELAN_WORKER_KILL", "w3")
            wait(
                f"iteration {worker_kill_iter}",
                lambda s: s["iteration"] >= worker_kill_iter, 60,
            )
            print(f"chaos: SIGKILL {killed_worker} "
                  f"at iteration >= {worker_kill_iter} ...")
            job.kill_worker(killed_worker)
            status = wait(
                "the lease eviction",
                lambda s: s["adjustments_committed"] >= 2, 60,
            )
            print(f"  lease eviction committed: group {status['group']}")
            assert killed_worker not in status["group"], status

        if am_kill_iter is not None:
            wait(
                f"iteration {am_kill_iter}",
                lambda s: s["iteration"] >= am_kill_iter, 60,
            )
            print(f"chaos: killing the AM at iteration >= {am_kill_iter}, "
                  "promoting a journal-replayed successor ...")
            job.fail_over()
            status = driver.request(MessageType.STATUS)
            print(f"  successor serving (epoch {status['epoch']})")
            assert status["epoch"] >= 2, status

        final = wait("completion", lambda s: s["complete"], 90)
        assert job.join(10.0), "worker processes still running"
        assert not job.errors, job.errors
    finally:
        job.close()

    dead = {killed_worker} if killed_worker else set()
    if shard_owner_kill is not None:
        dead.add("w0")
    survivors = 4 - len(dead)
    digests = set(final["digests"].values())
    workers = sorted(final["digests"])
    print(f"final digests from {workers}: "
          f"{'consistent' if len(digests) == 1 else 'DIVERGED'}")
    assert len(final["digests"]) == survivors, final["digests"]
    assert len(digests) == 1, final["digests"]
    expected_commits = 1 + (1 if killed_worker else 0) + (
        1 if shard_owner_kill is not None else 0
    )
    assert final["adjustments_committed"] == expected_commits, final
    if chaos:
        # The successor's listener only sees the post-failover
        # reconnects: every surviving worker plus the control link.
        floor = survivors + 1 if am_kill_iter is not None else 6
    else:
        # 4 workers + the driver's control link is 5 connections; w0's
        # reset forces at least one extra accept.
        floor = 6
    print(f"connections accepted: {job.server.connections_accepted} "
          f"(>= {floor})")
    assert job.server.connections_accepted >= floor

    # The snapshot went through the chunked binary data plane: the
    # uploader streamed it once, both joiners pulled every chunk.
    snap = job.master.metrics.snapshot()
    chunks = snap.get("net.chunks.received", 0)
    print(f"data plane: {chunks} chunks "
          f"({snap.get('net.chunks.bytes_received', 0)} bytes) uploaded, "
          f"{snap.get('net.chunks.served', 0)} chunks served to joiners, "
          f"{job.server.bytes_sent} frame bytes written by the AM")
    if chaos:
        assert snap.get("net.transfers.completed", 0) >= 1
    elif shards:
        # Sharded fan-in: the owners served the chunks peer-side, so
        # the AM streamed nothing beyond the upload it ingested.
        assert snap.get("net.transfers.completed", 0) == 1
    else:
        assert snap.get("net.transfers.completed", 0) == 1
        assert snap.get("net.chunks.served", 0) == 2 * chunks
    assert chunks >= 1

    if shards:
        planned = int(snap.get("net.shards.planned", 0))
        joins = snap.get("net.shards.joins_completed", 0)
        print(f"sharded migration: {planned} shards planned, "
              f"{joins} sharded joins completed")
        # The plan is chunk-aligned, so a snapshot smaller than the
        # owner count clamps to one shard per chunk.
        assert planned >= min(shards, int(chunks)), snap
        assert joins == 2, snap
        # Both joiners fanned in shard-by-shard: their own traces carry
        # one replicate.shard_fetch span per shard they pulled.
        joiner_events = []
        for worker in ("w2", "w3"):
            joiner_events += load_trace_events(worker_trace_path(worker))
        shard_spans = [
            e for e in joiner_events
            if e.get("name") == "replicate.shard_fetch"
        ]
        assert len(shard_spans) >= 2 * planned, len(shard_spans)
        if shard_owner_kill is not None:
            # w0 owned shard 0 and died mid-fetch: at least one joiner
            # must have re-planned that shard onto the surviving owner
            # (or fallen back to the AM).
            replanned = [
                e for e in shard_spans
                if e.get("args", {}).get("shard") == 0
                and e.get("args", {}).get("source") in ("w1", "am")
            ]
            assert replanned, [e.get("args") for e in shard_spans]
            sources = sorted({
                e.get("args", {}).get("source") for e in replanned
            })
            print(f"  shard 0 re-planned off dead owner w0 onto {sources}")

    # The ring took the AM out of the gradient hot path: each original
    # worker only rendezvoused at the AM for the pre-activation,
    # adjustment-boundary, fallback and final-barrier iterations.
    def tally(worker):
        """The result summary ``worker``'s process printed."""
        prefix = f"{worker}: "
        [line] = [
            line for line in job.results[worker].splitlines()
            if line.startswith(prefix)
        ]
        return ast.literal_eval(line[len(prefix):])

    executions = job.master.core.executions
    syncs = {w: executions.get((w, "sync"), 0) for w in workers}
    fallbacks = snap.get("net.sync.ring_fallbacks", 0)
    print(f"AM sync executions per worker: {syncs} over "
          f"{spec.iterations} iterations ({fallbacks} ring fallbacks)")
    for worker in ("w0", "w1"):
        if worker in dead:
            continue
        if shard_owner_kill is not None:
            # The dead owner breaks the ring until its lease eviction
            # commits, so the survivors fall back to AM syncs freely.
            assert syncs[worker] > 0, syncs
            continue
        if am_kill_iter is not None:
            # The successor's dedup table starts empty, so executions
            # only count post-failover syncs — the final barrier at
            # minimum.
            assert syncs[worker] > 0, syncs
        else:
            # Exactly one AM sync per star iteration and per ring
            # fallback of the worker's own tally.  The ring is first
            # handed out in the first boundary's COORDINATE reply, so
            # with no peer lost an original worker's star iterations
            # are the coordination_interval before it, one per commit
            # boundary, and the final barrier.
            mine = tally(worker)
            assert syncs[worker] == (
                mine["star_iterations"] + mine["ring_fallbacks"]
            ), (syncs, mine)
            if not dead:
                assert mine["star_iterations"] == (
                    spec.coordination_interval
                    + final["adjustments_committed"] + 1
                ), mine

    # Every worker's own trace shows both ring phases.
    for worker in workers:
        path = worker_trace_path(worker)
        events = load_trace_events(path)
        assert not validate_events(events)
        names = {event.get("name") for event in events}
        assert "net.allreduce.reduce_scatter" in names, (worker, path)
        assert "net.allreduce.all_gather" in names, (worker, path)
    print(f"worker traces in {trace_dir}: all contain "
          f"net.allreduce.reduce_scatter / all_gather spans")

    events = tracer.to_events()
    problems = validate_events(events)
    print(f"trace: {len(events)} events, "
          f"{'valid' if not problems else problems}")
    assert not problems

    if chaos:
        names = {event.get("name") for event in events}
        if am_kill_iter is not None:
            assert snap.get("am.failover") == 1, snap.get("am.failover")
            assert "am.failover" in names, sorted(names)
            print("failover: am.failover instant present in trace, "
                  f"journal at {journal_path}")
        if killed_worker:
            detect = snap.get("failure.detection_latency_seconds")
            mttr = snap.get("failure.mttr_seconds")
            assert detect and detect["count"] >= 1, detect
            assert mttr and mttr["count"] >= 1, mttr
            print(f"recovery: detected {killed_worker} in "
                  f"{detect['mean']:.3f}s, repaired in {mttr['mean']:.3f}s")
        if shard_owner_kill is not None:
            detect = snap.get("failure.detection_latency_seconds")
            assert detect and detect["count"] >= 1, detect
            print(f"recovery: dead shard owner w0 lease-detected in "
                  f"{detect['mean']:.3f}s")

    if spec.telemetry_interval > 0:
        # Every surviving worker shipped its registry and trace buffer
        # live; the fleet collector must hold them all — including after
        # an AM failover, where the successor's collector started empty
        # and was rebuilt from the workers' full re-ships.
        fleet = job.master.fleet
        shipped = fleet.workers()
        print(f"telemetry: collector holds {shipped} "
              f"({'successor rebuilt from re-ships' if am_kill_iter else 'live'})")
        for worker in workers:
            if worker != killed_worker:
                assert worker in shipped, (worker, shipped)
                assert fleet.worker_events(worker), worker
                assert fleet.worker_metrics(worker), worker
        # After a failover this reads the *successor's* collector, which
        # the surviving workers repopulated with full re-ships at
        # re-enrollment.
        reports = fleet.report(
            am_events=tracer.to_events(), am_metrics=snap,
        )
        assert "fleet" in reports
        fleet_rep = reports["fleet"]
        assert fleet_rep.goodput > 0, fleet_rep.format()
        assert fleet_rep.iterations > 0, fleet_rep.format()
        print("fleet goodput report (live, from shipped telemetry):")
        print("  " + fleet_rep.format().replace("\n", "\n  "))

        fleet_trace = os.environ.get("ELAN_FLEET_TRACE")
        if fleet_trace:
            count = write_trace_events(
                fleet_trace, fleet.merged_events(am_events=tracer.to_events())
            )
            merged = load_trace_events(fleet_trace)
            assert not validate_events(merged), fleet_trace
            processes = {
                e["args"]["name"] for e in merged
                if e.get("ph") == "M" and e.get("name") == "process_name"
            }
            for worker in workers:
                if worker != killed_worker:
                    assert worker in processes, (worker, processes)
            if shards:
                merged_names = {e.get("name") for e in merged}
                assert "replicate.shard_fetch" in merged_names, fleet_trace
            print(f"merged fleet trace ({count} events, processes "
                  f"{sorted(processes)}) -> {fleet_trace}")

    metrics_path = os.environ.get("ELAN_METRICS")
    if metrics_path:
        with open(metrics_path, "w") as f:
            json.dump(job.master.metrics.snapshot(), f,
                      indent=2, sort_keys=True)
        print(f"AM metric registry -> {metrics_path}")

    trace_path = os.environ.get("ELAN_TRACE")
    if trace_path:
        tracer.export(trace_path)
        print(f"trace exported -> {trace_path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
