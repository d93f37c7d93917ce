"""Command-line interface to the Elan reproduction.

Subcommands (also installed as the ``repro-elan`` console script)::

    python -m repro.cli models                          # Table I
    python -m repro.cli scaling --model ResNet-50       # Figs. 3/4 curves
    python -m repro.cli adjust --kind scale_out --old-workers 8 --new-workers 16
    python -m repro.cli elastic-training                # Fig. 18/19, Table IV
    python -m repro.cli schedule --policy e-fifo        # §VI-C metrics
    python -m repro.cli demo                            # live elastic job
    python -m repro.cli demo --trace trace.json         # ... and its trace
    python -m repro.cli scenario examples/scenarios/soak.json  # chaos soak
    python -m repro.cli cluster scenario --transport both   # multi-job churn
"""

from __future__ import annotations

import argparse
import sys
import typing


def _print_table(headers, rows, widths):
    line = "  ".join(str(h).ljust(w) for h, w in zip(headers, widths))
    print(line)
    print("-" * len(line))
    for row in rows:
        print("  ".join(str(c).ljust(w) for c, w in zip(row, widths)))


def cmd_models(_args) -> int:
    """Print Table I."""
    from .perfmodel import MODEL_ZOO

    rows = [
        (s.name, s.family, s.domain, f"{s.parameters / 1e6:.0f}M", s.dataset)
        for s in MODEL_ZOO.values()
    ]
    _print_table(("Model", "Type", "Domain", "#Params", "Dataset"),
                 rows, (14, 10, 7, 8, 10))
    return 0


def cmd_scaling(args) -> int:
    """Print strong- and weak-scaling curves for one model."""
    from .perfmodel import ThroughputModel, get_model
    from .perfmodel.throughput import EVAL_CLUSTER, PAPER_CLUSTER

    cluster = EVAL_CLUSTER if args.cluster == "eval" else PAPER_CLUSTER
    model = ThroughputModel(get_model(args.model), cluster)
    workers = [1, 2, 4, 8, 16, 32, 64, 128]
    print(f"strong scaling ({args.model}, {args.cluster} cluster), samples/s:")
    rows = []
    for batch in (256, 512, 1024, 2048):
        curve = dict(model.strong_scaling_curve(batch, workers))
        rows.append((batch,) + tuple(
            f"{curve[n]:.0f}" if n in curve else "-" for n in workers
        ))
    _print_table(("TBS",) + tuple(workers), rows, (6,) + (8,) * len(workers))
    print("\nweak scaling, samples/s:")
    rows = []
    for batch in (16, 32, 64):
        curve = dict(model.weak_scaling_curve(batch, workers))
        rows.append((batch,) + tuple(f"{curve[n]:.0f}" for n in workers))
    _print_table(("b/wkr",) + tuple(workers), rows, (6,) + (8,) * len(workers))
    print(f"\noptimal workers: "
          + ", ".join(f"TBS {b}: {model.optimal_workers(b)}"
                      for b in (256, 512, 1024, 2048)))
    return 0


def cmd_adjust(args) -> int:
    """Compare Elan vs S&R for one resource adjustment."""
    from .baselines import ElanAdjustmentModel, ShutdownRestartModel
    from .perfmodel import get_model

    model = get_model(args.model)
    elan = ElanAdjustmentModel(seed=args.seed).adjustment_time(
        args.kind, model, args.old_workers, args.new_workers
    )
    sr = ShutdownRestartModel(seed=args.seed).adjustment_time(
        args.kind, model, args.old_workers, args.new_workers
    )
    print(f"{args.kind} {args.old_workers} -> {args.new_workers} "
          f"({model.name}):")
    for timing, label in ((elan, "Elan"), (sr, "S&R")):
        phases = ", ".join(f"{k}={v:.2f}s" for k, v in timing.phases.items())
        print(f"  {label:5s} total {timing.total:6.2f}s  ({phases})")
    print(f"  speedup: {sr.total / elan.total:.1f}x")
    return 0


def cmd_elastic_training(_args) -> int:
    """Replay the §VI-B experiment (Fig. 18/19, Table IV)."""
    from .core import ElasticTrainingExperiment

    experiment = ElasticTrainingExperiment(seed=0)
    static, fixed, elastic = experiment.all_configurations()
    rows = [
        (run.label, f"{run.total_time:.0f}s", f"{run.final_accuracy:.2%}",
         str([p.workers for p in run.phases]))
        for run in (static, fixed, elastic)
    ]
    _print_table(("Config", "Total", "Final top-1", "Workers"),
                 rows, (22, 9, 12, 14))
    print("\ntime to solution:")
    rows = []
    for target in (0.745, 0.75, 0.755):
        ts = static.time_to_accuracy(target)
        te = elastic.time_to_accuracy(target)
        rows.append((f"{target:.1%}", f"{ts:.0f}s", f"{te:.0f}s",
                     f"{ts / te:.3f}x"))
    _print_table(("Target", "Static", "Elastic", "Speedup"),
                 rows, (8, 10, 10, 9))
    return 0


def cmd_schedule(args) -> int:
    """Run the scheduling simulation under one policy."""
    from .scheduling import (
        POLICIES,
        ClusterSimulator,
        ElanCosts,
        IdealCosts,
        ShutdownRestartCosts,
        generate_trace,
    )

    costs = {
        "ideal": IdealCosts,
        "elan": ElanCosts,
        "sr": ShutdownRestartCosts,
    }
    trace = generate_trace(num_jobs=args.jobs, seed=args.seed)
    result = ClusterSimulator(
        trace, POLICIES[args.policy](), total_gpus=args.gpus,
        costs=costs[args.system](),
    ).run()
    print(f"policy={args.policy} system={args.system} jobs={len(trace)} "
          f"gpus={args.gpus} seed={args.seed}")
    print(f"  average JPT : {result.average_jpt:10.0f} s")
    print(f"  average JCT : {result.average_jct:10.0f} s")
    print(f"  makespan    : {result.makespan:10.0f} s")
    print(f"  utilization : {result.average_utilization():10.0%}")
    print(f"  adjustments : {result.adjustments:10d}")
    return 0


def cmd_trace(args) -> int:
    """Generate a trace and save it, or summarize a saved one."""
    from .scheduling import generate_trace, load_trace, save_trace

    if args.load:
        jobs = load_trace(args.load)
        source = args.load
    else:
        jobs = generate_trace(num_jobs=args.jobs, seed=args.seed)
        source = f"generated (seed={args.seed})"
        if args.save:
            save_trace(jobs, args.save)
            print(f"saved {len(jobs)} jobs to {args.save}")
    requested = sum(j.req_res for j in jobs)
    print(f"trace: {len(jobs)} jobs, {source}")
    print(f"  span          : {jobs[-1].submit_time - jobs[0].submit_time:,.0f} s")
    print(f"  total req_res : {requested} workers")
    print(f"  models        : "
          + ", ".join(sorted({j.model.name for j in jobs})))
    return 0


def cmd_capacity(args) -> int:
    """Capacity planning: GPUs needed to hit a JCT target."""
    from .scheduling import (
        ElasticFifoPolicy,
        FifoPolicy,
        capacity_sweep,
        elasticity_hardware_savings,
        generate_trace,
    )

    trace = generate_trace(num_jobs=args.jobs, seed=args.seed)
    sizes = [int(s) for s in args.gpus.split(",")]
    print(f"sweep over {sizes} GPUs ({len(trace)} jobs, seed {args.seed}):")
    rows = []
    for point in capacity_sweep(trace, FifoPolicy(), sizes):
        rows.append(("fifo", point.gpus, f"{point.average_jct:.0f}",
                     f"{point.utilization:.0%}"))
    for point in capacity_sweep(trace, ElasticFifoPolicy(), sizes):
        rows.append(("e-fifo", point.gpus, f"{point.average_jct:.0f}",
                     f"{point.utilization:.0%}"))
    _print_table(("Policy", "GPUs", "Avg JCT (s)", "Util"),
                 rows, (8, 6, 12, 6))
    if args.jct_target:
        savings = elasticity_hardware_savings(
            trace, FifoPolicy(), ElasticFifoPolicy(),
            args.jct_target, sizes,
        )
        print(f"\nGPUs needed for JCT <= {args.jct_target:.0f}s: "
              f"fifo={savings['fifo']}, e-fifo={savings['e-fifo']}")
    return 0


def cmd_tracing(args) -> int:
    """Summarize or validate traces; inspect metric dumps."""
    from .observability import (
        load_trace_events,
        summarize_events,
        summarize_point_events,
        validate_events,
    )

    if args.action == "metrics":
        import json

        with open(args.path) as f:
            snapshot = json.load(f)
        rows = []
        for name, value in sorted(snapshot.items()):
            if isinstance(value, dict):  # histogram stats
                for key in ("count", "mean", "p50", "p99", "max"):
                    if value.get(key) is not None:
                        rows.append((f"{name}.{key}", f"{value[key]:.6g}"))
            else:
                rows.append((name, f"{value:.6g}"))
        _print_table(("Metric", "Value"), rows, (36, 14))
        return 0

    events = load_trace_events(args.path)
    if args.action == "validate":
        problems = validate_events(events)
        if problems:
            for problem in problems:
                print(f"INVALID: {problem}")
            return 1
        print(f"OK: {len(events)} events, Chrome trace-event format")
        return 0

    # summarize
    rows = [
        (name, count, f"{total:.4f}", f"{mean * 1e3:.3f}", f"{peak * 1e3:.3f}")
        for name, count, total, mean, peak in summarize_events(events)
    ]
    _print_table(
        ("Span", "Count", "Total (s)", "Mean (ms)", "Max (ms)"),
        rows, (24, 7, 11, 11, 11),
    )
    instants, counters = summarize_point_events(events)
    if instants:
        print()
        rows = [
            (name, count,
             ", ".join(f"{t}={n}" for t, n in sorted(per_track.items())))
            for name, count, per_track in instants
        ]
        _print_table(("Instant", "Count", "Per track"), rows, (24, 7, 36))
    if counters:
        print()
        rows = [
            (name, samples,
             f"{last:.6g}" if isinstance(last, (int, float)) else "-",
             ", ".join(f"{t}={n}" for t, n in sorted(per_track.items())))
            for name, samples, last, per_track in counters
        ]
        _print_table(("Counter", "Samples", "Last", "Per track"),
                     rows, (24, 8, 10, 28))
    return 0


def _fleet_query(connect: str, ack_timeout: float) -> tuple:
    """One TELEMETRY query round against a live AM at ``host:port``:
    its fleet collector, rebuilt, and the reply (``am_events``,
    ``am_metrics``, ``am_registry``, ``epoch``)."""
    from .coordination.messages import MessageType
    from .net import tcp_link
    from .observability import FleetCollector

    host, _, port = connect.rpartition(":")
    if not port.isdigit():
        raise ValueError(f"malformed --connect {connect!r} (host:port)")
    link, _transport = tcp_link(
        host or "127.0.0.1", int(port), "fleet-cli", ack_timeout=ack_timeout
    )
    try:
        reply = link.request(MessageType.TELEMETRY, {"query": "fleet"})
    finally:
        link.close()
    return FleetCollector.from_payload(reply.get("fleet") or {}), reply


def cmd_fleet(args) -> int:
    """Fleet-level observability: goodput reports, merged traces, metrics.

    Sources are either per-process trace files (positional paths) or a
    live AM queried over TCP (``--connect host:port``) whose fleet
    collector was fed by the workers' telemetry shippers.
    """
    from .observability import (
        SLOViolation,
        TraceMerger,
        derive_report,
        load_trace_events,
        merge_metric_snapshots,
        prometheus_text,
        write_trace_events,
    )

    def merged_from_paths(paths):
        merger = TraceMerger()
        for path in paths:
            merger.add(load_trace_events(path))
        return merger.merge()

    def gate(report) -> bool:
        if args.goodput_floor is None and args.mttr_ceiling is None:
            return True
        try:
            report.assert_slo(
                goodput_floor=(
                    0.0 if args.goodput_floor is None else args.goodput_floor
                ),
                mttr_ceiling=(
                    float("inf") if args.mttr_ceiling is None
                    else args.mttr_ceiling
                ),
            )
        except SLOViolation as violation:
            print(f"SLO violation: {violation}", file=sys.stderr)
            return False
        return True

    if args.action == "report":
        if args.connect:
            collector, reply = _fleet_query(args.connect, args.ack_timeout)
            reports = collector.report(
                am_events=reply.get("am_events"),
                am_metrics=reply.get("am_metrics"),
                am_registry=reply.get("am_registry"),
            )
            print(f"workers: {', '.join(collector.workers()) or '-'}")
        elif args.paths:
            reports = {
                "fleet": derive_report(merged_from_paths(args.paths),
                                       job="fleet"),
            }
        else:
            print("fleet report needs trace files or --connect",
                  file=sys.stderr)
            return 2
        ok = True
        for name, report in reports.items():
            print(report.format())
            print()
            if name == "fleet":
                ok = gate(report) and ok
        return 0 if ok else 1

    if args.action == "export":
        if not args.out:
            print("fleet export needs --out", file=sys.stderr)
            return 2
        if args.connect:
            collector, reply = _fleet_query(args.connect, args.ack_timeout)
            events = collector.merged_events(
                am_events=reply.get("am_events")
            )
        elif args.paths:
            events = merged_from_paths(args.paths)
        else:
            print("fleet export needs trace files or --connect",
                  file=sys.stderr)
            return 2
        write_trace_events(args.out, events)
        print(f"wrote {len(events)} merged fleet events to {args.out}")
        return 0

    # prom: Prometheus-style text exposition of the fleet metric rollup.
    if args.connect:
        collector, reply = _fleet_query(args.connect, args.ack_timeout)
        rollup = collector.rollup(
            reply.get("am_metrics"), reply.get("am_registry")
        )
    elif args.paths:
        import json

        snapshots = []
        for path in args.paths:
            with open(path) as f:
                snapshots.append(json.load(f))
        rollup = merge_metric_snapshots(snapshots)
    else:
        print("fleet prom needs metric JSON files or --connect",
              file=sys.stderr)
        return 2
    text = prometheus_text(rollup)
    if args.out:
        with open(args.out, "w") as f:
            f.write(text)
        print(f"wrote {len(text.splitlines())} exposition lines to "
              f"{args.out}")
    else:
        print(text, end="")
    return 0


def cmd_demo(args) -> int:
    """Run a short live elastic-training demo: weak scale-out 2 -> 4."""
    from .core import ElasticJob
    from .core.hybrid_scaling import ScalingSpec
    from .observability import Tracer

    tracer = Tracer(process="elan-live") if args.trace else None
    with ElasticJob(
        workers=2, train_size=1024, test_size=256, total_batch_size=64,
        base_lr=0.02, seed=args.seed, iterations=60, iteration_sleep=0.005,
        scaling=ScalingSpec("weak", ramp_iterations=10), tracer=tracer,
    ) as job:
        job.wait_until_iteration(20)
        print(f"running: {job.status()}")
        job.scale_out(2)
        job.wait_for_adjustments(1)
        print(f"scaled out: {job.status()}")
    for adjustment in job.history:
        print(
            f"committed at iteration {adjustment.commit_iteration}: "
            f"group {adjustment.group}, batch {adjustment.total_batch_size} "
            f"({adjustment.strategy}), lr ramps to "
            f"{adjustment.schedule.lr_ramp.target_lr:.3f}"
        )
    consistent = len(set(job.digests().values())) == 1
    print(f"replicas consistent: {consistent}; accuracy {job.evaluate():.3f}")
    if tracer is not None:
        tracer.export(args.trace)
        print(f"wrote {len(tracer.to_events())} events to {args.trace}; "
              "open in https://ui.perfetto.dev or chrome://tracing")
    return 0 if consistent else 1


def cmd_serve(args) -> int:
    """Host a networked AM over loopback TCP until the job completes."""
    from .net import JobSpec, Journal, NetworkedApplicationMaster
    from .observability import Tracer

    spec = JobSpec(
        train_size=args.train_size,
        total_batch_size=args.batch,
        base_lr=args.lr,
        seed=args.seed,
        iterations=args.iterations,
        coordination_interval=args.interval,
        ring_enabled=not args.no_ring,
        worker_lease_ttl=args.lease_ttl,
        telemetry_interval=args.telemetry_interval,
        replication_shards=args.shards,
    )
    workers = [f"w{i}" for i in range(args.workers)]
    tracer = Tracer(process="elan-net") if args.trace else None
    journal = Journal(args.journal) if args.journal else None
    if args.resume:
        if journal is None:
            print("--resume requires --journal", file=sys.stderr)
            return 2
        master = NetworkedApplicationMaster.from_journal(
            journal, tracer=tracer
        )
        print(f"resumed from {args.journal} "
              f"(epoch {master.epoch}, generation "
              f"{master.status()['generation']})", flush=True)
    else:
        master = NetworkedApplicationMaster(
            spec, workers, tracer=tracer, journal=journal
        )
    server = master.serve_tcp(host=args.host, port=args.port)
    print(f"serving job on {server.host}:{server.port} "
          f"(workers: {', '.join(workers)})", flush=True)
    try:
        completed = master.wait_complete(timeout=args.timeout)
    finally:
        master.close()
    status = master.status()
    print(f"final status: {status}")
    if args.trace and tracer is not None:
        tracer.export(args.trace)
        print(f"wrote {len(tracer.to_events())} events to {args.trace}")
    if not completed:
        print("job did not complete before the timeout", file=sys.stderr)
        return 1
    digests = set(status["digests"].values())
    return 0 if len(digests) == 1 else 1


def cmd_join(args) -> int:
    """Run one worker agent against a serving AM."""
    from .coordination.faults import FaultPlan
    from .net import ShmPeerHost, TcpPeerHost, WorkerAgent, tcp_link
    from .observability import MetricRegistry, Tracer

    plan = FaultPlan.for_link(resets=tuple(args.reset_at or ()))
    peer_plan = FaultPlan.for_link(resets=tuple(args.peer_reset_at or ()))
    # Always record: the AM's spec may turn on live telemetry shipping,
    # which needs a tracer/registry to ship from.  The local trace file
    # is still only written when --trace asks for it.
    tracer = Tracer(process=f"worker-{args.worker}")
    metrics = MetricRegistry()
    if args.no_ring:
        peer_host = None
    elif args.peer_transport == "shm":
        # ShmPeerHost.connect falls back to TCP for any tcp:// peer
        # address it meets in the ring, so remote peers in a mixed ring
        # still work.
        peer_host = ShmPeerHost()
    else:
        peer_host = TcpPeerHost(host=args.host)
    endpoints = [(args.host, args.port)]
    for endpoint in args.am_endpoint or ():
        host, _, port = endpoint.rpartition(":")
        if not host or not port.isdigit():
            print(f"malformed --am-endpoint {endpoint!r} "
                  "(expected host:port)", file=sys.stderr)
            return 2
        endpoints.append((host, int(port)))
    link, _transport = tcp_link(
        args.host, args.port, args.worker,
        fault_plan=plan, ack_timeout=args.ack_timeout, tracer=tracer,
        metrics=metrics,
        endpoints=endpoints if len(endpoints) > 1 else None,
        connect_attempts=args.connect_attempts,
    )
    agent = WorkerAgent(
        args.worker, link, tracer=tracer, metrics=metrics,
        peer_host=peer_host, peer_fault_plan=peer_plan,
        shard_die_after=args.shard_die_after,
    )
    try:
        result = agent.run()
    finally:
        link.close()
        if peer_host is not None:
            peer_host.close()
        if args.trace:
            tracer.export(args.trace)
        if args.metrics_out:
            import json

            with open(args.metrics_out, "w") as f:
                json.dump(metrics.snapshot(), f, indent=2, sort_keys=True)
    print(f"{args.worker}: {result}")
    return 0


def cmd_scenario(args) -> int:
    """Run a scenario file on LocalJob and check every expectation."""
    import os

    from .net.scenario import Scenario, run

    try:
        scenario = Scenario.load(args.file)
    except (OSError, ValueError) as exc:  # ScenarioError, bad JSON
        print(f"scenario {args.file}: {exc}", file=sys.stderr)
        return 2
    # A failed check raises (AssertionError, SLOViolation): its
    # traceback and exit status 1 are the verdict.
    runs = run(scenario, args.out or os.path.join("scenario-out",
                                                   scenario.name))
    for transport, outcome in runs.items():
        print(f"[{scenario.name} over {transport}]")
        print(outcome.report.format())
    print(f"scenario {scenario.name} ok (goodput >= "
          f"{scenario.goodput_floor:.2f}, MTTR <= "
          f"{scenario.mttr_ceiling:.1f}s)")
    return 0


def cmd_cluster(args) -> int:
    """Multi-tenant cluster scheduler: serve it, drive it, or drill it."""
    from .coordination.messages import MessageType

    if args.action == "scenario":
        from .cluster import run_churn_scenario
        from .observability import SLOViolation

        transports = (
            ("memory", "tcp") if args.transport == "both"
            else (args.transport,)
        )
        reports, ok = {}, True
        for transport in transports:
            trace_path = args.trace
            if trace_path and len(transports) > 1:
                root, dot, ext = trace_path.rpartition(".")
                trace_path = f"{root}.{transport}{dot}{ext}" if dot else (
                    f"{trace_path}.{transport}"
                )
            report = run_churn_scenario(
                transport, iterations=args.iterations,
                iteration_sleep=args.sleep, seed=args.seed,
                policy=args.policy, timeout=args.timeout,
                trace_path=trace_path,
            )
            reports[transport] = report
            print(report.format())
            if trace_path:
                print(f"wrote trace to {trace_path}")
            try:
                report.assert_slo(
                    makespan_ceiling=args.makespan_ceiling,
                    queueing_delay_ceiling=args.queue_ceiling,
                    goodput_floor=args.goodput_floor,
                )
                print(f"SLO ok (makespan <= {args.makespan_ceiling:.0f}s, "
                      f"queueing <= {args.queue_ceiling:.0f}s, "
                      f"goodput >= {args.goodput_floor:.2f})")
            except SLOViolation as violation:
                print(f"SLO violation: {violation}", file=sys.stderr)
                ok = False
            print()
        if len(reports) == 2:
            if reports["memory"].digests == reports["tcp"].digests:
                print("digests bit-identical across transports")
            else:
                print("DIGEST MISMATCH across transports", file=sys.stderr)
                ok = False
        return 0 if ok else 1

    if args.action == "serve":
        from .cluster import (
            CLUSTER_RECORD_KINDS,
            ClusterScheduler,
            ElasticJobRunner,
        )
        from .net.journal import Journal
        from .observability import MetricRegistry, Tracer

        tracer = Tracer(process="cluster") if args.trace else None
        metrics = MetricRegistry()
        journal = (
            Journal(args.journal, kinds=CLUSTER_RECORD_KINDS)
            if args.journal else None
        )

        def factory(request, scheduler):
            return ElasticJobRunner(
                request, transport="tcp", tracer=tracer, metrics=metrics,
            )

        scheduler = ClusterScheduler(
            args.policy, args.gpus, runner_factory=factory,
            journal=journal, tracer=tracer, metrics=metrics,
        )
        server = scheduler.serve_tcp(host=args.host, port=args.port)
        print(f"cluster scheduler ({args.policy}, {args.gpus} GPUs) "
              f"on {server.host}:{server.port}", flush=True)
        try:
            scheduler.serve_forever(
                interval=args.interval, deadline=args.deadline
            )
        except KeyboardInterrupt:
            pass
        finally:
            scheduler.close()
            if args.trace and tracer is not None:
                tracer.export(args.trace)
                print(f"wrote trace to {args.trace}")
        return 0

    # submit / status drive a live scheduler over TCP.
    from .net import tcp_link

    link, _transport = tcp_link(
        args.host, args.port, "cluster-cli", ack_timeout=args.ack_timeout
    )
    try:
        if args.action == "submit":
            from .cluster import JobRequest

            if not args.job:
                print("cluster submit needs --job", file=sys.stderr)
                return 2
            request = JobRequest(
                job_id=args.job, iterations=args.iterations,
                priority=args.priority, min_res=args.min_res,
                req_res=args.req_res, max_res=args.max_res,
                seed=args.seed, iteration_sleep=args.sleep,
            )
            reply = link.request(
                MessageType.SUBMIT, {"job": request.to_payload()}
            )
            accepted = reply.get("accepted")
            print(f"{args.job}: "
                  + ("accepted" if accepted
                     else f"rejected ({reply.get('reason')})"))
            return 0 if accepted else 1

        if args.job:
            offer = link.request(MessageType.OFFER, {"job_id": args.job})
            print("  ".join(f"{k}={v}" for k, v in sorted(offer.items())))
            return 0

        tables = link.request(MessageType.JOB_STATUS)
        print(f"policy={tables['policy']} epoch={tables['epoch']} "
              f"capacity={tables['capacity']} busy={tables['busy']} "
              f"preemptions={tables['preemptions']}")
        if tables["running"]:
            print("\nrunning:")
            _print_table(
                ("Job", "Workers", "Priority", "Iteration"),
                [(r["job_id"], r["workers"], r["priority"], r["iteration"])
                 for r in tables["running"]],
                (14, 8, 9, 10),
            )
        if tables["queue"]:
            print("\nqueued:")
            _print_table(
                ("Job", "Priority", "Min", "Max", "Preempts", "Waiting (s)"),
                [(q["job_id"], q["priority"], q["min"], q["max"],
                  q["preemptions"], q["queued_for"])
                 for q in tables["queue"]],
                (14, 9, 4, 4, 9, 12),
            )
        if tables["completed"]:
            print("\ncompleted:")
            _print_table(
                ("Job", "JCT (s)", "Preempts", "Digest"),
                [(c["job_id"],
                  "-" if c["jct"] is None else f"{c['jct']:.2f}",
                  c["preemptions"], c["digest"])
                 for c in tables["completed"]],
                (14, 9, 9, 34),
            )
        return 0
    finally:
        link.close()


def build_parser() -> argparse.ArgumentParser:
    """Construct the CLI argument parser."""
    from .scheduling import POLICIES

    parser = argparse.ArgumentParser(
        prog="repro-elan",
        description="Reproduction of Elan (ICDCS 2020): elastic DL training.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("models", help="print the Table I model zoo")

    scaling = sub.add_parser("scaling", help="strong/weak scaling curves")
    scaling.add_argument("--model", default="ResNet-50")
    scaling.add_argument("--cluster", choices=("paper", "eval"),
                         default="paper")

    adjust = sub.add_parser("adjust", help="Elan vs S&R adjustment timing")
    adjust.add_argument("--kind", default="scale_out",
                        choices=("scale_out", "scale_in", "migration"))
    adjust.add_argument("--model", default="ResNet-50")
    adjust.add_argument("--old-workers", type=int, default=8)
    adjust.add_argument("--new-workers", type=int, default=16)
    adjust.add_argument("--seed", type=int, default=0)

    sub.add_parser("elastic-training",
                   help="the §VI-B experiment (Table IV)")

    schedule = sub.add_parser("schedule", help="scheduling simulation")
    schedule.add_argument("--policy", default="e-fifo", choices=POLICIES)
    schedule.add_argument("--system", default="elan",
                          choices=("ideal", "elan", "sr"))
    schedule.add_argument("--jobs", type=int, default=210)
    schedule.add_argument("--gpus", type=int, default=128)
    schedule.add_argument("--seed", type=int, default=0)

    trace = sub.add_parser("trace", help="generate/save/summarize traces")
    trace.add_argument("--jobs", type=int, default=210)
    trace.add_argument("--seed", type=int, default=0)
    trace.add_argument("--save", help="write the generated trace here")
    trace.add_argument("--load", help="summarize this saved trace instead")

    capacity = sub.add_parser("capacity", help="capacity-planning sweep")
    capacity.add_argument("--jobs", type=int, default=60)
    capacity.add_argument("--seed", type=int, default=0)
    capacity.add_argument("--gpus", default="64,96,128,160",
                          help="comma-separated cluster sizes")
    capacity.add_argument("--jct-target", type=float, default=None)

    tracing = sub.add_parser(
        "tracing", help="summarize/validate Chrome trace files"
    )
    tracing.add_argument("action", choices=("summarize", "validate", "metrics"))
    tracing.add_argument(
        "path",
        help="trace file to read; metric-registry snapshot JSON for the "
             "metrics action",
    )

    fleet = sub.add_parser(
        "fleet",
        help="fleet observability: goodput reports, merged traces, "
             "Prometheus exposition",
    )
    fleet.add_argument("action", choices=("report", "export", "prom"))
    fleet.add_argument(
        "paths", nargs="*",
        help="per-process trace files (report/export) or metric-registry "
             "snapshot JSON files (prom)",
    )
    fleet.add_argument("--connect",
                       help="query a live AM at host:port instead of "
                            "reading files")
    fleet.add_argument("--out", help="output file (export: merged trace; "
                                     "prom: exposition text)")
    fleet.add_argument("--goodput-floor", type=float, default=None,
                       help="exit 1 unless fleet goodput >= this")
    fleet.add_argument("--mttr-ceiling", type=float, default=None,
                       help="exit 1 if fleet max MTTR exceeds this")
    fleet.add_argument("--ack-timeout", type=float, default=2.0)

    demo = sub.add_parser("demo", help="live elastic-training demo")
    demo.add_argument("--seed", type=int, default=0)
    demo.add_argument("--trace", help="export the run's Chrome trace here")

    serve = sub.add_parser(
        "serve", help="host a networked AM for a multi-process job"
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=0)
    serve.add_argument("--workers", type=int, default=2)
    serve.add_argument("--iterations", type=int, default=24)
    serve.add_argument("--train-size", type=int, default=512)
    serve.add_argument("--batch", type=int, default=32)
    serve.add_argument("--lr", type=float, default=0.05)
    serve.add_argument("--seed", type=int, default=7)
    serve.add_argument("--interval", type=int, default=4,
                       help="coordination interval (iterations)")
    serve.add_argument("--timeout", type=float, default=120.0)
    serve.add_argument("--trace", help="export a Chrome trace here")
    serve.add_argument("--no-ring", action="store_true",
                       help="disable the ring gradient plane (star only)")
    serve.add_argument("--journal",
                       help="write-ahead journal file (enables failover)")
    serve.add_argument("--lease-ttl", type=float, default=0.0,
                       help="worker heartbeat lease TTL in seconds "
                            "(0 disables lease eviction)")
    serve.add_argument("--resume", action="store_true",
                       help="recover a crashed AM from --journal instead "
                            "of starting a fresh job")
    serve.add_argument("--telemetry-interval", type=float, default=0.0,
                       help="workers ship metric/trace deltas this often "
                            "in seconds (0 disables; rides the join "
                            "reply, so no worker flag is needed)")
    serve.add_argument("--shards", type=int, default=0,
                       help="shard owners per adjustment: joiners fan in "
                            "shard slices from this many survivors over "
                            "the peer mesh (0 = AM-served fan-out)")

    join = sub.add_parser(
        "join", help="run one worker agent against a serving AM"
    )
    join.add_argument("--host", default="127.0.0.1")
    join.add_argument("--port", type=int, required=True)
    join.add_argument("--worker", required=True, help="this worker's id")
    join.add_argument("--ack-timeout", type=float, default=1.0)
    join.add_argument("--reset-at", type=int, action="append",
                      help="reset the connection at this send index "
                           "(repeatable)")
    join.add_argument("--no-ring", action="store_true",
                      help="do not serve a peer endpoint (star plane only)")
    join.add_argument("--peer-transport", choices=("tcp", "shm"),
                      default="tcp",
                      help="peer mesh transport for the ring plane (shm "
                           "serves a shared-memory endpoint and falls "
                           "back to TCP for remote peers)")
    join.add_argument("--peer-reset-at", type=int, action="append",
                      help="reset the ring peer links at this send index "
                           "(repeatable)")
    join.add_argument("--trace", help="export this worker's Chrome trace "
                                      "here")
    join.add_argument("--metrics-out",
                      help="dump this worker's metric-registry snapshot "
                           "(JSON, tracing metrics readable) here")
    join.add_argument("--am-endpoint", action="append",
                      help="extra AM endpoint as host:port, tried when the "
                           "primary is unreachable (repeatable)")
    join.add_argument("--connect-attempts", type=int, default=5,
                      help="dial attempts across all AM endpoints before "
                           "giving up")
    join.add_argument("--shard-die-after", type=int, default=None,
                      help="hard-exit (code 9) after serving this many "
                           "shard chunks from the peer endpoint — a shard "
                           "owner dying mid-fetch (chaos)")

    scenario = sub.add_parser(
        "scenario", help="run a scenario file (examples/scenarios/) and "
                         "check its expectations"
    )
    scenario.add_argument("file", help="scenario JSON file")
    scenario.add_argument("--out", help="artifact directory (default "
                                        "scenario-out/<name>)")

    cluster = sub.add_parser(
        "cluster",
        help="multi-tenant cluster scheduler: serve, submit, status, "
             "or run the deterministic churn scenario",
    )
    cluster.add_argument("action",
                         choices=("serve", "submit", "status", "scenario"))
    cluster.add_argument("--host", default="127.0.0.1")
    cluster.add_argument("--port", type=int, default=0,
                         help="serve: listen port (0 = ephemeral); "
                              "submit/status: the scheduler's port")
    cluster.add_argument("--policy", default="e-priority", choices=POLICIES)
    cluster.add_argument("--gpus", type=int, default=8,
                         help="serve: GPU inventory the scheduler owns")
    cluster.add_argument("--journal",
                         help="serve: decision journal file (enables "
                              "scheduler failover)")
    cluster.add_argument("--interval", type=float, default=0.1,
                         help="serve: seconds between scheduling passes")
    cluster.add_argument("--deadline", type=float, default=None,
                         help="serve: stop after this many seconds")
    cluster.add_argument("--job", help="submit: job id (required); "
                                       "status: show this one job")
    cluster.add_argument("--iterations", type=int, default=24)
    cluster.add_argument("--sleep", type=float, default=0.05,
                         help="per-iteration sleep (pacing)")
    cluster.add_argument("--priority", type=int, default=0)
    cluster.add_argument("--min-res", type=int, default=1)
    cluster.add_argument("--req-res", type=int, default=1)
    cluster.add_argument("--max-res", type=int, default=2)
    cluster.add_argument("--seed", type=int, default=7)
    cluster.add_argument("--ack-timeout", type=float, default=2.0)
    cluster.add_argument("--transport", choices=("memory", "tcp", "both"),
                         default="memory",
                         help="scenario: which transport(s) to drill")
    cluster.add_argument("--timeout", type=float, default=120.0,
                         help="scenario: per-transport wall-clock budget")
    cluster.add_argument("--makespan-ceiling", type=float, default=60.0)
    cluster.add_argument("--queue-ceiling", type=float, default=10.0)
    cluster.add_argument("--goodput-floor", type=float, default=0.02)
    cluster.add_argument("--trace", help="export a Chrome trace here "
                                         "(scenario/serve)")
    return parser


_HANDLERS = {
    "models": cmd_models,
    "scaling": cmd_scaling,
    "adjust": cmd_adjust,
    "elastic-training": cmd_elastic_training,
    "schedule": cmd_schedule,
    "trace": cmd_trace,
    "capacity": cmd_capacity,
    "tracing": cmd_tracing,
    "fleet": cmd_fleet,
    "demo": cmd_demo,
    "serve": cmd_serve,
    "join": cmd_join,
    "scenario": cmd_scenario,
    "cluster": cmd_cluster,
}


def main(argv: "typing.Sequence[str] | None" = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    return _HANDLERS[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
