"""Live measurement: what telemetry shipping costs the training loop.

The fleet telemetry plane ships trace/metric deltas from a background
thread over the worker's existing AM link, so the training loop should
pay (almost) nothing: the shipper never blocks an iteration, and the
per-tick work is one bounded ``collect_events`` pass plus one request.
This benchmark runs the same two-worker networked job with shipping
off, at the 1 s default, and at an aggressive 100 ms cadence, and
compares the mean ``worker.iteration`` span time — the ISSUE's
acceptance bar is < 5 % overhead at the default interval.
"""

from conftest import fmt_row

from repro.net import JobSpec, LocalJob
from repro.observability import MetricRegistry, Tracer

WORKERS = ("w0", "w1")
ITERATIONS = 40
ITERATION_SLEEP = 0.01


def run_job(telemetry_interval):
    """One complete job; returns (mean_iteration_s, ships, events)."""
    spec = JobSpec(
        iterations=ITERATIONS, coordination_interval=8,
        iteration_sleep=ITERATION_SLEEP, ring_enabled=False,
        telemetry_interval=telemetry_interval,
    )
    job = LocalJob("memory", spec, list(WORKERS))
    tracers = {}
    for worker_id in WORKERS:
        tracer = tracers[worker_id] = Tracer(process=worker_id)
        metrics = MetricRegistry()
        job.start_worker(
            worker_id,
            link_options={"ack_timeout": 0.5, "tracer": tracer,
                          "metrics": metrics},
            tracer=tracer, metrics=metrics,
        )
    job.join(120.0)
    job.close()
    assert not job.errors, job.errors

    durations = [
        span.duration
        for tracer in tracers.values()
        for span in tracer.spans("worker.iteration")
    ]
    assert len(durations) == len(WORKERS) * ITERATIONS
    ships = sum(
        a.telemetry.ships for a in job.agents.values() if a.telemetry is not None
    )
    events = sum(
        a.telemetry.events_shipped
        for a in job.agents.values()
        if a.telemetry is not None
    )
    return sum(durations) / len(durations), ships, events


def run_sweep():
    return {
        label: run_job(interval)
        for label, interval in (
            ("off", 0.0), ("1s", 1.0), ("100ms", 0.1),
        )
    }


def test_telemetry_overhead(benchmark, save_result):
    results = benchmark.pedantic(run_sweep, rounds=1, iterations=1)

    base_mean, _, _ = results["off"]
    widths = (10, 14, 12, 8, 8)
    lines = [fmt_row(
        ("Shipping", "Mean iter (ms)", "Overhead", "Ships", "Events"),
        widths,
    )]
    for label in ("off", "1s", "100ms"):
        mean, ships, events = results[label]
        overhead = (mean - base_mean) / base_mean
        lines.append(fmt_row(
            (label, f"{mean * 1e3:.3f}", f"{overhead * 100:+.2f}%",
             ships, events),
            widths,
        ))
    save_result("telemetry_overhead", lines)

    # Shipping actually happened at both live cadences.
    assert results["1s"][1] >= 1
    assert results["100ms"][1] >= 2
    assert results["100ms"][2] > 0
    # The acceptance bar: the default 1 s cadence perturbs the mean
    # iteration by under 5 %.
    overhead_default = (results["1s"][0] - base_mean) / base_mean
    assert overhead_default < 0.05, results
