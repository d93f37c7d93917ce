"""Live worker→AM telemetry shipping: delta cursor, backpressure,
failover resync, and the end-to-end fleet view over both transports."""

import time

import pytest

from repro.net import (
    JobSpec,
    LocalJob,
    NetworkedApplicationMaster,
    TelemetryShipper,
    memory_link,
)
from repro.observability import MetricRegistry, Tracer, validate_events

from .harness import Harness


def make_master(**overrides):
    spec = JobSpec(
        iterations=8, coordination_interval=4, iteration_sleep=0.0,
        ring_enabled=False, **overrides,
    )
    return NetworkedApplicationMaster(spec, ["w0"])


def make_shipper(master, tracer=None, metrics=None, traced_link=False,
                 **kwargs):
    # A traced link feeds the worker's own tracer while shipping (the
    # flush test's whole point); the cursor tests keep the link silent.
    link = memory_link(
        master.core, "w0", tracer=tracer if traced_link else None
    )
    kwargs.setdefault("interval", 60.0)  # manual ships only
    shipper = TelemetryShipper(
        link, "w0", job="j1", tracer=tracer, metrics=metrics, **kwargs
    )
    return link, shipper


class TestShipOnce:
    def test_first_ship_is_a_full_snapshot(self):
        master = make_master()
        tracer = Tracer(process="w0")
        metrics = MetricRegistry()
        metrics.counter("worker.iterations").inc(3)
        tracer.add_span("worker.iteration", 0.0, 1.0, track="w0")
        link, shipper = make_shipper(master, tracer, metrics)
        shipped = metrics.snapshot()
        try:
            assert shipper.ship_once()
            assert shipper.ships == 1
            assert master.fleet.workers() == ["w0"]
            events = master.fleet.worker_events("w0")
            assert [e["name"] for e in events] == ["worker.iteration"]
            held = master.fleet.worker_metrics("w0")
            assert held == shipped
            assert held["worker.iterations"] == 3
            assert master.fleet.jobs() == {"j1": ["w0"]}
        finally:
            link.close()
            master.close()

    def test_deltas_only_ship_new_events(self):
        master = make_master()
        tracer = Tracer(process="w0")
        link, shipper = make_shipper(master, tracer)
        try:
            tracer.add_instant("a", 0.0, track="w0")
            assert shipper.ship_once()
            first = shipper.events_shipped
            tracer.add_instant("b", 1.0, track="w0")
            assert shipper.ship_once()
            assert shipper.events_shipped == first + 1
            names = [e["name"] for e in master.fleet.worker_events("w0")]
            assert names == ["a", "b"]
        finally:
            link.close()
            master.close()

    def test_failed_ship_keeps_the_cursor(self):
        """A fenced AM mid-failover must not lose events: the cursor
        stays put and the next tick re-ships the same delta."""
        master = make_master()
        tracer = Tracer(process="w0")
        tracer.add_instant("a", 0.0, track="w0")
        link, shipper = make_shipper(master, tracer)
        try:
            master.abandon()  # every request now gets am_superseded
            assert not shipper.ship_once()
            assert shipper.failures == 1
            assert shipper.ships == 0
            assert shipper._start == 0 and shipper._full
        finally:
            link.close()
            master.close()

    def test_backpressure_sheds_oldest_and_ships_full(self):
        master = make_master()
        tracer = Tracer(process="w0")
        for i in range(100):
            tracer.add_instant(f"e{i}", float(i), track="w0")
        link, shipper = make_shipper(master, tracer, backlog=10)
        try:
            # Stale partial view that the post-shed full ship must
            # replace, not merge with.
            shipper._full = False
            master.fleet.ingest({
                "worker": "w0", "job": "j1", "full": True, "start": 0,
                "events": [{"idx": 0, "name": "stale", "ph": "i", "s": "t",
                            "ts": 0.0, "pid": 1, "tid": 1, "track": "w0",
                            "args": {}}],
                "metrics": None, "dropped": 0,
            })
            assert shipper.ship_once()
            assert shipper.dropped == 90
            events = master.fleet.worker_events("w0")
            assert len(events) == 10
            assert [e["name"] for e in events] == [
                f"e{i}" for i in range(90, 100)
            ]
            payload = master.fleet.to_payload()
            assert payload["workers"]["w0"]["dropped"] == 90
        finally:
            link.close()
            master.close()


class TestFailoverResync:
    def test_successor_detects_gap_and_recovers_via_full_ship(self):
        """A successor AM holds nothing; the shipper's next delta lands
        mid-stream, provokes ``resync``, and the follow-up ship is a
        full snapshot that rebuilds the fleet view — no agent-side
        coordination needed."""
        master = make_master()
        tracer = Tracer(process="w0")
        for i in range(5):
            tracer.add_instant(f"e{i}", float(i), track="w0")
        link, shipper = make_shipper(master, tracer)
        try:
            assert shipper.ship_once()
            assert len(master.fleet.worker_events("w0")) == 5

            master.abandon()
            successor = NetworkedApplicationMaster.from_journal(
                master.journal
            )
            try:
                link.transport.redirect(successor.core)
                tracer.add_instant("e5", 5.0, track="w0")
                assert shipper.ship_once()  # resync reply, not a failure
                assert shipper._full and shipper._start == 0
                assert shipper.ship_once()  # the demanded full snapshot
                assert len(successor.fleet.worker_events("w0")) == 6
            finally:
                successor.close()
        finally:
            link.close()
            master.close()

    def test_mark_full_forces_a_snapshot(self):
        """The agent's re-enrollment hook: even without a resync reply,
        mark_full() makes the next ship carry everything."""
        master = make_master()
        tracer = Tracer(process="w0")
        tracer.add_instant("a", 0.0, track="w0")
        link, shipper = make_shipper(master, tracer)
        try:
            assert shipper.ship_once()
            master.fleet._workers.clear()  # a successor's empty view
            shipper.mark_full()
            assert shipper.ship_once()
            assert len(master.fleet.worker_events("w0")) == 1
        finally:
            link.close()
            master.close()


class TestFlush:
    def test_flush_terminates_despite_self_recorded_events(self):
        """Shipping over a traced link records new events (net.send
        spans, clock samples) — flush must drain to the high-water mark
        at entry, not chase an empty buffer forever."""
        master = make_master()
        tracer = Tracer(process="w0")
        for i in range(20):
            tracer.add_instant(f"e{i}", float(i), track="w0")
        link, shipper = make_shipper(
            master, tracer, max_events=8, traced_link=True
        )
        try:
            target = len(tracer)
            assert shipper.flush() is True
            held = master.fleet.worker_events("w0")
            assert len([e for e in held if e["name"].startswith("e")]) == 20
            # The link really did feed the tracer while flushing.
            assert len(tracer) > target
        finally:
            link.close()
            master.close()

    def test_flush_gives_up_against_a_dead_am(self):
        master = make_master()
        tracer = Tracer(process="w0")
        tracer.add_instant("a", 0.0, track="w0")
        link, shipper = make_shipper(master, tracer, interval=0.01)
        try:
            master.abandon()
            assert shipper.flush() is False
            assert shipper.failures >= 3
        finally:
            link.close()
            master.close()


class TestShipperThread:
    def test_periodic_thread_ships_and_stops(self):
        master = make_master()
        tracer = Tracer(process="w0")
        tracer.add_instant("a", 0.0, track="w0")
        link, shipper = make_shipper(master, tracer, interval=0.02)
        try:
            shipper.start()
            shipper.start()  # idempotent
            deadline = time.monotonic() + 5.0
            while shipper.ships < 2 and time.monotonic() < deadline:
                time.sleep(0.01)
            assert shipper.ships >= 2
            shipper.stop()
            assert shipper._thread is None
            settled = shipper.ships
            time.sleep(0.08)
            assert shipper.ships == settled  # really stopped
        finally:
            link.close()
            master.close()


def start_traced_worker(harness, worker_id):
    """A worker whose link and agent share its own tracer and registry."""
    tracer, metrics = Tracer(process=worker_id), MetricRegistry()
    harness.start_worker(
        worker_id, link_options={"tracer": tracer, "metrics": metrics},
        tracer=tracer, metrics=metrics,
    )


@pytest.fixture(params=["memory", "tcp"])
def transport(request):
    return request.param


class TestEndToEndFleetView:
    def test_agents_ship_and_the_am_builds_the_fleet_view(self, transport):
        """The spec's telemetry_interval rides the join reply: agents
        auto-start shippers, flush on clean exit, and the AM ends the
        run holding a merged, validate-clean fleet trace plus a live
        goodput report."""
        spec = JobSpec(
            iterations=8, coordination_interval=4, iteration_sleep=0.01,
            telemetry_interval=0.05,
        )
        harness = Harness(transport, spec, ["w0", "w1"])
        try:
            start_traced_worker(harness, "w0")
            start_traced_worker(harness, "w1")
            harness.join_all(timeout=60.0)

            fleet = harness.master.fleet
            assert fleet.workers() == ["w0", "w1"]
            for worker in ("w0", "w1"):
                agent = harness.agents[worker]
                assert agent.telemetry is not None
                assert agent.telemetry.ships >= 1
                events = fleet.worker_events(worker)
                iteration_spans = [
                    e for e in events if e["name"] == "worker.iteration"
                ]
                assert len(iteration_spans) == spec.iterations
                held = fleet.worker_metrics(worker)
                assert held["telemetry.ships"] >= 1

            merged = fleet.merged_events()
            assert not validate_events(merged)
            named = {
                e["args"]["name"] for e in merged
                if e.get("ph") == "M" and e.get("name") == "process_name"
            }
            assert named == {"w0", "w1"}

            reports = fleet.report(
                am_metrics=harness.master.metrics.snapshot()
            )
            fleet_report = reports["fleet"]
            assert fleet_report.workers == 2
            assert fleet_report.iterations == 2 * spec.iterations
            assert fleet_report.goodput > 0
        finally:
            harness.close()

    def test_shipping_disabled_by_default(self):
        spec = JobSpec(
            iterations=4, coordination_interval=4, iteration_sleep=0.0,
        )
        harness = Harness("memory", spec, ["w0"])
        try:
            start_traced_worker(harness, "w0")
            harness.join_all(timeout=30.0)
            assert harness.agents["w0"].telemetry is None
            assert len(harness.master.fleet) == 0
        finally:
            harness.close()

    def test_shared_tracer_counts_each_iteration_once(self):
        """A job whose AM and thread workers share one tracer: each
        worker ships only its own tracks (nothing the collector holds
        for w0 sits on w1's or the AM's), and the fleet report counts
        2 workers x 8 iterations."""
        spec = JobSpec(
            iterations=8, coordination_interval=4, iteration_sleep=0.01,
            telemetry_interval=0.05,
        )
        job = LocalJob(
            "memory", spec, ["w0", "w1"], tracer=Tracer(),
            metrics=MetricRegistry(),
        )
        try:
            job.start_worker("w0")
            job.start_worker("w1")
            assert job.join(timeout=60.0)
            master = job.master
            assert master.fleet.workers() == ["w0", "w1"]
            for worker in ("w0", "w1"):
                tracks = {
                    e["track"] for e in master.fleet.worker_events(worker)
                }
                assert tracks and all(
                    t == worker or t.startswith(worker + "/") for t in tracks
                ), (worker, tracks)
            fleet_report = master.fleet.report(
                am_events=master.tracer.to_events(),
                am_metrics=master.metrics.snapshot(),
            )["fleet"]
            assert fleet_report.workers == 2
            assert fleet_report.iterations == 2 * spec.iterations
        finally:
            job.close()

    def test_shared_registry_rolls_up_once(self):
        """A job whose AM and thread workers share one registry: the
        fleet rollup counts that registry once, not once per shipping
        worker and once more for the AM."""
        spec = JobSpec(
            iterations=8, coordination_interval=4, iteration_sleep=0.01,
            telemetry_interval=0.05,
        )
        metrics = MetricRegistry()
        job = LocalJob(
            "memory", spec, ["w0", "w1"], tracer=Tracer(), metrics=metrics,
        )
        try:
            job.start_worker("w0")
            job.start_worker("w1")
            assert job.join(timeout=60.0)
            own = metrics.snapshot()
            rollup = job.master.fleet.rollup(own, metrics.id)
            assert own["telemetry.ships"] >= 2
            for name in ("telemetry.ships", "net.sends"):
                assert rollup[name] == own[name], name
            report = job.master.fleet.report(
                am_metrics=own, am_registry=metrics.id
            )
            assert report["fleet"].workers == 2
        finally:
            job.close()
