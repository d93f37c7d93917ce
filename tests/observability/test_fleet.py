"""Tests for the fleet telemetry plane: clock alignment, trace merging,
metric rollups, the fleet collector, and the goodput-report overhead
accounting."""

import json

import pytest

from repro.observability import (
    FleetCollector,
    GoodputReport,
    MetricRegistry,
    TraceMerger,
    Tracer,
    clock_sample,
    derive_report,
    merge_metric_snapshots,
    prometheus_text,
    validate_events,
)


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, dt):
        self.now += dt
        return self.now


class TestClockSample:
    def test_midpoint_offset_recovers_constant_skew(self):
        """Client clock = server clock - 5 s, symmetric 10 ms latency."""
        offset, rtt = clock_sample(
            t0=100.0, t1=105.01, t2=105.02, t3=100.03
        )
        assert offset == pytest.approx(5.0, abs=1e-9)
        assert rtt == pytest.approx(0.02, abs=1e-9)


def _trace(process, clock, spans=(), instants=(), samples=()):
    """A little per-process tracer: spans are (name, track, start, dur);
    samples are (offset, rtt, when) clock samples against the AM."""
    tracer = Tracer(clock=clock, process=process)
    for name, track, start, dur in spans:
        tracer.add_span(name, start, start + dur, track=track)
    for name, track, when in instants:
        tracer.add_instant(name, when, track=track, cat="net")
    for offset, rtt, when in samples:
        tracer.add_instant(
            "net.clock_sample", when, track=process, cat="net",
            peer="am", offset=offset, rtt=rtt,
        )
    return tracer


class TestTraceMerger:
    def test_merge_aligns_clocks_and_names_processes(self):
        clock = FakeClock()
        am = _trace("am", clock, spans=[("serve", "am", 1.0, 0.5)])
        # Worker clock runs 2 s behind the AM; its own clock samples say
        # offset=+2.0 (am_clock - worker_clock).
        w0 = _trace(
            "w0", clock,
            spans=[("worker.iteration", "w0", 0.0, 0.5)],
            samples=[(2.0, 0.001, 0.1)],
        )
        merger = TraceMerger(reference="am")
        merger.add(am.to_events(), process="am")
        merger.add(w0.to_events(), process="w0")
        assert merger.offsets() == {"am": 0.0, "w0": 2.0}
        merged = merger.merge()
        assert not validate_events(merged)
        processes = {
            e["args"]["name"]: e["pid"] for e in merged
            if e.get("ph") == "M" and e.get("name") == "process_name"
        }
        assert set(processes) == {"am", "w0"}
        assert processes["am"] != processes["w0"]
        iteration = next(
            e for e in merged if e.get("name") == "worker.iteration"
        )
        # 0.0 s on the worker clock + 2.0 s offset = 2.0 s fleet time.
        assert iteration["ts"] == pytest.approx(2.0e6)
        assert iteration["pid"] == processes["w0"]

    def test_min_rtt_sample_wins(self):
        """A congested (high-rtt, skewed) sample must not displace a
        clean one — the minimum-delay filter keeps the best estimate."""
        clock = FakeClock()
        w0 = _trace(
            "w0", clock,
            samples=[(5.0, 0.002, 0.1), (5.4, 0.91, 0.2)],  # clean, congested
        )
        merger = TraceMerger(reference="am")
        merger.add(w0.to_events(), process="w0")
        assert merger.offsets()["w0"] == pytest.approx(5.0)

    def test_process_without_reference_samples_is_not_shifted(self):
        clock = FakeClock()
        w0 = _trace("w0", clock, spans=[("worker.iteration", "w0", 0.0, 1.0)])
        merger = TraceMerger(reference="am")
        merger.add(w0.to_events(), process="w0")
        assert merger.offsets() == {"w0": 0.0}

    def test_peer_samples_do_not_set_the_offset(self):
        """A meshed worker samples its ring peers too; only the samples
        against the reference measure the offset to the reference
        clock, however small a peer sample's rtt."""
        w0 = _trace("w0", FakeClock(), samples=[(2.0, 0.005, 0.1)])
        w0.add_instant(
            "net.clock_sample", 0.2, track="w0", cat="net",
            peer="w1/peer", offset=7.0, rtt=0.001,
        )
        merger = TraceMerger(reference="am")
        merger.add(w0.to_events(), process="w0")
        assert merger.offsets()["w0"] == pytest.approx(2.0)

    def test_merge_is_deterministic_regardless_of_add_order(self):
        clock = FakeClock()
        traces = {
            name: _trace(
                name, clock, spans=[("worker.iteration", name, i, 0.25)]
            ).to_events()
            for i, name in enumerate(["w2", "w0", "w1"])
        }
        forward, backward = TraceMerger(), TraceMerger()
        for name in ["w2", "w0", "w1"]:
            forward.add(traces[name], process=name)
        for name in ["w1", "w0", "w2"]:
            backward.add(traces[name], process=name)
        assert forward.merge() == backward.merge()

    def test_re_adding_a_process_replaces_its_events(self):
        clock = FakeClock()
        merger = TraceMerger()
        merger.add(
            _trace("w0", clock, spans=[("a", "w0", 0, 1)]).to_events(),
            process="w0",
        )
        merger.add(
            _trace("w0", clock, spans=[("b", "w0", 0, 1)]).to_events(),
            process="w0",
        )
        names = {e.get("name") for e in merger.merge()}
        assert "b" in names and "a" not in names

    def test_malformed_events_are_dropped_not_fatal(self):
        merger = TraceMerger()
        merger.add(
            [
                {"name": "ok", "ph": "X", "ts": 0.0, "dur": 5.0,
                 "pid": 1, "tid": 1, "args": {}},
                {"name": "negative", "ph": "X", "ts": 0.0, "dur": -1.0,
                 "pid": 1, "tid": 1, "args": {}},
                {"name": "", "ph": "i", "ts": 0.0, "pid": 1, "tid": 1},
                {"ph": "X", "ts": "not-a-number"},
            ],
            process="w0",
        )
        merged = merger.merge()
        assert not validate_events(merged)
        names = {e.get("name") for e in merged if e.get("ph") == "X"}
        assert names == {"ok"}

    def test_empty_merge_is_still_valid(self):
        merged = TraceMerger().merge()
        assert not validate_events(merged)
        assert any(e.get("name") == "fleet.merge" for e in merged)


class TestMergeSnapshots:
    def test_counters_sum_and_histograms_combine(self):
        a = MetricRegistry()
        a.counter("n").inc(3)
        a.histogram("t").observe(1.0)
        a.histogram("t").observe(3.0)
        b = MetricRegistry()
        b.counter("n").inc(4)
        b.histogram("t").observe(5.0)
        merged = merge_metric_snapshots([a.snapshot(), b.snapshot()])
        assert merged["n"] == 7
        assert merged["t"]["count"] == 3
        assert merged["t"]["sum"] == pytest.approx(9.0)
        assert merged["t"]["min"] == 1.0
        assert merged["t"]["max"] == 5.0
        assert merged["t"]["mean"] == pytest.approx(3.0)

    def test_prometheus_text_exposition(self):
        registry = MetricRegistry()
        registry.counter("net.sends").inc(5)
        registry.histogram("sync.wait").observe(2.0)
        text = prometheus_text(registry.snapshot())
        assert text.endswith("\n")
        assert "# TYPE elan_net_sends gauge" in text
        assert "elan_net_sends 5" in text
        assert "# TYPE elan_sync_wait summary" in text
        assert 'elan_sync_wait{quantile="0.5"}' in text
        assert "elan_sync_wait_count 1" in text


class TestCollectEventsCursor:
    def test_open_spans_stay_pending_until_closed(self):
        clock = FakeClock()
        tracer = Tracer(clock=clock, process="w0")
        open_span = tracer.begin("slow", track="w0")
        tracer.instant("tick", track="w0")
        records, next_start, pending = tracer.collect_events()
        assert [r["name"] for r in records] == ["tick"]
        assert pending == [0]
        assert next_start == 2
        clock.advance(1.0)
        tracer.end(open_span)
        records, next_start, pending = tracer.collect_events(
            next_start, pending
        )
        assert [r["name"] for r in records] == ["slow"]
        assert pending == []

    def test_limit_bounds_work_per_call(self):
        clock = FakeClock()
        tracer = Tracer(clock=clock, process="w0")
        for i in range(10):
            tracer.instant(f"i{i}", track="w0")
        records, next_start, pending = tracer.collect_events(limit=4)
        assert len(records) == 4 and next_start == 4 and not pending
        records, next_start, _ = tracer.collect_events(next_start, limit=100)
        assert len(records) == 6 and next_start == 10

    def test_records_carry_idx_and_track(self):
        tracer = Tracer(clock=FakeClock(), process="w0")
        tracer.instant("x", track="main")
        [record], _, _ = tracer.collect_events()
        assert record["idx"] == 0
        assert record["track"] == "main"


class TestFleetCollector:
    @staticmethod
    def _delta(worker, records, start, full=False, **extra):
        payload = {
            "worker": worker, "job": "j1", "full": full, "start": start,
            "events": records, "metrics": None, "dropped": 0,
        }
        payload.update(extra)
        return payload

    @staticmethod
    def _records(indices):
        return [
            {"idx": i, "name": f"e{i}", "ph": "i", "s": "t", "ts": float(i),
             "pid": 1, "tid": 1, "track": "w0", "args": {}}
            for i in indices
        ]

    def test_deltas_fold_idempotently_by_index(self):
        collector = FleetCollector()
        collector.ingest(self._delta("w0", self._records([0, 1]), 0))
        collector.ingest(self._delta("w0", self._records([1, 2]), 1))
        collector.ingest(self._delta("w0", self._records([1, 2]), 1))  # dup
        assert [e["idx"] for e in collector.worker_events("w0")] == [0, 1, 2]

    def test_gap_triggers_resync_and_full_ship_recovers(self):
        """A successor AM holds nothing; a mid-stream delta must provoke
        a resync, and the follow-up full snapshot must rebuild the view."""
        collector = FleetCollector()
        reply = collector.ingest(self._delta("w0", self._records([7]), 7))
        assert reply["resync"] is True
        reply = collector.ingest(
            self._delta("w0", self._records(range(8)), 0, full=True)
        )
        assert reply["resync"] is False
        assert len(collector.worker_events("w0")) == 8

    def test_full_replaces_stale_view(self):
        collector = FleetCollector()
        collector.ingest(self._delta("w0", self._records([0, 1, 2]), 0))
        collector.ingest(
            self._delta("w0", self._records([5, 6]), 5, full=True)
        )
        assert [e["idx"] for e in collector.worker_events("w0")] == [5, 6]

    def test_payload_round_trip(self):
        collector = FleetCollector(job_id="j1")
        collector.ingest(
            self._delta("w0", self._records([0, 1]), 0)
        )
        clone = FleetCollector.from_payload(collector.to_payload())
        assert clone.worker_events("w0") == collector.worker_events("w0")
        assert clone.jobs() == collector.jobs()

    def test_report_groups_by_job(self):
        collector = FleetCollector()
        for worker, job in (("w0", "alpha"), ("w1", "alpha"), ("w2", "beta")):
            records = [{
                "idx": 0, "name": "worker.iteration", "ph": "X",
                "ts": 0.0, "dur": 5e5, "pid": 1, "tid": 1,
                "track": worker, "args": {},
            }]
            collector.ingest({
                "worker": worker, "job": job, "full": True, "start": 0,
                "events": records, "metrics": None, "dropped": 0,
            })
        reports = collector.report()
        assert set(reports) == {"alpha", "beta", "fleet"}
        assert reports["alpha"].workers == 2
        assert reports["beta"].workers == 1
        assert reports["fleet"].workers == 3
        assert reports["fleet"].iterations == 3


class TestGoodputOverheads:
    def test_overhead_categories_and_upload_series(self):
        clock = FakeClock()
        tracer = Tracer(clock=clock, process="am")
        tracer.add_span("worker.iteration", 0.0, 4.0, track="w0")
        tracer.add_span("net.state_upload", 4.0, 4.5, track="w0")
        tracer.add_span("adjust.commit", 4.5, 5.0, track="am")
        tracer.add_span("net.reconnect", 5.0, 5.2, track="w0")
        report = derive_report(tracer.to_events())
        assert report.overhead["replication"] == pytest.approx(0.5)
        assert report.overhead["rescheduling"] == pytest.approx(0.5)
        assert report.overhead["degradation"] == pytest.approx(0.2, abs=1e-6)
        assert report.upload_series == [
            (pytest.approx(4.0), pytest.approx(0.5))
        ]
        formatted = report.format()
        assert "overhead.replication" in formatted
        assert "uploads" in formatted

    def test_merged_fleet_trace_counts_workers_across_pids(self):
        """Two processes whose iteration lanes share tid must still be
        two workers (the pid/tid collapse regression)."""
        clock = FakeClock()
        merger = TraceMerger()
        for name in ("w0", "w1"):
            merger.add(
                _trace(
                    name, clock,
                    spans=[("worker.iteration", name, 0.0, 1.0)],
                ).to_events(),
                process=name,
            )
        report = derive_report(merger.merge())
        assert report.workers == 2
        assert report.iterations == 2

    def test_copies_count_once_and_re_runs_count_again(self):
        """A worker iteration held by two processes' buffers is one
        iteration; the same iteration run twice in one buffer (a
        preempted job restarting) is two."""
        merger = TraceMerger()
        for name in ("am", "w0"):
            tracer = Tracer(clock=FakeClock(), process=name)
            for start in (0.0, 5.0):  # iteration 1, then its re-run
                tracer.add_span(
                    "worker.iteration", start, start + 1.0, track="w0",
                    iteration=1,
                )
            merger.add(tracer.to_events(), process=name)
        report = derive_report(merger.merge())
        assert report.workers == 1
        assert report.iterations == 2
        assert report.busy_seconds == pytest.approx(2.0)

    def test_report_round_trips_through_payload_dict(self):
        """A report rebuilds from the plain dict of its fields."""
        original = GoodputReport(
            job="j", goodput=0.5, busy_seconds=1.0, wall_seconds=2.0,
            iterations=10, workers=2, overhead={"replication": 0.1},
            upload_series=[(0.0, 0.1)], counts={"failovers": 1},
        )
        clone = GoodputReport(**json.loads(json.dumps({
            "job": original.job, "goodput": original.goodput,
            "busy_seconds": original.busy_seconds,
            "wall_seconds": original.wall_seconds,
            "iterations": original.iterations, "workers": original.workers,
            "counts": original.counts, "overhead": original.overhead,
            "upload_series": original.upload_series,
        })))
        assert clone.goodput == original.goodput
        assert clone.overhead == original.overhead
        assert "[job j]" in clone.format()
