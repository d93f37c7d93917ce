"""Tests for the control-plane event log (the discrete-event twin's)."""

from repro.coordination import FaultPlan, RuntimeTelemetry, SimulatedElasticJob
from repro.perfmodel import RESNET50


class TestRuntimeTelemetryUnit:
    def test_event_log_filters_by_kind(self):
        telemetry = RuntimeTelemetry()
        telemetry.record_event(1.0, "adjustment", adjustment_kind="scale_out")
        telemetry.record_event(2.0, "worker_failure", worker="w1")
        assert len(telemetry.events_of_kind("adjustment")) == 1
        assert telemetry.events_of_kind("worker_failure")[0].detail[
            "worker"
        ] == "w1"


class TestEventIntegrity:
    def test_detail_is_copied_on_construction(self):
        telemetry = RuntimeTelemetry()
        detail = {"worker": "w1"}
        telemetry.record_event(1.0, "worker_failure", **detail)
        detail["worker"] = "mutated"
        assert telemetry.events[0].detail["worker"] == "w1"

    def test_injectable_clock_stamps_events(self):
        sim_now = {"t": 10.0}
        telemetry = RuntimeTelemetry(clock=lambda: sim_now["t"])
        telemetry.record_event(None, "adjustment")
        sim_now["t"] = 20.0
        telemetry.record_detection("w1", latency=0.5)
        sim_now["t"] = 23.0
        telemetry.record_recovery(["w1"], mttr=3.0)
        times = [e.wall_time for e in telemetry.events]
        assert times == [10.0, 20.0, 23.0]
        # Replays with the same clock produce the same log: no hidden
        # time.time() anywhere.
        replay = RuntimeTelemetry(clock=lambda: 20.0)
        replay.record_detection("w1", latency=0.5)
        assert replay.events[0].wall_time == 20.0
        assert replay.detection_latencies == [0.5]

    def test_explicit_wall_time_still_wins(self):
        telemetry = RuntimeTelemetry(clock=lambda: 99.0)
        telemetry.record_event(5.0, "adjustment")
        assert telemetry.events[0].wall_time == 5.0

    def test_recordings_feed_metric_registry(self):
        telemetry = RuntimeTelemetry(clock=lambda: 0.0)
        telemetry.record_detection("w0", latency=1.5)
        telemetry.record_recovery(["w0"], mttr=2.5)
        telemetry.record_event(None, "adjustment")
        snap = telemetry.metrics.snapshot()
        assert snap["failure.detection_latency_seconds"]["max"] == 1.5
        assert snap["failure.mttr_seconds"]["max"] == 2.5
        assert snap["events.adjustment"] == 1


class TestTelemetryInRuntime:
    def test_adjustment_events_recorded(self):
        job = SimulatedElasticJob(RESNET50, workers=2, total_batch_size=64,
                                  seed=3)
        job.at(5.0, lambda: job.request_scale_out(1))
        job.run(until=240.0)
        events = job.telemetry.events_of_kind("adjustment")
        assert len(events) == 1
        assert events[0].detail["adjustment_kind"] == "scale_out"
        assert events[0].detail["new_group"] == ["w0", "w1", "w2"]

    def test_failure_events_recorded(self):
        job = SimulatedElasticJob(
            RESNET50, workers=2, total_batch_size=64, lease_ttl=5.0,
            fault_plan=FaultPlan(silent_crashes={"w1": 20}), seed=4,
        )
        job.run(until=240.0)
        events = job.telemetry.events_of_kind("failure_detected")
        assert events and events[0].detail["worker"] == "w1"
