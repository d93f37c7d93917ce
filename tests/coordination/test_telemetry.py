"""The discrete-event twin's control-plane record: tracer and metrics."""

from repro.coordination import FaultPlan, SimulatedElasticJob
from repro.perfmodel import RESNET50


def crashing_job() -> SimulatedElasticJob:
    """Two workers; w1 dies silently at iteration 20."""
    job = SimulatedElasticJob(
        RESNET50, workers=2, total_batch_size=64, lease_ttl=5.0,
        fault_plan=FaultPlan(silent_crashes={"w1": 20}), seed=4,
    )
    job.run(until=240.0)
    return job


def instant_log(job):
    return [(i.name, i.start, i.args) for i in job.tracer.instants()]


class TestEventIntegrity:
    def test_injectable_clock_stamps_events(self):
        """Events carry simulated time — the detection is stamped at the
        supervision tick that opened the recovery — and a replay of the
        same plan produces the same event log: no hidden wall clock."""
        job = crashing_job()
        (detected,) = job.tracer.instants("failure.detected")
        (recover,) = job.tracer.spans("recover")
        assert detected.start == recover.start
        assert recover.end - recover.start == job.recoveries[0][1]
        assert instant_log(crashing_job()) == instant_log(job)

    def test_recordings_feed_metric_registry(self):
        """Detections and recoveries land in ``job.metrics`` under the
        live AM's names."""
        job = crashing_job()
        ((_worker, latency),) = job.detections
        ((_removed, mttr),) = job.recoveries
        snap = job.metrics.snapshot()
        assert snap["failure.detection_latency_seconds"]["max"] == latency
        assert snap["failure.mttr_seconds"]["max"] == mttr
        assert snap["events.failure_detected"] == 1
        assert snap["events.recovery"] == 1
        assert snap["workers"] == 1


class TestTelemetryInRuntime:
    def test_adjustment_events_recorded(self):
        job = SimulatedElasticJob(RESNET50, workers=2, total_batch_size=64,
                                  seed=3)
        job.at(5.0, lambda: job.request_scale_out(1))
        job.run(until=240.0)
        (commit,) = job.tracer.spans("adjust.commit")
        assert commit.args["kind"] == "scale_out"
        assert commit.args["old_workers"] == 2
        assert commit.args["new_workers"] == 3
        assert job.am.group == ("w0", "w1", "w2")
        assert job.metrics.snapshot()["adjustments.scale_out"] == 1

    def test_failure_events_recorded(self):
        job = crashing_job()
        events = job.tracer.instants("failure.detected")
        assert events and events[0].args["worker"] == "w1"
        assert events[0].args["cause"] == "lease_expired"
