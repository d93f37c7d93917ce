"""The discrete-event twin's control-plane record: tracer and metrics."""

from repro.coordination import SimulatedElasticJob
from repro.perfmodel import RESNET50


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
        assert job.group == ("w0", "w1", "w2")
        assert job.metrics.snapshot()["adjustments.scale_out"] == 1
