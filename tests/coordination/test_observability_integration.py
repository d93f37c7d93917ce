"""The live job and the DES twin trace the same adjustment.

The acceptance bar for the tracing layer: a scale-out traced on the live
networked job (wall clock) and on the simulated twin (sim clock) each
produce their adjustment-phase spans and instants — sharing the AM's
own — and both export as schema-valid Chrome trace files.
"""

import pytest

from repro.coordination import SimulatedElasticJob
from repro.core import ElasticJob
from repro.observability import (
    MetricRegistry,
    Tracer,
    load_trace_events,
    validate_events,
)
from repro.perfmodel import RESNET50

# The spans/instants a live scale-out produces: the workers' iterations,
# the AM's directive and commit, and the snapshot's way from uploader to
# joiner.
LIVE_ADJUSTMENT_SPANS = {
    "worker.iteration",
    "am.directive",
    "adjust.commit",
    "net.state_upload",
    "net.state_fetch",
}
LIVE_ADJUSTMENT_INSTANTS = {
    "am.request",
    "am.report",
    "am.commit_scheduled",
    "am.resize_accepted",
}
# The spans/instants every scale-out must produce in the twin.
ADJUSTMENT_SPANS = {
    "iteration",
    "worker.start_init",
    "am.directive",
    "adjust.commit",
    "commit.replicate",
    "commit.reconfigure",
}
ADJUSTMENT_INSTANTS = {
    "adjust.request",
    "am.request",
    "am.report",
    "am.commit_scheduled",
    "worker.report",
}


@pytest.fixture(scope="module")
def live_runtime():
    job = ElasticJob(
        workers=2, total_batch_size=32, seed=17, iterations=24,
        iteration_sleep=0.005, tracer=Tracer(process="elan-live"),
        metrics=MetricRegistry(),
    )
    with job:
        assert job.wait_until_iteration(3)
        job.scale_out(2)
        assert job.wait_for_adjustments(1)
    return job


@pytest.fixture(scope="module")
def sim_job():
    job = SimulatedElasticJob(RESNET50, workers=2, total_batch_size=64,
                              seed=17)
    job.at(5.0, lambda: job.request_scale_out(2))
    job.run(until=240.0)
    assert job.adjustments, "scale-out never committed in simulation"
    return job


class TestSharedTaxonomy:
    def test_live_emits_adjustment_taxonomy(self, live_runtime):
        tracer = live_runtime.job.tracer
        assert LIVE_ADJUSTMENT_SPANS <= tracer.span_names()
        instants = {i.name for i in tracer.instants()}
        assert LIVE_ADJUSTMENT_INSTANTS <= instants

    def test_sim_emits_adjustment_taxonomy(self, sim_job):
        names = sim_job.tracer.span_names()
        assert ADJUSTMENT_SPANS <= names
        instants = {i.name for i in sim_job.tracer.instants()}
        assert ADJUSTMENT_INSTANTS <= instants

    def test_both_harnesses_share_the_am_taxonomy(self, live_runtime,
                                                  sim_job):
        # Both drive the same transport-free AM engine: its directive
        # and commit spans and its request/report/schedule instants
        # appear in both.
        live, sim = live_runtime.job.tracer, sim_job.tracer
        assert {"am.directive", "adjust.commit"} <= (
            live.span_names() & sim.span_names()
        )
        shared = {i.name for i in live.instants()} & {
            i.name for i in sim.instants()
        }
        assert {"am.request", "am.report", "am.commit_scheduled"} <= shared

    def test_commit_subspans_nest_inside_commit(self, sim_job):
        (commit,) = sim_job.tracer.spans("adjust.commit")
        for name in ("commit.replicate", "commit.reconfigure"):
            (sub,) = sim_job.tracer.spans(name)
            assert commit.start <= sub.start <= sub.end <= commit.end


class TestExportRoundTrip:
    @pytest.mark.parametrize("harness", ["live", "sim"])
    def test_export_validates(self, harness, live_runtime, sim_job,
                              tmp_path):
        tracer = (
            live_runtime.job.tracer if harness == "live" else sim_job.tracer
        )
        path = tmp_path / f"{harness}.json"
        count = tracer.export(str(path))
        events = load_trace_events(str(path))
        assert len(events) == count
        assert validate_events(events) == []

    def test_sim_trace_is_deterministic(self, sim_job, tmp_path):
        replay = SimulatedElasticJob(RESNET50, workers=2,
                                     total_batch_size=64, seed=17)
        replay.at(5.0, lambda: replay.request_scale_out(2))
        replay.run(until=240.0)
        first, second = tmp_path / "a.json", tmp_path / "b.json"
        sim_job.tracer.export(str(first))
        replay.tracer.export(str(second))
        assert first.read_text() == second.read_text()


class TestMetricsAgree:
    def test_both_harnesses_count_the_adjustment(self, live_runtime,
                                                 sim_job):
        live = live_runtime.job.metrics.snapshot()
        sim = sim_job.metrics.snapshot()
        assert live["am.resizes.driver"] == 1
        assert sim["adjustments.scale_out"] == 1
        assert len(live_runtime.status()["group"]) == 4
        assert sim["workers"] == 4
        assert len(live_runtime.master.commit_latencies) == 1
        assert sim["commit_seconds"]["count"] == 1
