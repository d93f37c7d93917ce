"""Tests for the ElasticJob facade (the Table III API surface)."""

import pytest

from repro.coordination import AdjustmentKind, Hook
from repro.core import ElasticJob
from repro.core.hybrid_scaling import ScalingSpec


def job_of(workers, **spec):
    spec.setdefault("total_batch_size", 16 * workers)
    spec.setdefault("iterations", 40)
    spec.setdefault("iteration_sleep", 0.005)
    return ElasticJob(workers=workers, **spec)


class TestLifecycle:
    def test_context_manager_starts_and_stops(self):
        with job_of(2, seed=1) as job:
            assert job.wait_until_iteration(5)
        assert all(
            not thread.is_alive() for thread in job.job._threads
        )
        assert job.status()["complete"]

    def test_status_reports_current_shape(self):
        with job_of(3, seed=2) as job:
            job.wait_until_iteration(3)
            status = job.status()
        assert status["group"] == ("w0", "w1", "w2")
        assert status["total_batch_size"] == 48
        assert status["adjustments"] == 0


class TestServiceApi:
    def test_adjust_resource_scale_out(self):
        with job_of(2, seed=3) as job:
            job.wait_until_iteration(3)
            new_ids = job.adjust_resource(AdjustmentKind.SCALE_OUT, count=2)
            assert job.wait_for_adjustments(1)
        assert new_ids == ["w2", "w3"]
        assert len(job.status()["group"]) == 4

    def test_adjust_resource_scale_in(self):
        with job_of(3, seed=4) as job:
            job.wait_until_iteration(3)
            removed = job.adjust_resource(AdjustmentKind.SCALE_IN, count=1)
            assert job.wait_for_adjustments(1)
        assert removed == ["w2"]
        assert len(job.status()["group"]) == 2

    def test_adjust_resource_migration(self):
        with job_of(2, seed=5) as job:
            job.wait_until_iteration(3)
            new_ids = job.adjust_resource(AdjustmentKind.MIGRATION)
            assert job.wait_for_adjustments(1)
        assert job.status()["group"] == tuple(new_ids)

    def test_scale_out_requires_count(self):
        job = job_of(2, seed=6)
        with pytest.raises(ValueError):
            job.adjust_resource(AdjustmentKind.SCALE_OUT)

    def test_history_records_strategy(self):
        with job_of(
            2, total_batch_size=32, seed=7,
            scaling=ScalingSpec("weak", ramp_iterations=5),
        ) as job:
            job.wait_until_iteration(3)
            job.scale_out(2)
            assert job.wait_for_adjustments(1)
        assert len(job.history) == 1
        assert job.history[0].strategy == "weak"
        assert job.history[0].total_batch_size == 64


class TestHooksAndEvaluation:
    def test_register_hook_passthrough(self):
        job = job_of(2, seed=8)
        job.register_hook(Hook("extra", lambda c: 1, lambda c, s: None))
        assert "extra" in job.hooks.names

    def test_evaluate_after_stop(self):
        with job_of(2, base_lr=0.02, seed=9) as job:
            job.wait_until_iteration(40)
        accuracy = job.evaluate()
        assert 0.0 <= accuracy <= 1.0
        assert len(set(job.digests().values())) == 1

    def test_coordination_interval_exposed(self):
        job = job_of(2, coordination_interval=4, seed=10)
        assert job.coordination_interval == 4


class TestCommitLatencyTelemetry:
    def test_live_commit_is_fast(self):
        """The live analogue of Fig. 15: an in-process commit (request
        to committed adjustment) completes in milliseconds."""
        with job_of(2, seed=11) as job:
            job.wait_until_iteration(3)
            job.scale_out(2)
            assert job.wait_for_adjustments(1)
        latencies = job.master.commit_latencies
        assert len(latencies) == 1
        assert latencies[0] < 0.5
