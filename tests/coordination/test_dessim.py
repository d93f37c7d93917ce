"""Tests for the DES protocol simulation — and its cross-validation
against both the live runtime's semantics and the closed-form timing
models."""

import pytest

from repro.baselines import ElanAdjustmentModel
from repro.coordination import SimulatedElasticJob
from repro.coordination.master import AdjustmentKind
from repro.perfmodel import MODEL_ZOO, RESNET50


def scale_out_run(model=RESNET50, workers=8, add=8, seed=0, until=150.0):
    job = SimulatedElasticJob(model, workers=workers, total_batch_size=256,
                              seed=seed)
    job.at(10.0, lambda: job.request_scale_out(add))
    job.run(until=until)
    return job


class TestAsynchronousBehaviour:
    def test_training_progresses_during_startup(self):
        """The §V-B property on simulated time: many iterations complete
        between the request and the commit (start+init are hidden)."""
        job = scale_out_run()
        (adjustment,) = job.adjustments
        assert adjustment.iterations_during_startup > 50
        assert adjustment.commit_time > adjustment.request_time + 15.0

    def test_commit_waits_for_slowest_starter(self):
        """With startup jitter, the commit happens only after the last
        report — never partially."""
        job = scale_out_run(seed=3)
        (adjustment,) = job.adjustments
        # Startup mean is start+init; the commit cannot precede it.
        from repro.perfmodel.calibration import (
            WORKER_INIT_TIME,
            WORKER_START_TIME,
        )
        assert adjustment.commit_time >= (
            adjustment.request_time + WORKER_START_TIME + WORKER_INIT_TIME
        )

    def test_group_grows_after_commit(self):
        job = scale_out_run()
        assert len(job.group) == 16

    def test_throughput_rises_after_scale_out(self):
        job = scale_out_run(until=200.0)
        (adjustment,) = job.adjustments
        before = job.effective_throughput(0.0, adjustment.request_time)
        after = job.effective_throughput(adjustment.resume_time, 200.0)
        assert after > 1.3 * before

    def test_concurrent_request_rejected(self):
        job = SimulatedElasticJob(RESNET50, workers=8, total_batch_size=256)
        job.at(5.0, lambda: job.request_scale_out(4))
        job.at(6.0, lambda: job.request_scale_out(4))
        with pytest.raises(RuntimeError, match="in flight"):
            job.run(until=60.0)


class TestCrossValidation:
    @pytest.mark.parametrize("name", sorted(MODEL_ZOO))
    def test_pause_matches_closed_form_model(self, name):
        """The DES-measured pause equals the ElanAdjustmentModel total
        within jitter tolerance — two independent paths, one answer."""
        model = MODEL_ZOO[name]
        job = scale_out_run(model=model, until=200.0)
        (adjustment,) = job.adjustments
        closed_form = ElanAdjustmentModel(seed=0).adjustment_time(
            "scale_out", model, 8, 16
        ).total
        assert adjustment.pause == pytest.approx(closed_form, rel=0.25)

    def test_scale_in_pause_is_fixed_costs_only(self):
        job = SimulatedElasticJob(RESNET50, workers=16, total_batch_size=512)
        job.at(10.0, lambda: job.request_scale_in(8))
        job.run(until=60.0)
        (adjustment,) = job.adjustments
        assert adjustment.kind is AdjustmentKind.SCALE_IN
        assert adjustment.pause < 0.5  # no replication
        assert len(job.group) == 8

    def test_scale_in_commits_quickly(self):
        """No reports to wait for: commit at the next boundary."""
        job = SimulatedElasticJob(RESNET50, workers=16, total_batch_size=512)
        job.at(10.0, lambda: job.request_scale_in(8))
        job.run(until=60.0)
        (adjustment,) = job.adjustments
        iteration_time = job.throughput.iteration_time(16, 512)
        assert adjustment.commit_time < 10.0 + 3 * iteration_time


class TestCoordinationInterval:
    def test_sparse_coordination_delays_commit(self):
        fast = scale_out_run(seed=1)
        slow_job = SimulatedElasticJob(
            RESNET50, workers=8, total_batch_size=256,
            coordination_interval=50, seed=1,
        )
        slow_job.at(10.0, lambda: slow_job.request_scale_out(8))
        slow_job.run(until=150.0)
        (fast_adj,) = fast.adjustments
        (slow_adj,) = slow_job.adjustments
        assert slow_adj.commit_time >= fast_adj.commit_time
        assert slow_adj.commit_time == pytest.approx(
            fast_adj.commit_time, abs=50 * fast.throughput.iteration_time(8, 256)
        )
