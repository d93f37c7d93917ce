"""Integration tests for the live elastic job — the full 5-step
adjustment procedure of paper Fig. 2, executed for real on the
networked stack (the AM and one agent thread per worker, in memory)."""

import time

import numpy as np
import pytest

from repro.coordination import Hook
from repro.coordination.messages import MessageType
from repro.core import ElasticJob
from repro.core.hybrid_scaling import ScalingSpec
from repro.training import make_classification


def live_job(workers=2, **spec):
    spec.setdefault("total_batch_size", 64)
    spec.setdefault("iterations", 60)
    spec.setdefault("iteration_sleep", 0.005)
    return ElasticJob(workers=workers, **spec)


def run_elastic(actions, **kwargs):
    """Run a job, applying ``actions`` (list of callables) in order,
    waiting for each adjustment to commit."""
    job = live_job(**kwargs)
    with job:
        for committed, action in enumerate(actions, 1):
            assert job.wait_until_iteration(
                job.status()["iteration"] + 3
            ), "training stalled"
            action(job)
            assert job.wait_for_adjustments(committed), "adjustment stuck"
    return job


def final_states(job):
    """Snapshot state of every worker of the final group."""
    return [
        job.job.agents[worker].final_state
        for worker in job.status()["group"]
    ]


class TestScaleOut:
    def test_group_grows_and_training_continues(self):
        job = run_elastic([lambda j: j.scale_out(2)], seed=1)
        assert len(job.status()["group"]) == 4
        assert job.status()["iteration"] > job.history[0].commit_iteration

    def test_replicas_stay_consistent(self):
        job = run_elastic([lambda j: j.scale_out(2)], seed=2)
        digests = job.digests()
        assert len(digests) == 4
        assert len(set(digests.values())) == 1

    def test_training_progresses_while_workers_start(self):
        """Asynchronous coordination: existing workers keep training
        between the request and the commit (no stop-the-world)."""
        job = live_job(seed=3, iteration_sleep=0.01)
        with job:
            assert job.wait_until_iteration(4)
            requested_at = job.status()["iteration"]
            job.scale_out(2)
            assert job.wait_for_adjustments(1)
        commit = job.history[0].commit_iteration
        assert commit > requested_at
        assert commit % job.coordination_interval == 0

    def test_strong_scaling_keeps_total_batch(self):
        job = run_elastic([lambda j: j.scale_out(2)], seed=4)
        plan = job.history[0]
        assert plan.total_batch_size == 64
        assert plan.strategy == "strong"
        assert plan.schedule.lr_ramp.target_lr == job.spec.base_lr

    def test_weak_scaling_grows_batch_and_ramps_lr(self):
        job = run_elastic(
            [lambda j: j.scale_out(2)], seed=5, base_lr=0.05,
            scaling=ScalingSpec("weak", ramp_iterations=10),
        )
        plan = job.history[0]
        assert plan.total_batch_size == 128
        assert plan.strategy == "weak"
        ramp = plan.schedule.lr_ramp
        assert ramp.start_iteration == plan.commit_iteration
        assert ramp.length == 10
        assert ramp.target_lr == pytest.approx(0.1)
        assert job.status()["learning_rate"] == pytest.approx(0.1)


class TestScaleIn:
    def test_group_shrinks(self):
        job = run_elastic([lambda j: j.scale_in(1)], workers=3, seed=6,
                          total_batch_size=48)
        assert job.status()["group"] == ("w0", "w1")

    def test_removed_worker_thread_exits(self):
        job = run_elastic([lambda j: j.scale_in(1)], workers=3, seed=7,
                          total_batch_size=48)
        result = job.job.results["w2"]
        assert result["removed"]
        assert result["joined_at"] + result["iterations_run"] == (
            job.history[0].commit_iteration
        )


class TestMigration:
    def test_whole_job_moves(self):
        job = run_elastic([lambda j: j.migrate()], seed=8)
        assert job.status()["group"] == ("w2", "w3")
        assert len(set(job.digests().values())) == 1

    def test_migrated_job_keeps_learning(self):
        job = run_elastic([lambda j: j.migrate()], seed=9)
        # Iterations continued past the migration commit.
        assert (
            job.status()["iteration"]
            > job.history[0].commit_iteration + 3
        )


class TestDataConsistencyAndEquivalence:
    def test_elastic_run_matches_serial_trajectory_before_adjustment(self):
        """Without an adjustment, the elastic job's parameters equal a
        plain single-process run with the same total batch — data-parallel
        + serial loading is exactly-once and deterministic."""
        job = live_job(workers=4, base_lr=0.05, seed=10, iterations=12,
                       hidden_dim=32, ring_enabled=False)
        with job:
            pass
        from repro.training import (
            MomentumSGD, SerialLoader, init_mlp, loss_and_gradients,
        )
        spec = job.spec
        dataset = make_classification(
            train_size=spec.train_size, test_size=spec.test_size,
            input_dim=spec.input_dim, num_classes=spec.num_classes,
            seed=spec.seed,
        )
        params = init_mlp(dataset.input_dim, 32, dataset.num_classes, seed=10)
        optimizer = MomentumSGD(lr=0.05)
        loader = SerialLoader(dataset.train_size, seed=10)
        for _ in range(spec.iterations):
            (indices,) = loader.next_iteration(1, 64)
            _loss, grads = loss_and_gradients(
                params, dataset.train_x[indices], dataset.train_y[indices]
            )
            optimizer.step(params, grads)
        final = job.final_params()
        for name in params:
            assert np.allclose(params[name], final[name], atol=1e-10)

    def test_serial_loader_positions_agree_after_adjustment(self):
        job = run_elastic([lambda j: j.scale_out(2)], seed=11)
        loaders = [state["loader"] for state in final_states(job)]
        assert len({loader["position"] for loader in loaders}) == 1
        assert len({loader["epoch"] for loader in loaders}) == 1

    def test_multiple_adjustments_in_sequence(self):
        job = run_elastic(
            [
                lambda j: j.scale_out(2),
                lambda j: j.scale_in(1),
                lambda j: j.migrate(),
            ],
            seed=12, iterations=80,
        )
        assert job.status()["adjustments"] == 3
        assert len(set(job.digests().values())) == 1

    def test_concurrent_adjustment_rejected(self):
        job = live_job(seed=13, iteration_sleep=0.02)
        with job:
            job.scale_out(1)
            with pytest.raises(RuntimeError):
                job.scale_out(1)
            assert job.wait_for_adjustments(1, timeout=10)


class TestHooksInRuntime:
    def test_user_hook_state_replicated_to_new_workers(self):
        """RegisterHook (Table III): custom state reaches new workers."""
        job = live_job(seed=14)
        marker = {"token": "user-state-123"}
        job.register_hook(Hook(
            name="user",
            capture=lambda replica: dict(marker),
            restore=lambda replica, s: setattr(replica, "user_state", s),
        ))
        with job:
            job.wait_until_iteration(3)
            job.scale_out(1)
            assert job.wait_for_adjustments(1)
        assert job.job.agents["w2"].replica.user_state == marker


class TestStopProtocol:
    def test_stop_before_any_adjustment(self):
        job = live_job(workers=3, total_batch_size=48, seed=17)
        with job:
            job.wait_until_iteration(5)
        assert not any(thread.is_alive() for thread in job.job._threads)

    def test_stop_cancels_pending_adjustment(self):
        """The budget ends under an adjustment whose joiner never
        reported: nothing commits and the job still ends."""
        job = live_job(seed=18, iterations=12)
        with job:
            job.wait_until_iteration(3)
            reply = job.driver.request(
                MessageType.ADJUSTMENT_REQUEST,
                {"kind": "scale_out", "add": ["absent"]},
            )
            assert reply["accepted"]
        assert job.status()["adjustments"] == 0
        assert job.status()["complete"]

    def test_all_workers_stop_at_same_iteration(self):
        job = live_job(workers=4, seed=19)
        with job:
            job.wait_until_iteration(10)
        reports = job.master.state.final
        assert {report["iteration"] for report in reports.values()} == {
            job.spec.iterations
        }


class TestStopRacingCommit:
    """Regression: a worker scaled in at the very end must leave, not
    strand the others at the closing barrier."""

    def test_stop_immediately_after_commit_never_strands(self):
        for attempt in range(6):
            job = live_job(total_batch_size=32, seed=100 + attempt,
                           iterations=16)
            job.start()
            assert job.wait_until_iteration(4)
            job.scale_in(1)
            assert job.wait_for_adjustments(1, timeout=10)
            started = time.monotonic()
            job.stop(timeout=10)
            assert time.monotonic() - started < 5.0, (
                f"attempt {attempt}: stop stalled"
            )
            assert not any(thread.is_alive() for thread in job.job._threads)
