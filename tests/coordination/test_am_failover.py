"""Live AM fail-over (§V-D): the job survives losing its master.

Every takeover is :func:`repro.net.promote` — fence the old incarnation,
replay its journal, serve the successor — driven here through
``LocalJob.fail_over`` under an :class:`~repro.core.ElasticJob`.
"""

import time

from repro.core import ElasticJob


def live_job(workers=2, **spec):
    spec.setdefault("total_batch_size", 16 * workers)
    spec.setdefault("iterations", 48)
    spec.setdefault("iteration_sleep", 0.01)
    spec.setdefault("ring_enabled", False)
    return ElasticJob(workers=workers, **spec)


class TestAmFailover:
    def test_training_unaffected(self):
        job = live_job(workers=3, seed=1)
        with job:
            assert job.wait_until_iteration(5)
            job.job.fail_over()
            before = job.status()["iteration"]
            assert job.wait_until_iteration(before + 10)
        assert job.master.epoch == 2
        assert len(set(job.digests().values())) == 1
        assert len(job.digests()) == 3

    def test_inflight_adjustment_survives_failover(self):
        """The AM dies after a scale-out was requested but before it
        committed; the successor completes it from the journal."""
        job = live_job(seed=2)
        with job:
            assert job.wait_until_iteration(3)
            job.scale_out(2)
            job.job.fail_over()  # mid-adjustment
            assert job.wait_for_adjustments(1, timeout=15)
        assert len(job.status()["group"]) == 4
        assert len(set(job.digests().values())) == 1

    def test_repeated_failovers(self):
        job = live_job(seed=3, iterations=60)
        with job:
            for _ in range(3):
                assert job.wait_until_iteration(
                    job.status()["iteration"] + 3
                )
                job.job.fail_over()
            job.scale_in(1)
            assert job.wait_for_adjustments(1)
        assert job.master.epoch == 4
        assert len(job.status()["group"]) == 1

    def test_failover_recorded_in_telemetry(self):
        job = live_job(seed=4)
        with job:
            job.wait_until_iteration(2)
            successor = job.job.fail_over()
        assert successor.metrics.snapshot()["am.failover"] == 1
        epochs = [
            r["data"]["epoch"] for r in successor.journal.records()
            if r["kind"] == "epoch"
        ]
        assert epochs == [1, 2]
        assert successor.state.job_id == "elastic"


class TestFailoverBoundaryInvariant:
    """Regression: a successor AM must not schedule commits in the past.

    The journaled progress watermark lags the workers (one record per
    boundary); an adjustment requested right after fail-over must still
    land its commit boundary at or ahead of them.
    """

    def test_commit_after_failover_is_in_the_future(self):
        job = live_job(seed=5)
        with job:
            assert job.wait_until_iteration(12)
            job.job.fail_over()
            at_request = job.status()["iteration"]
            job.scale_in(1)  # immediately, before any coordination
            assert job.wait_for_adjustments(1, timeout=10)
        assert job.history[0].commit_iteration >= at_request
        # Nobody got stranded at an abandoned barrier.
        assert not any(thread.is_alive() for thread in job.job._threads)
        assert not job.job.errors

    def test_repeated_failover_scale_in_never_stalls(self):
        for attempt in range(3):
            job = live_job(seed=6 + attempt, iterations=24)
            job.start()
            assert job.wait_until_iteration(5)
            job.job.fail_over()
            job.scale_in(1)
            assert job.wait_for_adjustments(1, timeout=10)
            started = time.monotonic()
            job.stop(timeout=10)
            assert time.monotonic() - started < 5.0, "stop stalled"
