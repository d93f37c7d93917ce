"""Tests for worker-crash handling and checkpoint-free recovery.

Extension beyond the paper's §V-D (which covers AM failures): because
every worker holds the full state replica, worker crashes lose no state.
On the networked stack a dead worker stops renewing its lease; the AM
condemns it, releases the barrier it stalls, and commits its eviction as
a scale-in at the next boundary — no manual recovery call.
"""

import time

from repro.coordination.messages import MessageType
from repro.net import JobSpec, LocalJob


def lease_job(workers, deaths=None, **overrides):
    spec = dict(
        iterations=40, coordination_interval=4, iteration_sleep=0.02,
        total_batch_size=16 * len(workers), worker_lease_ttl=0.4,
        lease_check_interval=0.05, ring_enabled=False,
    )
    spec.update(overrides)
    job = LocalJob("memory", JobSpec(**spec), workers)
    for worker in workers:
        job.start_worker(
            worker, die_at_iteration=(deaths or {}).get(worker)
        )
    return job


def run_to_completion(job, timeout=60.0):
    try:
        assert job.master.wait_complete(timeout), job.master.status()
        assert job.join(10.0)
        assert not job.errors, job.errors
        return job.master.status()
    finally:
        job.close()


class TestCrashDetection:
    def test_crash_is_recorded(self):
        job = lease_job(["w0", "w1", "w2"], deaths={"w1": 6}, seed=1)
        status = run_to_completion(job)
        assert job.killed == ["w1"]
        assert status["condemned"] == ["w1"]
        assert status["departed"] == ["w1"]
        assert job.master.metrics.snapshot()["am.evictions"] == 1

    def test_survivors_do_not_hang(self):
        """The dead worker's barrier is released over the survivors, so
        they unblock instead of waiting out the allreduce timeout."""
        job = lease_job(["w0", "w1", "w2"], deaths={"w0": 6}, seed=2)
        started = time.monotonic()
        run_to_completion(job)
        assert time.monotonic() - started < job.master.spec.allreduce_timeout
        assert not any(thread.is_alive() for thread in job._threads)


class TestRecovery:
    def test_training_resumes_without_state_loss(self):
        job = lease_job(["w0", "w1", "w2"], deaths={"w2": 6}, seed=3)
        status = run_to_completion(job)
        assert status["group"] == ["w0", "w1"]
        assert sorted(status["digests"]) == ["w0", "w1"]
        assert len(set(status["digests"].values())) == 1
        assert status["complete"]

    def test_recovery_without_failures_is_noop(self):
        job = lease_job(["w0", "w1"], seed=5)
        while job.master.status()["iteration"] < 8:
            time.sleep(0.01)
        assert job.master.check_leases() == []
        status = run_to_completion(job)
        assert status["condemned"] == []
        assert status["adjustments_committed"] == 0

    def test_recovered_job_can_scale_again(self):
        """Elasticity still works after a recovery (fresh generation)."""
        job = lease_job(["w0", "w1", "w2"], deaths={"w1": 4}, seed=6,
                        iterations=60)
        driver = job.link("driver")
        while job.master.status()["adjustments_committed"] < 1:
            time.sleep(0.01)
        assert driver.request(MessageType.ADJUSTMENT_REQUEST, {
            "kind": "scale_out", "add": ["w3", "w4"],
        })["accepted"]
        job.start_worker("w3")
        job.start_worker("w4")
        status = run_to_completion(job)
        assert status["group"] == ["w0", "w2", "w3", "w4"]
        assert len(set(status["digests"].values())) == 1

    def test_total_loss_rejected(self):
        """A lone worker's death cannot be repaired by a scale-in: it is
        condemned, but no eviction removing every worker is minted."""
        job = lease_job(["w0"], deaths={"w0": 4}, seed=7)
        try:
            deadline = time.monotonic() + 10.0
            while not job.master.status()["condemned"]:
                assert time.monotonic() < deadline, "death never detected"
                time.sleep(0.01)
            status = job.master.status()
            assert status["condemned"] == ["w0"]
            assert not status["adjustment_pending"]
            assert status["adjustments_committed"] == 0
        finally:
            job.close()
