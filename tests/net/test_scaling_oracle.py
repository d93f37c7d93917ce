"""Hybrid scaling on the networked stack, against a serial replay.

The AM decides each adjustment's total batch and LR ramp once, journals
it with the plan and ships it in the commit directive and the join
admission.  The oracle: a scripted in-memory job — weak scale-out 2→4
with a ramp, scale-in 4→3, then a whole-group migration — must end with
every replica on the digest a single thread computes by replaying the
journaled group sizes, total batches and learning rates, with the ring
plane on and with the star alone.
"""

import time

import pytest

from repro.coordination.messages import MessageType
from repro.core.hybrid_scaling import BatchSchedule, ScalingSpec
from repro.net import JobSpec

from .harness import Harness, serial_replay

RAMP = 6


def scaling_spec(ring_enabled):
    return JobSpec(
        iterations=36, coordination_interval=4, iteration_sleep=0.01,
        allreduce_timeout=10.0, sync_ack_timeout=1.0, seed=3,
        ring_enabled=ring_enabled,
        scaling=ScalingSpec("weak", ramp_iterations=RAMP),
    )


def wait_for_commits(driver, count, timeout=60.0):
    deadline = time.monotonic() + timeout
    while driver.request(MessageType.STATUS)["adjustments_committed"] < count:
        assert time.monotonic() < deadline, "adjustment stuck"
        time.sleep(0.01)


def request(driver, **payload):
    reply = driver.request(MessageType.ADJUSTMENT_REQUEST, payload)
    assert reply["accepted"] is True


@pytest.mark.parametrize("ring_enabled", [True, False], ids=["ring", "star"])
def test_scripted_history_ends_on_the_serial_replay(ring_enabled):
    spec = scaling_spec(ring_enabled)
    job = Harness("memory", spec, ["w0", "w1"], mesh=ring_enabled)
    try:
        driver = job.link("driver", ack_timeout=2.0)
        request(driver, kind="scale_out", add=["w2", "w3"], at_iteration=8)
        for worker in ("w0", "w1", "w2", "w3"):
            job.start_worker(worker)
        wait_for_commits(driver, 1)
        request(driver, kind="scale_in", remove=["w3"], at_iteration=16)
        wait_for_commits(driver, 2)
        request(
            driver, kind="migration", add=["w4", "w5", "w6"],
            remove=["w0", "w1", "w2"], at_iteration=24,
        )
        for worker in ("w4", "w5", "w6"):
            job.start_worker(worker)
        job.join_all()
        status = driver.request(MessageType.STATUS)
        records = job.master.journal.records()
    finally:
        job.close()

    assert status["complete"] and status["group"] == ["w4", "w5", "w6"]
    commits = [r["data"] for r in records if r["kind"] == "commit"]
    schedules = [BatchSchedule.from_payload(c["schedule"]) for c in commits]
    # Weak scaling doubles the batch and ramps the LR up over RAMP
    # iterations, shrinks both at the scale-in, and a migration keeps
    # the schedule in force.
    assert [s.total_batch_size for s in schedules] == [64, 48, 48]
    assert [s.strategy for s in schedules] == ["weak", "weak", "weak"]
    ramp = schedules[0].lr_ramp
    assert (ramp.length, ramp.target_lr) == (RAMP, 2 * spec.base_lr)
    assert schedules[2].lr_ramp == schedules[1].lr_ramp
    assert schedules[1].lr_ramp.target_lr == pytest.approx(
        1.5 * spec.base_lr
    )

    want = serial_replay(spec, records, spec.iterations)
    assert set(status["digests"].values()) == {want}
    # Every departed replica holds the replay of the iterations it ran.
    for worker in ("w0", "w1", "w2", "w3"):
        result = job.results[worker]
        assert result["removed"]
        ran = result["joined_at"] + result["iterations_run"]
        assert result["digest"] == serial_replay(spec, records, ran)
