"""Externally issued resize directives (scheduler -> AM).

The cluster scheduler drives a job's grow/shrink through the same
``ADJUSTMENT_REQUEST`` a driver sends, with ``origin: "scheduler"``: the
AM journals the directive's *origin* and its pinned commit boundary, the
pin rounds up to the next coordination boundary, and — the regression
this file exists for — a scheduler-issued shrink accepted before an AM
crash still commits after a journal-replay failover.
"""

import time

import pytest

from repro.cluster import ElasticJobRunner, JobRequest
from repro.coordination.master import (
    AdjustmentKind,
    AdjustmentRequest,
    commit_boundary,
)
from repro.net import LocalJob


def make_runner(job_id, iterations=16, sleep=0.0, max_res=4):
    return ElasticJobRunner(
        JobRequest(
            job_id=job_id, iterations=iterations, max_res=max_res,
            iteration_sleep=sleep,
        ),
        transport="memory",
    )


def wait_progress(runner, target, timeout=15.0):
    """Block until the job has trained past ``target`` iterations.

    The live scheduler only resizes (and only fails over) jobs that are
    actually training; acting during the enroll/join window instead
    exercises a startup race no scheduling pass can produce.
    """
    deadline = time.monotonic() + timeout
    while runner.progress() < target:
        assert time.monotonic() < deadline, "no training progress"
        time.sleep(0.02)


class TestResizeMessage:
    def test_resize_journals_origin_and_pin(self):
        runner = make_runner("rz", iterations=16, sleep=0.02)
        runner.start(2)
        try:
            assert runner.resize(3, at_iteration=8)
            assert runner.master.wait_complete(timeout=30.0)
        finally:
            runner.close()
        assert not runner.errors
        requests = [
            r["data"] for r in runner.master.journal.records()
            if r["kind"] == "request"
        ]
        assert len(requests) == 1
        assert requests[0]["origin"] == "scheduler"
        assert requests[0]["at_iteration"] == 8
        # The pin is the commit boundary: the plan minted for this
        # request must commit exactly at iteration 8.
        plans = [
            r["data"] for r in runner.master.journal.records()
            if r["kind"] == "plan"
        ]
        assert plans and plans[0]["commit_iteration"] == 8
        digests = set(runner.digests().values())
        assert len(digests) == 1

    def test_pin_must_be_future_boundary(self):
        with pytest.raises(ValueError, match="at_iteration"):
            AdjustmentRequest(
                kind=AdjustmentKind.SCALE_OUT, add_workers=("w9",),
                at_iteration=0,
            ).validate(("w0",))

    def test_pin_rounds_up_to_coordination_boundary(self):
        # 6 rounded up to a boundary
        assert commit_boundary(0, interval=4, pin=6) == 8

    def test_late_pin_degrades_to_natural_boundary(self):
        # The pin is behind the workers: never schedule in the past.
        assert commit_boundary(10, interval=4, pin=4) == 12

    def test_second_resize_rejected_while_pending(self):
        runner = make_runner("busy", iterations=24, sleep=0.05)
        runner.start(1)
        try:
            assert runner.resize(2, at_iteration=12)
            # The AM accepts one adjustment at a time.
            assert not runner.resize(3, at_iteration=16)
            assert runner.master.wait_complete(timeout=30.0)
        finally:
            runner.close()
        assert not runner.errors
        assert len(runner.master.status()["group"]) == 2


class TestResizeSurvivesFailover:
    def test_scheduler_issued_shrink_survives_am_failover(self):
        """A shrink accepted pre-crash commits after journal replay."""
        runner = make_runner("fo", iterations=24, sleep=0.05)
        runner.start(3)
        try:
            wait_progress(runner, 2)
            assert runner.resize(2, at_iteration=16)
            # Kill the primary before the pinned boundary can commit.
            wait_progress(runner, 4)
            successor = runner.job.fail_over()
            assert successor.wait_complete(timeout=30.0)
        finally:
            runner.close()
        assert not runner.errors
        status = runner.master.status()
        # The successor re-drove the journaled shrink: it committed at
        # the pinned boundary and the group is down to two workers.
        assert status["adjustments_committed"] == 1
        assert sorted(status["group"]) == ["fo-w0", "fo-w1"]
        requests = [
            r["data"] for r in runner.master.journal.records()
            if r["kind"] == "request"
        ]
        assert requests[0]["origin"] == "scheduler"
        assert requests[0]["at_iteration"] == 16
        plans = [
            r["data"] for r in runner.master.journal.records()
            if r["kind"] == "plan"
        ]
        assert plans[-1]["commit_iteration"] == 16

    def test_resize_after_failover_reaches_successor(self):
        runner = make_runner("fo2", iterations=24, sleep=0.05)
        runner.start(2)
        try:
            wait_progress(runner, 2)
            successor = runner.job.fail_over()
            assert runner.resize(3, at_iteration=12)
            assert successor.wait_complete(timeout=30.0)
        finally:
            runner.close()
        assert not runner.errors
        assert len(runner.master.status()["group"]) == 3


class TestLeaseEvictionOrigin:
    def test_lease_eviction_journals_its_origin(self):
        """Auto-evictions and scheduler resizes are distinguishable."""
        from repro.net import JobSpec

        spec = JobSpec(
            iterations=40, coordination_interval=4, iteration_sleep=0.05,
            worker_lease_ttl=0.6, lease_check_interval=0.1,
            ring_enabled=False,
        )
        job = LocalJob("memory", spec, ["w0", "w1"])
        for worker_id, die_at in (("w0", None), ("w1", 8)):
            job.start_worker(
                worker_id,
                link_options={"ack_timeout": 0.2, "heartbeat_interval": 0.1},
                die_at_iteration=die_at,
            )
        try:
            # w1 dies at iteration 8 and its thread closes its link, so
            # nothing feeds its lease: the evictor condemns it (scale-in).
            assert job.master.wait_complete(timeout=30.0)
        finally:
            job.close()
        evictions = [
            r["data"] for r in job.master.journal.records()
            if r["kind"] == "request" and r["data"].get("auto")
        ]
        assert evictions
        assert evictions[0]["origin"] == "lease"
