"""Tests for the AM's decisions and the asynchronous coordination
mechanism (paper §II, §V-B)."""

import pytest

from repro.coordination import (
    AdjustmentKind,
    AdjustmentRequest,
    MessageType,
    PendingAdjustment,
    SimulatedElasticJob,
    adjusted_group,
    check_group,
    commit_boundary,
)
from repro.net import (
    JobSpec,
    NetworkedApplicationMaster,
    RemoteError,
    memory_link,
)
from repro.perfmodel import RESNET50

GROUP = ("w0", "w1", "w2", "w3")


def scale_out(*workers, latest=0, interval=1):
    return PendingAdjustment(
        AdjustmentRequest(AdjustmentKind.SCALE_OUT, add_workers=workers),
        latest, interval,
    )


@pytest.fixture
def net():
    master = NetworkedApplicationMaster(JobSpec(ring_enabled=False), GROUP)
    link = memory_link(master.core, "driver")
    yield master, link
    link.close()
    master.close()


class TestRequestValidation:
    def test_scale_out_must_add(self):
        with pytest.raises(ValueError):
            AdjustmentRequest(AdjustmentKind.SCALE_OUT).validate(GROUP)

    def test_scale_in_cannot_empty_group(self):
        with pytest.raises(ValueError):
            AdjustmentRequest(
                AdjustmentKind.SCALE_IN, remove_workers=GROUP,
            ).validate(GROUP)

    def test_cannot_add_existing_worker(self):
        with pytest.raises(ValueError):
            AdjustmentRequest(
                AdjustmentKind.SCALE_OUT, add_workers=("w0",),
            ).validate(GROUP)

    def test_cannot_remove_unknown_worker(self):
        with pytest.raises(ValueError):
            AdjustmentRequest(
                AdjustmentKind.SCALE_IN, remove_workers=("w9",),
            ).validate(GROUP)

    def test_migration_needs_both_sides(self):
        with pytest.raises(ValueError):
            AdjustmentRequest(
                AdjustmentKind.MIGRATION, add_workers=("w9",),
            ).validate(GROUP)

    def test_single_in_flight_adjustment(self, net):
        _master, link = net
        first = {"kind": "scale_out", "add": ["w4"]}
        second = {"kind": "scale_out", "add": ["w5"]}
        assert link.request(MessageType.ADJUSTMENT_REQUEST, first)["accepted"]
        assert not link.request(
            MessageType.ADJUSTMENT_REQUEST, second
        )["accepted"]

    def test_needs_at_least_one_worker(self):
        with pytest.raises(ValueError):
            check_group([], 1)


class TestAsynchronousCoordination:
    """The §V-B property: training never waits for starting workers."""

    def test_continue_while_new_workers_start(self):
        pending = scale_out("w4", "w5")
        # No reports yet: every coordination says continue.
        for iteration in range(5):
            assert not pending.due(iteration)

    def test_partial_reports_still_continue(self):
        pending = scale_out("w4", "w5")
        pending.report("w4", latest=3)  # w5 still starting
        assert not pending.due(4)

    def test_commit_after_all_reports_at_future_boundary(self):
        pending = scale_out("w4", "w5")
        pending.report("w4", latest=7)
        pending.report("w5", latest=7)
        assert pending.commit_iteration == 8  # strictly after the latest
        assert not pending.due(7)
        assert pending.due(8)

    def test_adjust_directive_carries_new_group(self):
        request = AdjustmentRequest(
            AdjustmentKind.SCALE_OUT, add_workers=("w4",),
        )
        assert adjusted_group(request, GROUP) == (
            "w0", "w1", "w2", "w3", "w4",
        )

    def test_stale_or_unknown_reports_ignored(self):
        pending = scale_out("w4")
        pending.report("w5", latest=0)  # not part of this adjustment
        assert pending.reported == set()
        assert pending.commit_iteration is None

    def test_duplicate_reports_idempotent(self):
        pending = scale_out("w4")
        pending.report("w4", latest=0)
        commit = pending.commit_iteration
        pending.report("w4", latest=5)
        assert pending.commit_iteration == commit

    def test_scale_in_commits_without_reports(self):
        request = AdjustmentRequest(
            AdjustmentKind.SCALE_IN, remove_workers=("w3",),
        )
        pending = PendingAdjustment(request, latest=0, interval=1)
        assert pending.due(pending.commit_iteration)
        assert adjusted_group(request, GROUP) == ("w0", "w1", "w2")

    def test_migration_group_is_new_workers_only(self):
        request = AdjustmentRequest(
            AdjustmentKind.MIGRATION,
            add_workers=("w4", "w5", "w6", "w7"),
            remove_workers=GROUP,
        )
        assert adjusted_group(request, GROUP) == ("w4", "w5", "w6", "w7")

    def test_finish_adjustment_resets_state(self):
        job = SimulatedElasticJob(RESNET50, workers=4, seed=1)
        job.at(1.0, lambda: job.request_scale_out(1))
        job.run(until=120.0)
        assert len(job.adjustments) == 1
        assert job.group == ("w0", "w1", "w2", "w3", "w4")
        assert job.pending is None

    def test_coordinate_unknown_worker_rejected(self, net):
        master, _link = net
        stranger = memory_link(master.core, "w99")
        try:
            with pytest.raises(RemoteError, match="KeyError"):
                stranger.request(MessageType.COORDINATE, {"iteration": 0})
        finally:
            stranger.close()

    def test_coordination_interval_aligns_commit(self):
        pending = scale_out("w1", latest=10, interval=5)
        pending.report("w1", latest=10)
        assert pending.commit_iteration == 15  # next multiple of 5
        assert commit_boundary(10, 5) == 15
