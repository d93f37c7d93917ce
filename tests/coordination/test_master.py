"""Tests for the AM state machine and the asynchronous coordination
mechanism (paper §II, §V-B)."""

import pytest

from repro.coordination import (
    AdjustmentKind,
    AdjustmentRequest,
    ApplicationMaster,
    DirectiveKind,
    MasterState,
)


@pytest.fixture
def am():
    return ApplicationMaster("job", ["w0", "w1", "w2", "w3"])


def coordinate_all(am, workers, iteration):
    return {w: am.coordinate(w, iteration) for w in workers}


class TestRequestValidation:
    def test_scale_out_must_add(self, am):
        with pytest.raises(ValueError):
            am.request_adjustment(AdjustmentRequest(AdjustmentKind.SCALE_OUT))

    def test_scale_in_cannot_empty_group(self, am):
        with pytest.raises(ValueError):
            am.request_adjustment(
                AdjustmentRequest(
                    AdjustmentKind.SCALE_IN,
                    remove_workers=("w0", "w1", "w2", "w3"),
                )
            )

    def test_cannot_add_existing_worker(self, am):
        with pytest.raises(ValueError):
            am.request_adjustment(
                AdjustmentRequest(AdjustmentKind.SCALE_OUT, add_workers=("w0",))
            )

    def test_cannot_remove_unknown_worker(self, am):
        with pytest.raises(ValueError):
            am.request_adjustment(
                AdjustmentRequest(AdjustmentKind.SCALE_IN, remove_workers=("w9",))
            )

    def test_migration_needs_both_sides(self, am):
        with pytest.raises(ValueError):
            am.request_adjustment(
                AdjustmentRequest(AdjustmentKind.MIGRATION, add_workers=("w9",))
            )

    def test_single_in_flight_adjustment(self, am):
        first = AdjustmentRequest(AdjustmentKind.SCALE_OUT, add_workers=("w4",))
        second = AdjustmentRequest(AdjustmentKind.SCALE_OUT, add_workers=("w5",))
        assert am.request_adjustment(first)
        assert not am.request_adjustment(second)

    def test_needs_at_least_one_worker(self):
        with pytest.raises(ValueError):
            ApplicationMaster("job", [])


class TestAsynchronousCoordination:
    """The §V-B property: training never waits for starting workers."""

    def test_continue_while_new_workers_start(self, am):
        am.request_adjustment(
            AdjustmentRequest(AdjustmentKind.SCALE_OUT, add_workers=("w4", "w5"))
        )
        # No reports yet: every coordination says continue.
        for iteration in range(5):
            for worker, directive in coordinate_all(
                am, am.group, iteration
            ).items():
                assert directive.kind is DirectiveKind.CONTINUE, worker

    def test_partial_reports_still_continue(self, am):
        am.request_adjustment(
            AdjustmentRequest(AdjustmentKind.SCALE_OUT, add_workers=("w4", "w5"))
        )
        coordinate_all(am, am.group, 3)
        am.worker_report("w4")  # w5 still starting
        for directive in coordinate_all(am, am.group, 4).values():
            assert directive.kind is DirectiveKind.CONTINUE

    def test_commit_after_all_reports_at_future_boundary(self, am):
        am.request_adjustment(
            AdjustmentRequest(AdjustmentKind.SCALE_OUT, add_workers=("w4", "w5"))
        )
        coordinate_all(am, am.group, 7)
        am.worker_report("w4")
        am.worker_report("w5")
        assert am.state is MasterState.COMMIT_SCHEDULED
        assert am.commit_iteration == 8  # strictly after the latest boundary
        directives = coordinate_all(am, am.group, 8)
        assert all(
            d.kind is DirectiveKind.ADJUST for d in directives.values()
        )

    def test_adjust_directive_carries_new_group(self, am):
        am.request_adjustment(
            AdjustmentRequest(AdjustmentKind.SCALE_OUT, add_workers=("w4",))
        )
        am.worker_report("w4")
        directive = am.coordinate("w0", am.commit_iteration)
        assert directive.new_group == ("w0", "w1", "w2", "w3", "w4")

    def test_stale_or_unknown_reports_ignored(self, am):
        am.worker_report("w99")  # no adjustment pending
        assert am.state is MasterState.RUNNING
        am.request_adjustment(
            AdjustmentRequest(AdjustmentKind.SCALE_OUT, add_workers=("w4",))
        )
        am.worker_report("w5")  # not part of this adjustment
        assert am.state is MasterState.WAITING_REPORTS

    def test_duplicate_reports_idempotent(self, am):
        am.request_adjustment(
            AdjustmentRequest(AdjustmentKind.SCALE_OUT, add_workers=("w4",))
        )
        am.worker_report("w4")
        commit = am.commit_iteration
        am.worker_report("w4")
        assert am.commit_iteration == commit

    def test_scale_in_commits_without_reports(self, am):
        am.request_adjustment(
            AdjustmentRequest(AdjustmentKind.SCALE_IN, remove_workers=("w3",))
        )
        assert am.state is MasterState.COMMIT_SCHEDULED
        directive = am.coordinate("w0", am.commit_iteration)
        assert directive.kind is DirectiveKind.ADJUST
        assert directive.new_group == ("w0", "w1", "w2")

    def test_migration_group_is_new_workers_only(self, am):
        am.request_adjustment(
            AdjustmentRequest(
                AdjustmentKind.MIGRATION,
                add_workers=("w4", "w5", "w6", "w7"),
                remove_workers=("w0", "w1", "w2", "w3"),
            )
        )
        for worker_id in ("w4", "w5", "w6", "w7"):
            am.worker_report(worker_id)
        directive = am.coordinate("w0", am.commit_iteration)
        assert directive.new_group == ("w4", "w5", "w6", "w7")

    def test_finish_adjustment_resets_state(self, am):
        am.request_adjustment(
            AdjustmentRequest(AdjustmentKind.SCALE_OUT, add_workers=("w4",))
        )
        am.worker_report("w4")
        am.coordinate("w0", am.commit_iteration)
        am.finish_adjustment()
        assert am.state is MasterState.RUNNING
        assert am.group == ("w0", "w1", "w2", "w3", "w4")
        assert am.pending is None
        assert am.adjustments_committed == 1

    def test_coordinate_unknown_worker_rejected(self, am):
        with pytest.raises(KeyError):
            am.coordinate("w99", 0)

    def test_coordination_interval_aligns_commit(self):
        am = ApplicationMaster("job", ["w0"], coordination_interval=5)
        am.coordinate("w0", 10)
        am.request_adjustment(
            AdjustmentRequest(AdjustmentKind.SCALE_OUT, add_workers=("w1",))
        )
        am.worker_report("w1")
        assert am.commit_iteration == 15  # next multiple of 5

