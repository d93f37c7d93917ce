"""Property-based tests: the coordination protocol and the AM's decisions."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.coordination import (
    AdjustmentKind,
    AdjustmentRequest,
    FaultPlan,
    MessageType,
    PendingAdjustment,
    adjusted_group,
    check_group,
)
from repro.net import ServerCore, memory_link


class TestAmProperties:
    @given(
        group_size=st.integers(1, 8),
        add=st.integers(1, 4),
        interval=st.integers(1, 8),
        coordinate_rounds=st.integers(0, 6),
        report_order=st.randoms(use_true_random=False),
    )
    @settings(max_examples=100, deadline=None)
    def test_commit_always_at_future_boundary(
        self, group_size, add, interval, coordinate_rounds, report_order
    ):
        """Whatever the interleaving of coordinations and reports, the
        commit lands on a boundary strictly after the last coordinated
        iteration — the invariant that keeps lockstep workers agreeing."""
        workers = [f"w{i}" for i in range(group_size)]
        check_group(workers, interval)
        new_workers = [f"n{i}" for i in range(add)]
        request = AdjustmentRequest(AdjustmentKind.SCALE_OUT,
                                    add_workers=tuple(new_workers))
        request.validate(workers)
        pending = PendingAdjustment(request, 0, interval)
        latest = 0
        pending_reports = list(new_workers)
        report_order.shuffle(pending_reports)
        # Phase A: new workers still starting — every coordination must
        # say continue (the asynchronous guarantee), training never waits.
        for round_index in range(coordinate_rounds):
            iteration = round_index * interval
            assert not pending.due(iteration)
            latest = iteration
        # Phase B: every report arrives (in arbitrary order).
        for report in pending_reports:
            pending.report(report, latest)
        assert pending.commit_iteration > latest
        assert pending.commit_iteration % interval == 0
        # Every worker adjusts at that boundary, into a group that
        # holds every joiner.
        assert pending.due(pending.commit_iteration)
        assert set(new_workers) <= set(adjusted_group(request, workers))

    @given(
        group_size=st.integers(2, 8),
        remove=st.integers(1, 4),
    )
    @settings(max_examples=50, deadline=None)
    def test_scale_in_group_algebra(self, group_size, remove):
        if remove >= group_size:
            remove = group_size - 1
        workers = [f"w{i}" for i in range(group_size)]
        victims = tuple(workers[:remove])
        request = AdjustmentRequest(AdjustmentKind.SCALE_IN,
                                    remove_workers=victims)
        request.validate(workers)
        pending = PendingAdjustment(request, 0, 1)
        assert pending.due(pending.commit_iteration)
        new_group = adjusted_group(request, workers)
        assert set(new_group) == set(workers) - set(victims)
        assert len(new_group) == group_size - remove


class TestReliableDeliveryProperties:
    @given(
        # drop_every=1 is a blackhole no retry can beat; exclude it.
        drop_every=st.sampled_from([0, 2, 3, 4, 5]),
        duplicate_every=st.integers(0, 5),
        messages=st.integers(1, 30),
    )
    @settings(max_examples=80, deadline=None)
    def test_exactly_once_under_arbitrary_faults(
        self, drop_every, duplicate_every, messages
    ):
        received = []
        core = ServerCore(handler=lambda m: received.append(m) or {})
        link = memory_link(
            core, "w0", max_attempts=10,
            fault_plan=FaultPlan(
                drop_every=drop_every, duplicate_every=duplicate_every
            ),
        )
        for i in range(messages):
            link.post(MessageType.COORDINATE, {"seq": i})
        assert [m.payload["seq"] for m in received] == list(range(messages))
        assert len({m.msg_id for m in received}) == messages

