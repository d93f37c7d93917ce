"""Property-based tests: the coordination protocol and its engine."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.coordination import (
    AdjustmentKind,
    AdjustmentRequest,
    ApplicationMaster,
    DirectiveKind,
    FaultPlan,
    MasterState,
    MessageType,
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
        am = ApplicationMaster("job", workers, coordination_interval=interval)
        new_workers = [f"n{i}" for i in range(add)]
        am.request_adjustment(
            AdjustmentRequest(AdjustmentKind.SCALE_OUT,
                              add_workers=tuple(new_workers))
        )
        latest = 0
        pending_reports = list(new_workers)
        report_order.shuffle(pending_reports)
        # Phase A: new workers still starting — every coordination must
        # say CONTINUE (the asynchronous guarantee), training never waits.
        for round_index in range(coordinate_rounds):
            iteration = round_index * interval
            for worker in workers:
                directive = am.coordinate(worker, iteration)
                assert directive.kind is DirectiveKind.CONTINUE
            latest = iteration
        # Phase B: every report arrives (in arbitrary order).
        for report in pending_reports:
            am.worker_report(report)
        assert am.commit_iteration > latest
        assert am.commit_iteration % interval == 0
        # Every worker sees ADJUST at that boundary.
        for worker in workers:
            directive = am.coordinate(worker, am.commit_iteration)
            assert directive.kind is DirectiveKind.ADJUST
            assert set(new_workers) <= set(directive.new_group)

    @given(
        group_size=st.integers(2, 8),
        remove=st.integers(1, 4),
    )
    @settings(max_examples=50, deadline=None)
    def test_scale_in_group_algebra(self, group_size, remove):
        if remove >= group_size:
            remove = group_size - 1
        workers = [f"w{i}" for i in range(group_size)]
        am = ApplicationMaster("job", workers)
        victims = tuple(workers[:remove])
        am.request_adjustment(
            AdjustmentRequest(AdjustmentKind.SCALE_IN, remove_workers=victims)
        )
        directive = am.coordinate(workers[-1], am.commit_iteration)
        assert set(directive.new_group) == set(workers) - set(victims)
        assert len(directive.new_group) == group_size - remove


KINDS = (
    AdjustmentKind.SCALE_OUT, AdjustmentKind.SCALE_IN,
    AdjustmentKind.MIGRATION,
)


class EngineDriver:
    """Turns abstract history steps into calls valid for the engine's
    position: requests for the current group, reports by pending
    joiners (or a stranger), whole-group coordinates at boundaries, and
    a finish only once an ADJUST directive was issued."""

    def __init__(self, interval):
        self.interval = interval
        self.iteration = 0
        self.next_id = 0

    def resolve(self, am, op, arg):
        """The concrete call ``(op, value)`` for ``am``'s position."""
        if op == "request":
            kind = KINDS[arg % 3]
            count = 1 + (arg // 3) % 2
            if kind is AdjustmentKind.SCALE_IN and len(am.group) < 2:
                kind = AdjustmentKind.SCALE_OUT
            fresh = tuple(f"n{self.next_id + i}" for i in range(count))
            self.next_id += count
            at = 3 * arg if arg >= 6 else None
            if kind is AdjustmentKind.SCALE_OUT:
                request = AdjustmentRequest(kind, add_workers=fresh,
                                            at_iteration=at)
            elif kind is AdjustmentKind.SCALE_IN:
                victims = am.group[-min(count, len(am.group) - 1):]
                request = AdjustmentRequest(kind, remove_workers=victims,
                                            at_iteration=at)
            else:
                request = AdjustmentRequest(kind, add_workers=fresh,
                                            remove_workers=am.group,
                                            at_iteration=at)
            return op, request
        if op == "report":
            joiners = (
                [] if am.pending is None
                else sorted(set(am.pending.add_workers) - am.reported)
            )
            if not joiners or arg % 4 == 3:
                return op, "stranger"
            return op, joiners[arg % len(joiners)]
        if op == "coordinate":
            self.iteration += (arg % 3) * self.interval
            return op, self.iteration
        adjusting = (
            am.state is MasterState.COMMIT_SCHEDULED
            and am.latest_iteration >= am.commit_iteration
        )
        return (op if adjusting else "skip"), None

    @staticmethod
    def perform(am, op, value):
        """Make the call; return what the engine answered plus where it
        now stands."""
        scheduled = am.state is MasterState.COMMIT_SCHEDULED
        answer = None
        if op == "request":
            answer = am.request_adjustment(value)
        elif op == "report":
            am.worker_report(value)
        elif op == "coordinate":
            answer = [
                (d.kind, d.new_group, d.commit_iteration)
                for d in (am.coordinate(w, value) for w in am.group)
            ]
        elif op == "finish":
            am.finish_adjustment()
        if not scheduled and am.state is MasterState.COMMIT_SCHEDULED:
            # Every commit is scheduled on a boundary no worker has
            # coordinated yet.
            assert am.commit_iteration % am.coordination_interval == 0
            assert am.commit_iteration > am.latest_iteration
        position = (
            am.state, am.group, am.pending, frozenset(am.reported),
            am.commit_iteration, am.latest_iteration,
            am.adjustments_committed,
        )
        return answer, position


def placed_successor(am):
    """A fresh engine placed by ``reposition`` where ``am`` stands —
    what a failover does with the journal fold."""
    successor = ApplicationMaster(
        am.job_id, ["placeholder"],
        coordination_interval=am.coordination_interval,
    )
    successor.reposition(
        am.state, am.group, am.pending, reported=am.reported,
        commit_iteration=am.commit_iteration,
        latest_iteration=am.latest_iteration,
        adjustments_committed=am.adjustments_committed,
    )
    return successor


class TestRepositionProperties:
    @given(
        group_size=st.integers(1, 4),
        interval=st.integers(1, 4),
        history=st.lists(
            st.tuples(
                st.sampled_from(["request", "report", "coordinate",
                                 "finish"]),
                st.integers(0, 11),
            ),
            max_size=30,
        ),
        cut=st.integers(0, 30),
    )
    @settings(max_examples=150, deadline=None)
    def test_repositioned_engine_answers_like_the_original(
        self, group_size, interval, history, cut
    ):
        """Whatever history an engine went through, a fresh engine
        placed by ``reposition`` at its position answers every later
        coordinate, report, request and finish exactly as it does —
        the engine's one way in loses nothing a successor needs."""
        workers = [f"w{i}" for i in range(group_size)]
        original = ApplicationMaster("job", workers,
                                     coordination_interval=interval)
        driver = EngineDriver(interval)
        cut = min(cut, len(history))
        for op, arg in history[:cut]:
            driver.perform(original, *driver.resolve(original, op, arg))
        successor = placed_successor(original)
        for op, arg in history[cut:]:
            op, value = driver.resolve(original, op, arg)
            assert driver.perform(successor, op, value) == driver.perform(
                original, op, value
            ), (op, value)


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

