"""Tests for messages, the lease supervisor, collectives and hooks."""

import threading
import time

import numpy as np
import pytest

from repro.coordination import (
    ExponentialBackoff,
    FaultPlan,
    Hook,
    HookRegistry,
    MessageFactory,
    MessageType,
)
from repro.net import (
    JobSpec,
    JournalState,
    NetworkedApplicationMaster,
    ReliableLink,
    RequestTimeout,
    ServerCore,
    memory_link,
)
from repro.net.leases import LeaseSupervisor
from repro.observability import MetricRegistry


def lossy_link(plan, **options):
    """A memory link under ``plan`` into a recording server."""
    seen = []
    core = ServerCore(
        handler=lambda message: seen.append(message.payload) or {}
    )
    return memory_link(core, "w0", fault_plan=plan, **options), core, seen


class TestMessages:
    def test_unique_ids(self):
        factory = MessageFactory()
        ids = {
            factory.make(MessageType.COORDINATE, "w0", {}).msg_id
            for _ in range(100)
        }
        assert len(ids) == 100

    def test_duplicate_keeps_id(self):
        msg = MessageFactory().make(MessageType.ACK, "am", {})
        assert msg.duplicate().msg_id == msg.msg_id

    def test_inbox_deduplicates(self):
        executed = []
        core = ServerCore(handler=lambda m: executed.append(m) or {"n": 1})
        msg = MessageFactory().make(MessageType.STATUS, "w4", {})
        assert core.dispatch(msg) == {"n": 1}
        assert core.dispatch(msg.duplicate()) == {"n": 1}  # cached reply
        assert len(executed) == 1
        assert core.duplicates == 1
        assert list(core._seen) == [("w4", msg.msg_id)]

    def test_channel_drops_every_nth(self):
        link, core, seen = lossy_link(FaultPlan(drop_every=2), max_attempts=1)
        for i in range(4):
            try:
                link.post(MessageType.COORDINATE, {"i": i})
            except RequestTimeout:
                pass
        assert [payload["i"] for payload in seen] == [0, 2]
        assert link.transport._faults.dropped == 2

    def test_channel_duplicates_every_nth(self):
        link, core, seen = lossy_link(FaultPlan(duplicate_every=3))
        for i in range(3):
            link.post(MessageType.COORDINATE, {"i": i})
        # 3 sends + 1 duplicate reached the server; dedup ran it once.
        assert core.handled + core.duplicates == 4
        assert len(seen) == 3

    def test_reliable_sender_retries_through_loss(self):
        """§V-D: unique IDs + resend on timeout survive a lossy channel."""
        link, core, seen = lossy_link(
            FaultPlan(drop_every=2), max_attempts=5, ack_timeout=0.01
        )
        for i in range(10):
            link.request(MessageType.COORDINATE, {"seq": i})
        # exactly once despite drops
        assert [payload["seq"] for payload in seen] == list(range(10))

    def test_reliable_sender_gives_up(self):
        link, _core, seen = lossy_link(
            FaultPlan(drop_every=1), max_attempts=3, ack_timeout=0.01
        )  # drops all
        with pytest.raises(RequestTimeout):
            link.request(MessageType.ACK)
        assert seen == []

    def test_sender_validates_attempts(self):
        with pytest.raises(ValueError):
            ReliableLink("w0", max_attempts=0)

    def test_sender_counts_retries_of_abandoned_sends(self):
        """Every re-attempt counts, even when the send ultimately fails —
        a sender that only counted successful deliveries under-reported
        exactly the pathological channels the counter exists to expose."""
        link, _core, _seen = lossy_link(FaultPlan(drop_every=1), max_attempts=4)
        with pytest.raises(RequestTimeout):
            link.post(MessageType.ACK)
        assert link.resends == 3  # attempts 2, 3 and 4

    def test_sender_backoff_spaces_resends(self):
        sleeps = []
        link, _core, _seen = lossy_link(FaultPlan(drop_every=1), max_attempts=4)
        link.backoff = ExponentialBackoff(
            base=0.01, factor=2.0, max_delay=1.0, sleeper=sleeps.append
        )
        with pytest.raises(RequestTimeout):
            link.post(MessageType.STATUS)
        assert sleeps == [0.01, 0.02, 0.04]  # exponential, per re-attempt


class TestLeases:
    """The AM's lease deadlines (``repro.net.leases.LeaseSupervisor``)
    under a test-controlled clock."""

    def _supervisor(self, ttl=5.0):
        clock = {"now": 0.0}
        state = JournalState()
        state.apply("init", {"job_id": "j", "spec": {}, "workers": ["w0"]})
        supervisor = LeaseSupervisor(
            JobSpec(worker_lease_ttl=ttl), state, threading.RLock(),
            lambda: clock["now"], MetricRegistry(), None,
            sweep=lambda: None,
        )
        return supervisor, state, clock

    def test_lease_expires_without_keep_alive(self):
        supervisor, _state, clock = self._supervisor()
        supervisor.renew("w0")
        assert supervisor.expired(set()) == []
        clock["now"] = 5.0
        assert supervisor.expired(set()) == [("w0", 5.0)]

    def test_keep_alive_extends_deadline(self):
        supervisor, _state, clock = self._supervisor()
        supervisor.renew("w0")
        clock["now"] = 4.0
        supervisor.renew("w0")
        clock["now"] = 8.0
        assert supervisor.expired(set()) == []
        assert supervisor.deadlines["w0"] == 9.0

    def test_keep_alive_without_lease_is_refused(self):
        """Only members hold leases: a stranger's message leases nothing,
        and a parked request renews only a lease that exists."""
        supervisor, _state, _clock = self._supervisor()
        supervisor.renew("ghost")
        assert supervisor.expired({"ghost"}) == []
        assert supervisor.deadlines == {}

    def test_expired_lease_can_be_revived(self):
        """The holder coming back before the supervisor acts is fine."""
        supervisor, _state, clock = self._supervisor(ttl=1.0)
        supervisor.renew("w0")
        clock["now"] = 2.0
        assert supervisor.expired(set()) == [("w0", 1.0)]
        supervisor.renew("w0")
        assert supervisor.expired(set()) == []

    def test_force_expire_revokes(self):
        """A condemned holder cannot revive its lease: its renewals are
        refused and no later sweep condemns it again — it has been
        fenced out."""
        supervisor, state, clock = self._supervisor(ttl=1.0)
        supervisor.renew("w0")
        clock["now"] = 2.0
        ((worker, deadline),) = supervisor.expired(set())
        state.apply("condemn", {"worker": worker})
        supervisor.condemned(worker, clock["now"], deadline)
        supervisor.renew("w0")
        assert "w0" not in supervisor.deadlines
        clock["now"] = 10.0
        assert supervisor.expired({"w0"}) == []
        assert supervisor.recovering == {"w0": 2.0}


class TestCollective:
    """The live stack's collective is the AM's SYNC barrier: every
    member of a generation posts its gradients and all get the mean."""

    @staticmethod
    def master(workers):
        return NetworkedApplicationMaster(
            JobSpec(ring_enabled=False), workers
        )

    @staticmethod
    def allreduce(master, contributions, iteration=0):
        results = {}

        def member(name, grads):
            results[name] = master.barriers.sync(name, {
                "generation": 0, "iteration": iteration, "grads": grads,
            })

        threads = [
            threading.Thread(target=member, args=item)
            for item in contributions.items()
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=5)
        return results

    def test_allreduce_averages(self):
        results = self.allreduce(self.master(["a", "b"]), {
            "a": {"g": np.array([1.0])}, "b": {"g": np.array([3.0])},
        })
        assert np.allclose(results["a"]["grads"]["g"], [2.0])
        assert np.allclose(results["b"]["grads"]["g"], [2.0])

    def test_multiple_rounds(self):
        master = self.master(["a", "b"])
        sums = [
            float(self.allreduce(master, {
                "a": {"g": np.array([a])}, "b": {"g": np.array([b])},
            }, iteration)["a"]["grads"]["g"][0])
            for iteration, (a, b) in enumerate([(1.0, 3.0), (10.0, 20.0)])
        ]
        assert sums == [2.0, 15.0]

    def test_none_contributions_skipped(self):
        results = self.allreduce(self.master(["a", "b"]), {
            "a": {"g": np.array([4.0])}, "b": None,
        })
        assert np.allclose(results["b"]["grads"]["g"], [4.0])

    def test_non_member_rejected(self):
        with pytest.raises(KeyError):
            self.master(["a"]).barriers.sync(
                "zz", {"generation": 0, "iteration": 0, "grads": None}
            )

    def test_single_member_immediate(self):
        out = self.master(["solo"]).barriers.sync("solo", {
            "generation": 0, "iteration": 0, "grads": {"g": np.array([5.0])},
        })
        assert np.allclose(out["grads"]["g"], [5.0])

    def test_abort_wakes_waiters(self):
        master = self.master(["a", "b"])
        results = []
        thread = threading.Thread(target=lambda: results.append(
            master.barriers.sync(
                "a", {"generation": 0, "iteration": 0, "grads": None}
            )
        ))
        thread.start()
        while not master.barriers.open:
            time.sleep(0.001)
        master.close()
        thread.join(timeout=5)
        assert "__error__" in results[0]

    def test_validation(self):
        with pytest.raises(ValueError):
            self.master([])
        with pytest.raises(ValueError):
            self.master(["a", "a"])

class TestHooks:
    class Ctx:
        def __init__(self):
            self.model = {"w": 1.0}
            self.extra = None

    def test_capture_restore_roundtrip(self):
        registry = HookRegistry()
        registry.register(Hook(
            "model",
            capture=lambda c: dict(c.model),
            restore=lambda c, s: c.model.update(s),
        ))
        source, target = self.Ctx(), self.Ctx()
        source.model["w"] = 42.0
        registry.restore_all(target, registry.capture_all(source))
        assert target.model["w"] == 42.0

    def test_user_hook_rides_along(self):
        """Table III: arbitrary user state joins replication via hooks."""
        registry = HookRegistry()
        registry.register(Hook(
            "extra",
            capture=lambda c: c.extra,
            restore=lambda c, s: setattr(c, "extra", s),
        ))
        source, target = self.Ctx(), self.Ctx()
        source.extra = {"ema": [1, 2, 3]}
        registry.restore_all(target, registry.capture_all(source))
        assert target.extra == {"ema": [1, 2, 3]}

    def test_missing_state_rejected(self):
        registry = HookRegistry()
        registry.register(Hook("a", lambda c: 1, lambda c, s: None))
        with pytest.raises(KeyError):
            registry.restore_all(self.Ctx(), {})

    def test_unregister(self):
        registry = HookRegistry()
        registry.register(Hook("a", lambda c: 1, lambda c, s: None))
        registry.unregister("a")
        assert registry.names == []
        with pytest.raises(KeyError):
            registry.unregister("a")

    def test_reregister_replaces(self):
        registry = HookRegistry()
        registry.register(Hook("a", lambda c: 1, lambda c, s: None))
        registry.register(Hook("a", lambda c: 2, lambda c, s: None))
        assert registry.capture_all(self.Ctx()) == {"a": 2}
