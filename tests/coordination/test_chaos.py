"""Chaos soak: composed faults against the self-healing networked job.

The acceptance scenario for the supervision layer: workers die silently
(detectable only by lease expiry), a healthy worker is fenced out when
its lease lapses, control-plane messages are dropped, and the AM is
killed and promoted from its journal mid-run — all injected
deterministically, with **no manual recovery call**.  The run must end
with consistent replicas, one total batch consumed per iteration, the
requested adjustments committed, a provably fenced stale AM, and the
evictions counted.
"""

import time

from repro.coordination import (
    ExponentialBackoff,
    FaultPlan,
    Message,
    MessageType,
)
from repro.net import JobSpec, LocalJob, ServerCore, memory_link

# 960 % 48 == 0: epochs divide evenly into iterations, so the serial
# loader's position must equal (iterations * batch) % size exactly.
TRAIN_SIZE = 960
TOTAL_BATCH = 48


def _job(**overrides):
    spec = dict(
        train_size=TRAIN_SIZE, test_size=96, input_dim=8,
        total_batch_size=TOTAL_BATCH, iterations=32,
        coordination_interval=4, iteration_sleep=0.02,
        worker_lease_ttl=0.4, lease_check_interval=0.05,
        ring_enabled=False, seed=7,
    )
    spec.update(overrides)
    return LocalJob("memory", JobSpec(**spec), ["w0", "w1", "w2"])


def _wait(job, predicate, timeout=60.0):
    deadline = time.monotonic() + timeout
    while not predicate(job.master.status()):
        assert time.monotonic() < deadline, job.master.status()
        time.sleep(0.01)


def _finish(job):
    try:
        assert job.master.wait_complete(60.0), job.master.status()
        assert job.join(10.0)
        assert not job.errors, job.errors
        return job.master.status()
    finally:
        job.close()


def _assert_exactly_once_coverage(job, status):
    """Serial-loader invariant: every iteration consumed one total batch
    and every replica agrees on where the loader stands."""
    loaders = [
        job.agents[worker].final_state["loader"]
        for worker in status["group"]
    ]
    iterations = job.master.spec.iterations
    assert {loader["position"] for loader in loaders} == {
        (iterations * TOTAL_BATCH) % TRAIN_SIZE
    }
    assert {loader["epoch"] for loader in loaders} == {
        (iterations * TOTAL_BATCH) // TRAIN_SIZE
    }


def test_silent_crash_self_heals_without_manual_recovery():
    """A kill -9 (the worker thread vanishes at iteration 6) is detected
    by lease expiry and the job repairs itself — no recovery call."""
    job = _job()
    for worker in ("w0", "w1", "w2"):
        job.start_worker(worker, die_at_iteration=6 if worker == "w2" else None)
    status = _finish(job)

    assert status["group"] == ["w0", "w1"]
    assert job.killed == ["w2"]
    kinds = [r["kind"] for r in job.master.journal.records()]
    assert kinds.count("condemn") == 1 and kinds.count("commit") == 1
    metrics = job.master.metrics.snapshot()
    assert metrics["am.evictions"] == 1
    assert len(set(status["digests"].values())) == 1
    _assert_exactly_once_coverage(job, status)


def test_forced_lease_expiry_fences_healthy_worker():
    """A healthy worker whose lease lapses (its link stalls for longer
    than the TTL) is condemned and fenced: when it comes back it learns
    it was evicted and departs, and the group heals around it."""
    job = _job()
    stall = FaultPlan(net_delays={12: 1.5})
    for worker in ("w0", "w1", "w2"):
        job.start_worker(
            worker,
            link_options={"fault_plan": stall} if worker == "w1" else None,
        )
    status = _finish(job)

    assert status["group"] == ["w0", "w2"]
    assert status["condemned"] == ["w1"]
    assert job.results["w1"]["removed"]
    assert len(set(status["digests"].values())) == 1
    _assert_exactly_once_coverage(job, status)


def test_chaos_soak_composed_fault_plan():
    """The full storm at once: dropped messages, a silent worker crash
    while a scale-out is in flight, and an AM kill and promotion."""
    # A dropped SYNC is resent after 0.1 s, well inside the lease TTL.
    job = _job(iterations=40, sync_ack_timeout=0.1, worker_lease_ttl=1.0)
    lossy = FaultPlan(drop_every=3)
    for worker in ("w0", "w1", "w2"):
        job.start_worker(
            worker, link_options={"fault_plan": lossy, "ack_timeout": 0.2},
            die_at_iteration=8 if worker == "w1" else None,
        )
    driver = job.link("driver")
    _wait(job, lambda status: status["iteration"] >= 4)
    assert driver.request(MessageType.ADJUSTMENT_REQUEST, {
        "kind": "scale_out", "add": ["w3"],
    })["accepted"]
    job.start_worker("w3", link_options={"fault_plan": lossy,
                                         "ack_timeout": 0.2})
    _wait(job, lambda status: status["iteration"] >= 16)
    stale = job.master
    successor = job.fail_over()
    status = _finish(job)

    assert successor.epoch == stale.epoch + 1
    assert "w1" not in status["group"]
    assert "w3" in status["group"]
    # The scale-out and w1's eviction.
    assert status["adjustments_committed"] == 2
    # The superseded incarnation is fenced: it answers nothing but a
    # retryable "superseded".
    reply = stale.handle(Message(1, MessageType.STATUS, "w0", {}))
    assert reply["__retry__"] == "am_superseded"
    assert successor.metrics.snapshot()["am.failover"] == 1
    assert len(set(status["digests"].values())) == 1
    _assert_exactly_once_coverage(job, status)

    # The same plan's lossy link still achieves delivery under the
    # retrying sender, and every re-attempt is accounted for.
    inbox = []
    core = ServerCore(handler=lambda m: inbox.append(m.payload) or {})
    link = memory_link(core, "w0", fault_plan=lossy, ack_timeout=0.01)
    link.backoff = ExponentialBackoff(base=0.001, sleeper=lambda _s: None)
    for i in range(6):
        link.request(MessageType.STATUS, {"i": i})
    assert [payload["i"] for payload in inbox] == list(range(6))
    assert link.resends > 0
    assert link.backoff.waits == link.resends
