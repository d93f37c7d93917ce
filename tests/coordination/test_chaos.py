"""Chaos soak: a composed FaultPlan against the self-healing runtime.

The acceptance scenario for the supervision layer: workers die silently
(detectable only by lease expiry), healthy workers are fenced out by
forced revocation, control-plane messages are dropped, and the AM crashes
and recovers mid-run — all injected deterministically from one
:class:`~repro.coordination.FaultPlan`, with **no manual recovery call**.
The run must end with consistent replicas, exactly-once data coverage,
the requested number of committed adjustments, a provably fenced stale
AM, and detection-latency / MTTR samples in the telemetry.
"""

import pytest

from repro.coordination import (
    Directive,
    DirectiveKind,
    ElasticRuntime,
    ExponentialBackoff,
    FaultPlan,
    MessageType,
    SimulatedElasticJob,
    StaleEpochError,
    params_consistent,
)
from repro.net import ServerCore, memory_link
from repro.perfmodel.models import TRANSFORMER
from repro.training import make_classification

# 960 % 48 == 0: epochs divide evenly into iterations, so the serial
# loader's position must equal (iterations * batch) % size exactly.
TRAIN_SIZE = 960
TOTAL_BATCH = 48


def _runtime(plan, workers=3, **kwargs):
    dataset = make_classification(
        train_size=TRAIN_SIZE, test_size=96, input_dim=8, seed=7
    )
    # Slow iterations down so supervision (50ms ticks) interleaves with
    # training instead of the run finishing before the first tick.
    delays = {f"w{i}": 0.02 for i in range(workers + 4)}
    return ElasticRuntime(
        dataset,
        initial_workers=workers,
        total_batch_size=TOTAL_BATCH,
        lease_ttl=0.2,
        supervision_interval=0.05,
        fault_plan=plan,
        iteration_delays=delays,
        **kwargs,
    )


def _assert_exactly_once_coverage(contexts):
    """Serial-loader invariant: no batch skipped, none issued twice."""
    positions = {c.loader.state_dict()["position"] for c in contexts}
    iterations = {c.runtime_info.iteration for c in contexts}
    epochs = {c.loader.epoch for c in contexts}
    assert len(positions) == len(iterations) == len(epochs) == 1
    iteration = iterations.pop()
    assert positions.pop() == (iteration * TOTAL_BATCH) % TRAIN_SIZE
    assert epochs.pop() == (iteration * TOTAL_BATCH) // TRAIN_SIZE


def test_silent_crash_self_heals_without_manual_recovery():
    """A FaultPlan-injected kill -9 is detected by lease expiry and the
    job repairs itself — recover_from_failure is never called by hand."""
    plan = FaultPlan(silent_crashes={"w2": 6})
    runtime = _runtime(plan)
    runtime.start()
    assert runtime.wait_until_iteration(25, timeout=60), "job never healed"
    runtime.stop()

    assert runtime.am.group == ("w0", "w1")
    assert runtime.worker_failures == {}
    # The detect half and the repair half are both visible in telemetry.
    assert len(runtime.telemetry.detection_latencies) == 1
    assert runtime.telemetry.mean_detection_latency() >= 0.0
    assert len(runtime.telemetry.mttr_samples) == 1
    assert runtime.telemetry.mean_mttr() > 0.0
    detected = runtime.telemetry.events_of_kind("failure_detected")
    assert [e.detail["worker"] for e in detected] == ["w2"]
    recoveries = runtime.telemetry.events_of_kind("recovery")
    assert [e.detail["removed"] for e in recoveries] == [["w2"]]

    contexts = runtime.final_contexts()
    assert params_consistent(contexts)
    _assert_exactly_once_coverage(contexts)


def test_forced_lease_expiry_fences_healthy_worker():
    """Revoking a healthy worker's lease evicts it: the worker fail-stops
    (it may not act without a live lease) and the group heals around it."""
    plan = FaultPlan(lease_expiries={"elan/job0/lease/w1": 0.0})
    runtime = _runtime(plan)
    runtime.start()
    assert runtime.wait_until_iteration(25, timeout=60), "job never healed"
    runtime.stop()

    assert runtime.am.group == ("w0", "w2")
    detected = runtime.telemetry.events_of_kind("failure_detected")
    assert [e.detail["worker"] for e in detected] == ["w1"]
    assert detected[0].detail["cause"] == "fenced"
    contexts = runtime.final_contexts()
    assert params_consistent(contexts)
    _assert_exactly_once_coverage(contexts)


def test_chaos_soak_composed_fault_plan():
    """The full storm at once: dropped messages, a silent worker crash
    mid-adjustment, an AM crash/recover, and a stale-epoch directive."""
    plan = FaultPlan(
        drop_every=3,
        silent_crashes={"w1": 8},
        am_crash_iteration=16,
    )
    runtime = _runtime(plan, startup_delay=0.1)
    stale_am = runtime.am
    runtime.start()

    # Phase 1: request a scale-out, then lose w1 while the new worker is
    # still starting — the adjustment must survive the recovery.
    assert runtime.wait_until_iteration(4, timeout=60)
    runtime.scale_out(1)
    assert runtime.wait_for_adjustments(1, timeout=60), "scale-out lost"
    assert runtime.wait_until_iteration(14, timeout=60), "job never healed"

    # Phase 2: the supervisor kills and recovers the AM at iteration 16.
    assert runtime.wait_until_iteration(24, timeout=60)
    runtime.stop()

    # The supervisor drove every repair; nothing was recovered manually.
    assert runtime.am is not stale_am
    assert runtime.am.epoch > stale_am.epoch
    assert "w1" not in runtime.am.group
    assert "w3" in runtime.am.group
    assert runtime.am.adjustments_committed == 1  # recovery is not one

    # The superseded incarnation is fenced: acting raises, a directive it
    # minted is rejected, and the rejection is logged.
    with pytest.raises(StaleEpochError):
        stale_am.coordinate("w0", 99)
    with pytest.raises(StaleEpochError):
        runtime._validate_directive(
            Directive(kind=DirectiveKind.CONTINUE, epoch=stale_am.epoch)
        )
    assert runtime.telemetry.events_of_kind("stale_directive_rejected")
    # The persisted snapshot carries the new incarnation's epoch.
    snapshot = runtime.store.get(f"elan/{runtime.am.job_id}/am")
    assert snapshot["epoch"] == runtime.am.epoch

    assert runtime.telemetry.events_of_kind("am_failover")
    assert runtime.telemetry.detection_latencies
    assert runtime.telemetry.mttr_samples

    contexts = runtime.final_contexts()
    assert params_consistent(contexts)
    _assert_exactly_once_coverage(contexts)

    # The same plan's lossy link still achieves delivery under the
    # retrying sender, and every re-attempt is accounted for.
    inbox = []
    core = ServerCore(handler=lambda m: inbox.append(m.payload) or {})
    link = memory_link(core, "w0", fault_plan=plan, ack_timeout=0.01)
    link.backoff = ExponentialBackoff(base=0.001, sleeper=lambda _s: None)
    for i in range(6):
        link.request(MessageType.HEARTBEAT, {"i": i})
    assert [payload["i"] for payload in inbox] == list(range(6))
    assert link.resends > 0
    assert link.backoff.waits == link.resends


def test_dessim_supervision_twin_matches_live_semantics():
    """The simulated supervisor heals the same faults on simulated time:
    deterministic detection latency, MTTR, and AM epoch bump."""
    plan = FaultPlan(
        silent_crashes={"w3": 40},
        lease_expiries={"elan/sim-job/lease/w2": 60.0},
        am_crash_iteration=80,
    )
    job = SimulatedElasticJob(
        TRANSFORMER, workers=4, total_batch_size=256,
        lease_ttl=5.0, fault_plan=plan,
    )
    stale_am = job.am
    job.run(until=300.0)

    assert job.am.group == ("w0", "w1")
    assert [w for w, _lat in job.detections] == ["w3", "w2"]
    # Detection cannot beat the supervision tick, and must catch an
    # expiry within one lease TTL plus one tick.
    for _worker, latency in job.detections:
        assert 0.0 <= latency <= job.lease_ttl + job.supervision_interval
    assert len(job.recoveries) == 2
    for _removed, mttr in job.recoveries:
        assert mttr > 0.0
    assert job.am.epoch > stale_am.epoch
    with pytest.raises(StaleEpochError):
        stale_am.coordinate("w0", 9999)
    # Determinism: the same plan replays to the same timeline.
    twin = SimulatedElasticJob(
        TRANSFORMER, workers=4, total_batch_size=256,
        lease_ttl=5.0, fault_plan=plan,
    )
    twin.run(until=300.0)
    assert twin.detections == job.detections
    assert twin.recoveries == job.recoveries
