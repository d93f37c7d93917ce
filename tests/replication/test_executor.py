"""Tests for replication execution (DES timing) and the
checkpoint baseline."""

import pytest

from repro.replication import (
    SharedStorage,
    SimulatedReplicationExecutor,
    checkpoint_load_cost,
    checkpoint_write_cost,
    plan_replication,
)
from repro.topology import BandwidthProfile, build_cluster, gpus_of

MB = 1024**2
GPU_BYTES = 200 * MB
CPU_BYTES = 4096


class TestSimulatedExecutor:
    @pytest.fixture
    def cluster(self):
        return build_cluster(2)

    def test_timeline_matches_plan_estimate(self, cluster):
        """The DES execution and the analytic estimate agree."""
        profile = BandwidthProfile()
        existing = gpus_of(cluster)[:4]
        new = gpus_of(cluster)[4:12]
        plan = plan_replication(existing, new, GPU_BYTES, CPU_BYTES)
        timeline = SimulatedReplicationExecutor(profile).execute(plan)
        assert timeline.makespan == pytest.approx(
            plan.estimated_time(profile), rel=0.01
        )

    def test_all_transfers_executed(self, cluster):
        existing = gpus_of(cluster)[:4]
        new = gpus_of(cluster)[4:10]
        plan = plan_replication(existing, new, GPU_BYTES, CPU_BYTES)
        timeline = SimulatedReplicationExecutor().execute(plan)
        assert len(timeline.records) == len(plan.transfers)

    def test_parallel_transfers_overlap_in_time(self, cluster):
        """Fig. 9's two replications overlap in the executed timeline."""
        existing = [gpus_of(cluster)[i] for i in (0, 1, 4, 8)]
        new = [gpus_of(cluster)[5], gpus_of(cluster)[12]]
        plan = plan_replication(existing, new, GPU_BYTES, CPU_BYTES)
        timeline = SimulatedReplicationExecutor().execute(plan)
        assert timeline.concurrent_pairs() >= 1

    def test_contending_transfers_do_not_overlap(self, cluster):
        """Two transfers from one source GPU must serialize."""
        existing = [gpus_of(cluster)[0]]
        new = [gpus_of(cluster)[1], gpus_of(cluster)[2]]
        plan = plan_replication(existing, new, GPU_BYTES, CPU_BYTES)
        timeline = SimulatedReplicationExecutor().execute(plan)
        assert timeline.concurrent_pairs() == 0

    def test_concurrency_shortens_makespan(self, cluster):
        """Concurrent replication beats one-source-for-all serialization."""
        profile = BandwidthProfile()
        gpus = gpus_of(cluster)
        # Existing workers spread across switches/nodes; each new worker
        # has a distinct same-switch source, so transfers can overlap.
        existing = [gpus[i] for i in (0, 4, 8, 12)]
        new = [gpus[i] for i in (1, 5, 9, 13)]
        concurrent = plan_replication(existing, new, GPU_BYTES, CPU_BYTES)
        serial = plan_replication(existing[:1], new, GPU_BYTES, CPU_BYTES)
        fast = SimulatedReplicationExecutor(profile).execute(concurrent)
        slow = SimulatedReplicationExecutor(profile).execute(serial)
        assert fast.makespan < slow.makespan

    def test_empty_plan_zero_makespan(self, cluster):
        plan = plan_replication(gpus_of(cluster)[:1], [], GPU_BYTES, CPU_BYTES)
        timeline = SimulatedReplicationExecutor().execute(plan)
        assert timeline.makespan == 0.0


class TestCheckpointBaseline:
    def test_write_cost_components_positive(self):
        cost = checkpoint_write_cost(GPU_BYTES, CPU_BYTES)
        assert cost.device_copy > 0
        assert cost.storage_io > 0
        assert cost.total == pytest.approx(
            cost.device_copy + cost.serialize + cost.storage_io
        )

    def test_checkpoint_slower_than_iofree_replication(self):
        """§V-B motivation: checkpoint involves IO + CPU-GPU copies that
        direct replication avoids."""
        cluster = build_cluster(1)
        gpus = gpus_of(cluster)
        plan = plan_replication(gpus[:1], gpus[1:2], GPU_BYTES, CPU_BYTES)
        direct = plan.estimated_time(BandwidthProfile())
        via_storage = (
            checkpoint_write_cost(GPU_BYTES, CPU_BYTES).total
            + checkpoint_load_cost(GPU_BYTES, CPU_BYTES).total
        )
        assert via_storage > 5 * direct

    def test_negative_sizes_rejected(self):
        with pytest.raises(ValueError):
            checkpoint_write_cost(-1, 0)
        with pytest.raises(ValueError):
            checkpoint_load_cost(0, -1)

    def test_shared_storage_roundtrip(self):
        storage = SharedStorage()
        blob = bytes(range(256)) * 4
        size = storage.save("job/ckpt-1", blob)
        assert size == len(blob)
        assert storage.exists("job/ckpt-1")
        assert storage.load("job/ckpt-1") == blob
        assert storage.writes == 1
        assert storage.reads == 1

    def test_shared_storage_missing_raises(self):
        with pytest.raises(KeyError):
            SharedStorage().load("nope")

    def test_shared_storage_delete_idempotent(self):
        storage = SharedStorage()
        storage.save("x", b"state")
        storage.delete("x")
        storage.delete("x")
        assert not storage.exists("x")


class TestExecutorTracing:
    def test_transfers_traced_with_link_class(self):
        from repro.observability import Tracer

        cluster = build_cluster(2)
        existing = gpus_of(cluster)[:4]
        new = gpus_of(cluster)[4:10]
        plan = plan_replication(existing, new, GPU_BYTES, CPU_BYTES)
        tracer = Tracer(process="replication")
        timeline = SimulatedReplicationExecutor(tracer=tracer).execute(plan)
        spans = tracer.spans("replicate.transfer")
        assert len(spans) == len(timeline.records)
        recorded = {
            (r.transfer.target.name, r.start, r.end)
            for r in timeline.records
        }
        for span in spans:
            assert (span.track, span.start, span.end) in recorded
            assert span.args["link"] in ("P2P", "SHM", "NET")
            assert "retries" not in span.args
