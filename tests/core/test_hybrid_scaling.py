"""Tests for Algorithm 1 (hybrid scaling) and the scaling policies."""

import pytest

from repro.core import (
    HybridScalingPolicy,
    StrongScalingPolicy,
    WeakScalingPolicy,
)
from repro.core.hybrid_scaling import BatchSchedule, ScalingSpec
from repro.perfmodel import RESNET50, ThroughputModel


@pytest.fixture(scope="module")
def hybrid():
    return HybridScalingPolicy(ThroughputModel(RESNET50))


class TestGetTotalBatchSize:
    """Procedure GETTOTALBATCHSIZE, line by line."""

    def test_strong_scaling_when_optimum_covers_target(self, hybrid):
        """Line 6: try strong scaling first.  ResNet N_opt(512) ~ 25, so
        scaling 16 -> 24 keeps the batch unchanged."""
        tbs, strategy = hybrid.get_total_batch_size(16, 24, 512)
        assert tbs == 512
        assert strategy == "strong"

    def test_doubles_until_optimum_reached(self, hybrid):
        """Line 13: double the batch until N_opt >= N'."""
        tbs, strategy = hybrid.get_total_batch_size(16, 36, 512)
        assert tbs == 1024  # N_opt(1024) ~ 38 >= 36
        assert strategy == "hybrid"

    def test_falls_back_to_weak_scaling(self, hybrid):
        """Line 15: all trials failed -> proportional weak scaling.
        16 -> 64 with batch 512: even 2048 has N_opt ~ 57 < 64."""
        tbs, strategy = hybrid.get_total_batch_size(16, 64, 512)
        assert tbs == 2048  # 512 * 64/16
        assert strategy == "weak"

    def test_minimality(self, hybrid):
        """The mechanism picks the MINIMUM batch that covers the target:
        never a larger doubling than needed."""
        tbs, _strategy = hybrid.get_total_batch_size(16, 36, 512)
        model = ThroughputModel(RESNET50)
        assert model.optimal_workers(tbs) >= 36
        assert model.optimal_workers(tbs // 2) < 36

    def test_scale_in_is_always_strong(self, hybrid):
        tbs, strategy = hybrid.get_total_batch_size(32, 16, 1024)
        assert tbs == 1024
        assert strategy == "strong"

    def test_unchanged_workers_unchanged_batch(self, hybrid):
        tbs, strategy = hybrid.get_total_batch_size(16, 16, 512)
        assert tbs == 512

    def test_validation(self, hybrid):
        with pytest.raises(ValueError):
            hybrid.get_total_batch_size(0, 4, 64)
        with pytest.raises(ValueError):
            hybrid.get_total_batch_size(8, 4, 4)


class TestDecide:
    def test_ramp_targets_scaled_lr(self, hybrid):
        decision = hybrid.decide(16, 64, 512, learning_rate=0.2, iteration=1000)
        assert decision.new_total_batch_size == 2048
        assert decision.batch_scale == pytest.approx(4.0)
        assert decision.lr_ramp.base_lr == pytest.approx(0.2)
        assert decision.lr_ramp.target_lr == pytest.approx(0.8)
        assert decision.lr_ramp.start_iteration == 1000

    def test_no_batch_change_no_ramp_length(self, hybrid):
        decision = hybrid.decide(16, 24, 512, learning_rate=0.2, iteration=0)
        assert decision.new_total_batch_size == 512
        assert decision.lr_ramp.length == 0
        assert decision.lr_ramp.target_lr == pytest.approx(0.2)

    def test_paper_ramp_default_is_100_iterations(self, hybrid):
        decision = hybrid.decide(16, 64, 512, learning_rate=0.2, iteration=0)
        assert decision.lr_ramp.length == 100


class TestBaselinePolicies:
    def test_strong_policy_never_changes_batch(self):
        policy = StrongScalingPolicy()
        decision = policy.decide(4, 32, 256, learning_rate=0.1, iteration=7)
        assert decision.new_total_batch_size == 256
        assert decision.strategy == "strong"
        assert decision.lr_ramp.target_lr == pytest.approx(0.1)

    def test_weak_policy_scales_proportionally(self):
        policy = WeakScalingPolicy(ramp_iterations=50)
        decision = policy.decide(4, 8, 256, learning_rate=0.1, iteration=0)
        assert decision.new_total_batch_size == 512
        assert decision.strategy == "weak"
        assert decision.lr_ramp.target_lr == pytest.approx(0.2)
        assert decision.lr_ramp.length == 50

    def test_weak_policy_scale_in(self):
        policy = WeakScalingPolicy()
        decision = policy.decide(8, 4, 512, learning_rate=0.2, iteration=0)
        assert decision.new_total_batch_size == 256
        assert decision.lr_ramp.target_lr == pytest.approx(0.1)


class TestScalingSpec:
    """The serialisable policy a JobSpec carries, and the schedule the
    AM derives from it at every plan."""

    def test_names_build_their_policies(self):
        assert isinstance(ScalingSpec().build(), StrongScalingPolicy)
        assert isinstance(ScalingSpec("weak").build(), WeakScalingPolicy)
        hybrid = ScalingSpec("hybrid", model="ResNet-50").build()
        assert isinstance(hybrid, HybridScalingPolicy)
        assert hybrid.throughput_model.model is RESNET50

    def test_validation(self):
        with pytest.raises(ValueError):
            ScalingSpec("elastic")
        with pytest.raises(ValueError):
            ScalingSpec("hybrid")
        with pytest.raises(ValueError):
            ScalingSpec("weak", model="ResNet-50")
        with pytest.raises(ValueError):
            ScalingSpec("weak", ramp_iterations=-1)

    def test_weak_rescale_ramps_from_the_current_lr(self):
        spec = ScalingSpec("weak", ramp_iterations=10)
        start = BatchSchedule.constant(32, 0.1)
        grown = spec.rescale(start, 2, 4, iteration=8)
        assert (grown.total_batch_size, grown.strategy) == (64, "weak")
        assert grown.lr_at(8) == 0.1 and grown.lr_at(18) == 0.2
        # Mid-ramp scale-in: the new ramp starts where the old one is.
        shrunk = spec.rescale(grown, 4, 2, iteration=13)
        assert shrunk.total_batch_size == 32
        assert shrunk.lr_ramp.base_lr == grown.lr_at(13)
        assert shrunk.lr_ramp.target_lr == pytest.approx(grown.lr_at(13) / 2)

    def test_unchanged_batch_keeps_the_ramp_in_force(self):
        weak = ScalingSpec("weak", ramp_iterations=10)
        grown = weak.rescale(BatchSchedule.constant(32, 0.1), 2, 4, 8)
        migrated = weak.rescale(grown, 4, 4, iteration=12)
        assert migrated.lr_ramp == grown.lr_ramp
        assert ScalingSpec().rescale(grown, 4, 8, 12).lr_ramp == grown.lr_ramp

    def test_schedule_round_trips_through_its_payload(self):
        schedule = ScalingSpec("weak").rescale(
            BatchSchedule.constant(48, 0.05), 3, 4, iteration=4
        )
        assert BatchSchedule.from_payload(schedule.to_payload()) == schedule
        assert schedule.per_worker_batch(4) == 16
