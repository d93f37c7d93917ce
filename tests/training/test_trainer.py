"""Tests for the reference trainers, including the data-parallel
equivalence Elan's elasticity relies on."""

import numpy as np
import pytest

from repro.training import (
    MomentumSGD,
    init_mlp,
    loss_and_gradients,
    make_classification,
    params_allclose,
    train_data_parallel,
    train_single,
)


@pytest.fixture(scope="module")
def dataset():
    return make_classification(train_size=2048, test_size=512, seed=11)


class TestMomentumSGD:
    def test_validation(self):
        with pytest.raises(ValueError):
            MomentumSGD(lr=0.0)
        with pytest.raises(ValueError):
            MomentumSGD(lr=0.1, momentum=1.0)

    def test_step_moves_against_gradient(self):
        params = {"w": np.array([1.0, 2.0])}
        opt = MomentumSGD(lr=0.1, momentum=0.0)
        opt.step(params, {"w": np.array([1.0, -1.0])})
        assert np.allclose(params["w"], [0.9, 2.1])

    def test_momentum_accumulates(self):
        params = {"w": np.array([0.0])}
        opt = MomentumSGD(lr=0.1, momentum=0.9)
        opt.step(params, {"w": np.array([1.0])})
        opt.step(params, {"w": np.array([1.0])})
        # Second step: v = 0.9*(-0.1) - 0.1 = -0.19; total -0.29.
        assert params["w"][0] == pytest.approx(-0.29)

    def test_weight_decay_shrinks_params(self):
        params = {"w": np.array([10.0])}
        opt = MomentumSGD(lr=0.1, momentum=0.0, weight_decay=0.1)
        opt.step(params, {"w": np.array([0.0])})
        assert params["w"][0] < 10.0

    def test_state_roundtrip_preserves_trajectory(self, dataset):
        """An optimizer restored from a state dict continues identically —
        the property state replication depends on."""
        params_a = init_mlp(dataset.input_dim, 16, dataset.num_classes, seed=0)
        opt_a = MomentumSGD(lr=0.05)
        x, y = dataset.train_x[:32], dataset.train_y[:32]
        _l, grads = loss_and_gradients(params_a, x, y)
        opt_a.step(params_a, grads)

        # Replicate: copy params and restore optimizer state elsewhere.
        params_b = {k: v.copy() for k, v in params_a.items()}
        opt_b = MomentumSGD(lr=0.01)  # different lr, overwritten by load
        opt_b.load_state_dict(opt_a.state_dict())
        assert opt_b.lr == 0.05

        # Both replicas take the same next step.
        _l, grads2 = loss_and_gradients(params_a, x, y)
        opt_a.step(params_a, grads2)
        opt_b.step(params_b, grads2)
        assert params_allclose(params_a, params_b)

    def test_state_bytes_counts_velocity(self):
        opt = MomentumSGD(lr=0.1)
        assert opt.state_bytes() == 0
        opt.step({"w": np.zeros(100)}, {"w": np.ones(100)})
        assert opt.state_bytes() == 800


class TestTrainSingle:
    def test_learns_above_chance(self, dataset):
        result = train_single(dataset, 32, epochs=8, base_lr=0.01, seed=0)
        assert result.test_accuracy > 0.4
        assert not result.diverged

    def test_update_count_matches_epochs(self, dataset):
        result = train_single(dataset, 256, epochs=4, base_lr=0.01, seed=0)
        assert result.updates == 4 * (2048 // 256)

    def test_deterministic(self, dataset):
        a = train_single(dataset, 64, epochs=2, base_lr=0.01, seed=5)
        b = train_single(dataset, 64, epochs=2, base_lr=0.01, seed=5)
        assert params_allclose(a.params, b.params)

    def test_invalid_inputs_rejected(self, dataset):
        with pytest.raises(ValueError):
            train_single(dataset, 0, epochs=1)
        with pytest.raises(ValueError):
            train_single(dataset, 10**6, epochs=1)
        with pytest.raises(ValueError):
            train_single(dataset, 32, epochs=1, lr_scaling="exponential")

    def test_figure5_large_batch_hurts_with_fixed_lr(self, dataset):
        """The algorithm-view observation (§III-2): same epochs, larger
        total batch, fixed LR -> worse generalization."""
        small = train_single(dataset, 32, epochs=10, base_lr=0.01, seed=1)
        large = train_single(dataset, 1024, epochs=10, base_lr=0.01, seed=1)
        assert large.test_accuracy < small.test_accuracy - 0.05

    def test_figure5_progressive_scaling_recovers(self, dataset):
        """The progressive linear scaling rule keeps model performance."""
        small = train_single(dataset, 32, epochs=10, base_lr=0.01, seed=1)
        scaled = train_single(
            dataset, 1024, epochs=10, base_lr=0.01, lr_scaling="progressive", seed=1
        )
        assert scaled.test_accuracy > small.test_accuracy - 0.06

    def test_progressive_no_worse_than_abrupt_at_extreme_batch(self, dataset):
        """§III-3: sharp LR changes risk divergence; the ramp avoids it."""
        abrupt = train_single(
            dataset, 2048, epochs=30, base_lr=0.05, lr_scaling="linear", seed=1
        )
        ramped = train_single(
            dataset, 2048, epochs=30, base_lr=0.05, lr_scaling="progressive", seed=1
        )
        assert ramped.test_accuracy > abrupt.test_accuracy


class TestDataParallelEquivalence:
    """K workers at batch b must match 1 worker at batch K*b exactly —
    the property that makes strong scaling 'algorithm-transparent'."""

    def test_exact_parameter_equivalence(self, dataset):
        single = train_single(
            dataset, 64, epochs=2, base_lr=0.05, lr_scaling="fixed", seed=3
        )
        parallel = train_data_parallel(
            dataset, num_workers=4, batch_per_worker=16,
            iterations=single.updates, lr=0.05, seed=3,
        )
        for name in single.params:
            assert np.allclose(
                single.params[name], parallel.params[name], atol=1e-12
            )

    def test_worker_counts_all_equivalent(self, dataset):
        runs = [
            train_data_parallel(
                dataset, num_workers=n, batch_per_worker=64 // n,
                iterations=20, lr=0.05, seed=4,
            )
            for n in (1, 2, 4, 8)
        ]
        for other in runs[1:]:
            assert params_allclose(runs[0].params, other.params, atol=1e-12)

    def test_validation(self, dataset):
        with pytest.raises(ValueError):
            train_data_parallel(dataset, num_workers=0, batch_per_worker=8, iterations=1)
