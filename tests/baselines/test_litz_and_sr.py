"""Tests for the Litz throughput model (Fig. 16) and the live S&R job."""

import numpy as np
import pytest

from repro.baselines import LITZ_2, LITZ_4, LitzConfig, LitzModel, ShutdownRestartJob
from repro.coordination.hooks import DEFAULT_HOOKS
from repro.net import decode_state_blob
from repro.perfmodel import MODEL_ZOO, RESNET50, TRANSFORMER
from repro.training import make_classification


class TestLitzModel:
    @pytest.mark.parametrize("spec", list(MODEL_ZOO.values()),
                             ids=lambda s: s.name)
    def test_litz_far_below_elan(self, spec):
        """Fig. 16: context switches destroy throughput for every model."""
        for config in (LITZ_2, LITZ_4):
            model = LitzModel(spec, config)
            for workers in (2, 8, 32, 64):
                assert model.relative_throughput(workers) < 0.4

    def test_transformer_reduction_exceeds_90_percent(self):
        """Paper: 'the reduction of throughput even exceeds 90% on
        Transformer' (for Litz-4)."""
        model = LitzModel(TRANSFORMER, LITZ_4)
        assert model.relative_throughput(2) < 0.11

    def test_more_workers_slightly_better(self):
        """Paper: throughput 'goes up slightly' with more workers thanks
        to local gradient aggregation."""
        model = LitzModel(MODEL_ZOO["MobileNet-v2"], LITZ_2)
        assert model.relative_throughput(64) > model.relative_throughput(8)

    def test_litz4_more_samples_per_iteration(self):
        """Litz-4 computes twice the samples of Litz-2 per iteration but
        also pays twice the switches, so the ratio stays poor."""
        l2 = LitzModel(RESNET50, LITZ_2)
        l4 = LitzModel(RESNET50, LITZ_4)
        assert l4.iteration_time(8) > l2.iteration_time(8)
        assert l4.throughput(8) < 2 * l2.throughput(8)

    def test_context_switch_dominated_by_state_size(self):
        big = LitzModel(MODEL_ZOO["VGG-19"], LITZ_2).context_switch_time()
        small = LitzModel(MODEL_ZOO["MobileNet-v2"], LITZ_2).context_switch_time()
        assert big > 5 * small

    def test_validation(self):
        with pytest.raises(ValueError):
            LitzConfig(executors_per_worker=0)
        with pytest.raises(ValueError):
            LitzConfig(executors_per_worker=2, per_executor_batch=0)
        with pytest.raises(ValueError):
            LitzModel(RESNET50, LITZ_2).iteration_time(0)


class TestShutdownRestartJob:
    @pytest.fixture(scope="class")
    def dataset(self):
        return make_classification(train_size=512, test_size=128, seed=3)

    def test_checkpoint_restart_preserves_state_exactly(self, dataset):
        """The S&R cycle must be lossless: training after an adjustment
        continues the same trajectory as an uninterrupted run."""
        job = ShutdownRestartJob(dataset, workers=4, total_batch_size=64, seed=0)
        job.train(10)
        job.adjust(workers=8)  # checkpoint -> shutdown -> restart
        job.train(10)

        # Reference: same schedule without the S&R cycle.  Strong scaling
        # keeps the batch, so the trajectory must match exactly.
        reference = ShutdownRestartJob(
            dataset, workers=4, total_batch_size=64, seed=0
        )
        reference.train(10)
        reference.workers = 8
        reference.replica.loader.repartition(8)
        reference.train(10)
        for name in job.params():
            assert np.allclose(
                job.params()[name], reference.params()[name], atol=1e-12
            )

    def test_checkpoint_is_the_replicated_hook_bundle(self, dataset):
        """S&R writes exactly the state Elan replicates: the default
        hooks' captures plus the iteration count, as one state blob."""
        job = ShutdownRestartJob(dataset, workers=2, total_batch_size=32)
        job.train(3)
        size = job.checkpoint()
        blob = job.storage.load(job.checkpoint_path)
        assert size == len(blob)
        state = decode_state_blob(blob)
        assert set(state) == {hook.name for hook in DEFAULT_HOOKS} | {
            "iteration"
        }
        assert state["iteration"] == 3
        for name, array in job.params().items():
            assert np.array_equal(state["params"][name], array)

    def test_cannot_train_while_shut_down(self, dataset):
        job = ShutdownRestartJob(dataset, workers=2, total_batch_size=32)
        job.train(2)
        job.checkpoint()
        job.shutdown()
        with pytest.raises(RuntimeError):
            job.train(1)
        with pytest.raises(RuntimeError):
            job.evaluate()

    def test_restart_requires_checkpoint(self, dataset):
        job = ShutdownRestartJob(dataset, workers=2, total_batch_size=32)
        job.shutdown()
        with pytest.raises(RuntimeError):
            job.restart(4)

    def test_counters(self, dataset):
        job = ShutdownRestartJob(dataset, workers=2, total_batch_size=32)
        job.train(3)
        job.adjust(4)
        job.adjust(2)
        assert job.checkpoints == 2
        assert job.restarts == 2
        assert job.storage.writes == 2
        assert job.storage.reads == 2

    def test_iteration_counter_survives_restart(self, dataset):
        job = ShutdownRestartJob(dataset, workers=2, total_batch_size=32)
        job.train(7)
        job.adjust(4)
        assert job.iteration == 7
        job.train(3)
        assert job.iteration == 10

    def test_validation(self, dataset):
        with pytest.raises(ValueError):
            ShutdownRestartJob(dataset, workers=0, total_batch_size=32)
        with pytest.raises(ValueError):
            ShutdownRestartJob(dataset, workers=8, total_batch_size=4)
        job = ShutdownRestartJob(dataset, workers=2, total_batch_size=32)
        job.checkpoint()
        job.shutdown()
        with pytest.raises(ValueError):
            job.restart(0)

    def test_learns(self, dataset):
        job = ShutdownRestartJob(
            dataset, workers=2, total_batch_size=32, base_lr=0.02, seed=1
        )
        job.train(100)
        assert job.evaluate() > 0.35
