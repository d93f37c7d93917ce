"""Tests for pluggable architectures — the genericity claim (§V-A)."""

import numpy as np
import pytest

from repro.core import ElasticJob
from repro.training import (
    deep_mlp_architecture,
    logistic_regression_architecture,
    make_classification,
    mlp_architecture,
)


@pytest.fixture(scope="module")
def dataset():
    return make_classification(train_size=512, test_size=128, seed=101)


ARCHITECTURES = [
    lambda ds: mlp_architecture(ds.input_dim, 32, ds.num_classes),
    lambda ds: deep_mlp_architecture(ds.input_dim, [48, 24], ds.num_classes),
    lambda ds: logistic_regression_architecture(ds.input_dim, ds.num_classes),
]
ARCH_IDS = ["mlp", "deep-mlp", "logreg"]


class TestArchitectureContract:
    @pytest.mark.parametrize("factory", ARCHITECTURES, ids=ARCH_IDS)
    def test_init_deterministic(self, dataset, factory):
        arch = factory(dataset)
        a, b = arch.init(7), arch.init(7)
        assert set(a) == set(b)
        assert all(np.array_equal(a[k], b[k]) for k in a)

    @pytest.mark.parametrize("factory", ARCHITECTURES, ids=ARCH_IDS)
    def test_gradients_match_finite_differences(self, dataset, factory):
        arch = factory(dataset)
        params = arch.init(0)
        x, y = dataset.train_x[:16], dataset.train_y[:16]
        _loss, grads = arch.loss_and_gradients(params, x, y)
        eps = 1e-6
        for name in params:
            flat = params[name].reshape(-1)
            for idx in range(0, flat.size, max(1, flat.size // 4)):
                original = flat[idx]
                flat[idx] = original + eps
                plus, _ = arch.loss_and_gradients(params, x, y)
                flat[idx] = original - eps
                minus, _ = arch.loss_and_gradients(params, x, y)
                flat[idx] = original
                numeric = (plus - minus) / (2 * eps)
                assert grads[name].reshape(-1)[idx] == pytest.approx(
                    numeric, abs=1e-4
                )

    @pytest.mark.parametrize("factory", ARCHITECTURES, ids=ARCH_IDS)
    def test_gradient_template_shapes(self, dataset, factory):
        arch = factory(dataset)
        template = arch.gradient_template()
        params = arch.init(0)
        assert set(template) == set(params)
        for name in params:
            assert template[name].shape == params[name].shape
            assert not template[name].any()

    def test_empty_batch_rejected(self, dataset):
        arch = logistic_regression_architecture(
            dataset.input_dim, dataset.num_classes
        )
        with pytest.raises(ValueError):
            arch.loss_and_gradients(
                arch.init(0), dataset.train_x[:0], dataset.train_y[:0]
            )

    def test_validation(self):
        with pytest.raises(ValueError):
            deep_mlp_architecture(4, [0], 2)
        with pytest.raises(ValueError):
            logistic_regression_architecture(4, 1)


def arch_job(architecture, workers=2, **spec):
    """An elastic job on ``architecture`` over the fixture's dataset."""
    return ElasticJob(
        workers=workers, architecture=architecture, train_size=512,
        test_size=128, input_dim=32, hidden_dim=32, num_classes=10,
        seed=spec.pop("seed"), total_batch_size=16 * workers,
        iteration_sleep=0.002, **spec,
    )


class TestArchitecturesInRuntime:
    """The same elasticity machinery drives every model family — the
    reproduction's analogue of integrating Caffe and PyTorch."""

    @pytest.mark.parametrize("name", ARCH_IDS, ids=ARCH_IDS)
    def test_elastic_scale_out_works(self, name):
        with arch_job(name, seed=2, iterations=40) as job:
            assert job.wait_until_iteration(5)
            job.scale_out(1)
            assert job.wait_for_adjustments(1)
        assert len(job.digests()) == 3
        assert len(set(job.digests().values())) == 1
        assert 0.0 <= job.evaluate() <= 1.0

    def test_logreg_three_workers_consistent(self):
        with arch_job("logreg", workers=3, seed=3, iterations=10) as job:
            pass
        assert len(set(job.digests().values())) == 1
        assert set(job.final_params()) == set(
            logistic_regression_architecture(32, 10).init(0)
        )

    def test_deep_mlp_learns(self):
        with arch_job("deep-mlp", seed=4, iterations=120,
                      base_lr=0.02) as job:
            pass
        assert job.evaluate() > 2.5 / 10
