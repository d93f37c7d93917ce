"""Momentum SGD steps in place without changing a bit.

The step writes ``momentum * velocity - lr * grad`` into the velocity
buffer it already holds.  These tests pin it to the out-of-place
formula, written out here, over long runs, mixed dtypes, weight decay,
state round trips and the sharded optimizer.
"""

import numpy as np
import pytest

from repro.training.optim import MomentumSGD

SHAPES = {"w1": (13, 7), "b1": (7,), "w2": (7, 3), "b2": (3,)}


def make_params(seed=0, dtype=np.float64):
    rng = np.random.default_rng(seed)
    return {
        name: rng.standard_normal(shape).astype(dtype)
        for name, shape in SHAPES.items()
    }


def grad_stream(steps, dtype=np.float64):
    return [make_params(seed=100 + step, dtype=dtype) for step in range(steps)]


class OutOfPlaceSGD:
    """The step as one out-of-place expression per parameter."""

    def __init__(self, lr, momentum=0.9, weight_decay=0.0):
        self.lr = lr
        self.momentum = momentum
        self.weight_decay = weight_decay
        self.velocity = {}

    def step(self, params, grads):
        for name, grad in grads.items():
            if self.weight_decay:
                grad = grad + self.weight_decay * params[name]
            velocity = self.velocity.get(name)
            if velocity is None:
                velocity = np.zeros_like(params[name])
            velocity = self.momentum * velocity - self.lr * grad
            self.velocity[name] = velocity
            params[name] += velocity


def assert_bit_identical(a, b):
    assert a.keys() == b.keys()
    for name in a:
        assert a[name].dtype == b[name].dtype, name
        assert a[name].tobytes() == b[name].tobytes(), name


def copy(params):
    return {name: value.copy() for name, value in params.items()}


class TestInPlaceStep:
    @pytest.mark.parametrize("weight_decay", [0.0, 1e-3])
    @pytest.mark.parametrize(
        "param_dtype,grad_dtype",
        [
            (np.float64, np.float64),
            (np.float32, np.float32),
            (np.float64, np.float32),
            (np.float32, np.float64),
        ],
    )
    def test_matches_the_out_of_place_formula_for_50_steps(
        self, weight_decay, param_dtype, grad_dtype
    ):
        params = make_params(dtype=param_dtype)
        expected_params = copy(params)
        optimizer = MomentumSGD(lr=0.03, momentum=0.9, weight_decay=weight_decay)
        expected = OutOfPlaceSGD(lr=0.03, momentum=0.9, weight_decay=weight_decay)
        for step, grads in enumerate(grad_stream(50, dtype=grad_dtype)):
            optimizer.lr = 0.03 * (1 + step % 5)  # the ramp reassigns lr
            expected.lr = optimizer.lr
            optimizer.step(params, grads)
            expected.step(expected_params, grads)
            assert_bit_identical(params, expected_params)
        assert_bit_identical(optimizer.state_dict()["velocity"], expected.velocity)

    def test_gradients_are_not_written(self):
        grads = grad_stream(1)[0]
        before = copy(grads)
        optimizer = MomentumSGD(lr=0.1, weight_decay=1e-2)
        params = make_params()
        for _ in range(3):
            optimizer.step(params, grads)
        assert_bit_identical(grads, before)

    def test_velocity_stays_one_buffer_per_parameter(self):
        params = make_params()
        optimizer = MomentumSGD(lr=0.1)
        grads = grad_stream(3)
        optimizer.step(params, grads[0])
        buffers = {name: id(v) for name, v in optimizer._velocity.items()}
        for step_grads in grads[1:]:
            optimizer.step(params, step_grads)
        assert {name: id(v) for name, v in optimizer._velocity.items()} == buffers


class TestStateUnderInPlaceSteps:
    def test_state_dict_is_not_aliased_by_later_steps(self):
        params = make_params()
        optimizer = MomentumSGD(lr=0.05, weight_decay=1e-4)
        grads = grad_stream(20)
        for step_grads in grads[:10]:
            optimizer.step(params, step_grads)
        state = optimizer.state_dict()
        frozen = copy(state["velocity"])
        for step_grads in grads[10:]:
            optimizer.step(params, step_grads)
        assert_bit_identical(state["velocity"], frozen)

    def test_loaded_state_is_not_aliased_by_later_steps(self):
        params = make_params()
        source = MomentumSGD(lr=0.05)
        source.step(params, grad_stream(1)[0])
        state = source.state_dict()
        frozen = copy(state["velocity"])
        target = MomentumSGD(lr=0.05)
        target.load_state_dict(state)
        target.step(copy(params), grad_stream(2)[1])
        assert_bit_identical(state["velocity"], frozen)

    @pytest.mark.parametrize("weight_decay", [0.0, 1e-3])
    def test_resume_matches_an_uninterrupted_run(self, weight_decay):
        grads = grad_stream(30)
        straight_params = make_params()
        straight = MomentumSGD(lr=0.05, weight_decay=weight_decay)
        for step_grads in grads:
            straight.step(straight_params, step_grads)

        params = make_params()
        first = MomentumSGD(lr=0.05, weight_decay=weight_decay)
        for step_grads in grads[:12]:
            first.step(params, step_grads)
        resumed = MomentumSGD(lr=1.0)
        resumed.load_state_dict(first.state_dict())
        params = copy(params)
        for step_grads in grads[12:]:
            resumed.step(params, step_grads)
        assert_bit_identical(params, straight_params)
        assert_bit_identical(
            resumed.state_dict()["velocity"], straight.state_dict()["velocity"]
        )
