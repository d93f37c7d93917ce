"""Pluggable model architectures for the elastic workers.

The paper demonstrates Elan's generality by integrating it with two
frameworks (Caffe's static engine and PyTorch's dynamic one, §V-A): the
elasticity machinery never looks inside the model, it only captures and
restores state through hooks.  Mirroring that, every worker accepts
any :class:`Architecture` — a triple of pure functions (initialize,
loss+gradients, accuracy) over a parameter dict — and ships with three:
the default two-layer MLP, a deeper MLP and plain logistic regression.
"""

from __future__ import annotations

import dataclasses
import typing

import numpy as np

from .nn import Params, accuracy, init_mlp, loss_and_gradients, softmax


@dataclasses.dataclass(frozen=True)
class Architecture:
    """A trainable model as three pure functions over a parameter dict."""

    name: str
    init: typing.Callable[[int], Params]  # seed -> params
    loss_and_gradients: typing.Callable[
        [Params, np.ndarray, np.ndarray], typing.Tuple[float, Params]
    ]
    accuracy: typing.Callable[[Params, np.ndarray, np.ndarray], float]

    def gradient_template(self, seed: int = 0) -> Params:
        """Zero arrays with the parameter shapes (for ring allreduce)."""
        return {k: np.zeros_like(v) for k, v in self.init(seed).items()}


def mlp_architecture(
    input_dim: int, hidden_dim: int, num_classes: int
) -> Architecture:
    """The default 2-layer ReLU MLP."""
    return Architecture(
        name=f"mlp({input_dim}-{hidden_dim}-{num_classes})",
        init=lambda seed: init_mlp(input_dim, hidden_dim, num_classes, seed=seed),
        loss_and_gradients=loss_and_gradients,
        accuracy=accuracy,
    )


def deep_mlp_architecture(
    input_dim: int, hidden_dims: typing.Sequence[int], num_classes: int
) -> Architecture:
    """An MLP with arbitrarily many ReLU hidden layers."""
    dims = [input_dim, *hidden_dims, num_classes]
    if any(d < 1 for d in dims):
        raise ValueError("all layer dimensions must be >= 1")

    def init(seed: int) -> Params:
        rng = np.random.default_rng(seed)
        params: Params = {}
        for layer, (fan_in, fan_out) in enumerate(zip(dims, dims[1:])):
            params[f"w{layer}"] = rng.standard_normal(
                (fan_in, fan_out)
            ) * np.sqrt(2.0 / fan_in)
            params[f"b{layer}"] = np.zeros(fan_out)
        return params

    layers = len(dims) - 1

    def forward(params: Params, x: np.ndarray):
        activations = [x]
        for layer in range(layers):
            z = activations[-1] @ params[f"w{layer}"] + params[f"b{layer}"]
            activations.append(
                z if layer == layers - 1 else np.maximum(0.0, z)
            )
        return activations

    def loss_and_grads(params: Params, x: np.ndarray, y: np.ndarray):
        if len(x) == 0:
            raise ValueError("empty batch")
        activations = forward(params, x)
        probs = softmax(activations[-1])
        batch = len(x)
        loss = float(-np.log(probs[np.arange(batch), y] + 1e-12).mean())
        delta = probs
        delta[np.arange(batch), y] -= 1.0
        delta /= batch
        grads: Params = {}
        for layer in reversed(range(layers)):
            grads[f"w{layer}"] = activations[layer].T @ delta
            grads[f"b{layer}"] = delta.sum(axis=0)
            if layer > 0:
                delta = delta @ params[f"w{layer}"].T
                delta[activations[layer] <= 0.0] = 0.0
        return loss, grads

    def acc(params: Params, x: np.ndarray, y: np.ndarray) -> float:
        return float((forward(params, x)[-1].argmax(axis=1) == y).mean())

    return Architecture(
        name=f"mlp({'-'.join(str(d) for d in dims)})",
        init=init,
        loss_and_gradients=loss_and_grads,
        accuracy=acc,
    )


def logistic_regression_architecture(
    input_dim: int, num_classes: int
) -> Architecture:
    """Multinomial logistic regression — the smallest useful model."""
    if input_dim < 1 or num_classes < 2:
        raise ValueError("need input_dim >= 1 and num_classes >= 2")

    def init(seed: int) -> Params:
        rng = np.random.default_rng(seed)
        return {
            "w": rng.standard_normal((input_dim, num_classes))
            / np.sqrt(input_dim),
            "b": np.zeros(num_classes),
        }

    def loss_and_grads(params: Params, x: np.ndarray, y: np.ndarray):
        if len(x) == 0:
            raise ValueError("empty batch")
        logits = x @ params["w"] + params["b"]
        probs = softmax(logits)
        batch = len(x)
        loss = float(-np.log(probs[np.arange(batch), y] + 1e-12).mean())
        delta = probs
        delta[np.arange(batch), y] -= 1.0
        delta /= batch
        return loss, {"w": x.T @ delta, "b": delta.sum(axis=0)}

    def acc(params: Params, x: np.ndarray, y: np.ndarray) -> float:
        return float(((x @ params["w"] + params["b"]).argmax(axis=1) == y).mean())

    return Architecture(
        name=f"logreg({input_dim}-{num_classes})",
        init=init,
        loss_and_gradients=loss_and_grads,
        accuracy=acc,
    )


#: the model families a job spec names, by name.
ARCHITECTURE_NAMES = ("mlp", "deep-mlp", "logreg")


def build_architecture(
    name: str, input_dim: int, hidden_dim: int, num_classes: int
) -> Architecture:
    """The architecture a job spec names: ``"mlp"`` (one hidden layer
    of ``hidden_dim``), ``"deep-mlp"`` (``hidden_dim`` then half of it)
    or ``"logreg"`` (no hidden layer)."""
    if name == "mlp":
        return mlp_architecture(input_dim, hidden_dim, num_classes)
    if name == "deep-mlp":
        return deep_mlp_architecture(
            input_dim, [hidden_dim, max(1, hidden_dim // 2)], num_classes
        )
    if name == "logreg":
        return logistic_regression_architecture(input_dim, num_classes)
    raise ValueError(
        f"unknown architecture {name!r}; one of {ARCHITECTURE_NAMES}"
    )
