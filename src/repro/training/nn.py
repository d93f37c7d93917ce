"""A small neural-network library on numpy.

Implements exactly what the live elastic workers need: a two-layer MLP
classifier with softmax cross-entropy, explicit parameter dictionaries
(so training state can be extracted, replicated and restored byte-for-byte,
as Elan's hooks require), and deterministic initialization from a seed
(so every data-parallel worker builds an identical replica).
"""

from __future__ import annotations

import typing

import numpy as np

Params = typing.Dict[str, np.ndarray]


def init_mlp(
    input_dim: int, hidden_dim: int, num_classes: int, seed: int = 0
) -> Params:
    """He-initialized parameters of a 2-layer MLP classifier."""
    if min(input_dim, hidden_dim, num_classes) < 1:
        raise ValueError("all dimensions must be >= 1")
    rng = np.random.default_rng(seed)
    return {
        "w1": rng.standard_normal((input_dim, hidden_dim)) * np.sqrt(2.0 / input_dim),
        "b1": np.zeros(hidden_dim),
        "w2": rng.standard_normal((hidden_dim, num_classes))
        * np.sqrt(2.0 / hidden_dim),
        "b2": np.zeros(num_classes),
    }


def forward(params: Params, x: np.ndarray) -> typing.Tuple[np.ndarray, np.ndarray]:
    """Forward pass; returns (logits, hidden activations)."""
    hidden = np.maximum(0.0, x @ params["w1"] + params["b1"])  # ReLU
    logits = hidden @ params["w2"] + params["b2"]
    return logits, hidden


def softmax(logits: np.ndarray) -> np.ndarray:
    """Row-wise softmax, numerically stabilized."""
    shifted = logits - logits.max(axis=1, keepdims=True)
    exp = np.exp(shifted)
    return exp / exp.sum(axis=1, keepdims=True)


def loss_and_gradients(
    params: Params, x: np.ndarray, y: np.ndarray
) -> typing.Tuple[float, Params]:
    """Mean cross-entropy loss and its gradients for one mini-batch."""
    if len(x) == 0:
        raise ValueError("empty batch")
    logits, hidden = forward(params, x)
    probs = softmax(logits)
    batch = len(x)
    loss = float(-np.log(probs[np.arange(batch), y] + 1e-12).mean())
    dlogits = probs
    dlogits[np.arange(batch), y] -= 1.0
    dlogits /= batch
    dhidden = dlogits @ params["w2"].T
    dhidden[hidden <= 0.0] = 0.0
    grads = {
        "w2": hidden.T @ dlogits,
        "b2": dlogits.sum(axis=0),
        "w1": x.T @ dhidden,
        "b1": dhidden.sum(axis=0),
    }
    return loss, grads


def accuracy(params: Params, x: np.ndarray, y: np.ndarray) -> float:
    """Top-1 classification accuracy on (x, y)."""
    logits, _hidden = forward(params, x)
    return float((logits.argmax(axis=1) == y).mean())


def clone_params(params: Params) -> Params:
    """Deep copy of a parameter dictionary."""
    return {name: array.copy() for name, array in params.items()}


def params_allclose(a: Params, b: Params, atol: float = 0.0) -> bool:
    """Whether two parameter sets are (numerically) identical."""
    if set(a) != set(b):
        return False
    return all(np.allclose(a[name], b[name], atol=atol) for name in a)


def param_bytes(params: Params) -> int:
    """Total byte size of a parameter dictionary."""
    return sum(array.nbytes for array in params.values())


def average_gradients(gradient_sets: typing.Sequence[Params]) -> Params:
    """All-reduce (mean) of per-worker gradients — the collective step of
    data-parallel training (paper Fig. 7)."""
    if not gradient_sets:
        raise ValueError("no gradients to average")
    names = gradient_sets[0].keys()
    count = len(gradient_sets)
    return {
        name: sum(grads[name] for grads in gradient_sets) / count for name in names
    }
