"""Reference trainers on the numpy substrate.

Two entry points:

* :func:`train_single` — a plain single-process trainer with a pluggable
  learning-rate policy.  Running it across total batch sizes regenerates
  the paper's Fig. 5 from scratch (mechanically, not from the analytic
  convergence model): with a fixed epoch budget, larger batches mean fewer
  optimizer updates and worse generalization; linearly scaled — and
  progressively ramped — learning rates recover it, up to a point.

* :func:`train_data_parallel` — an in-process data-parallel trainer with K
  replicas and gradient averaging, used to verify the core equivalence
  that Elan relies on: K workers with per-worker batch b take *the same
  parameter trajectory* as one worker with batch K*b.
"""

from __future__ import annotations

import dataclasses
import typing

import numpy as np

from ..core.progressive_lr import LrRamp
from .dataloader import SerialLoader
from .datasets import Dataset
from .nn import (
    Params,
    accuracy,
    average_gradients,
    init_mlp,
    loss_and_gradients,
)
from .optim import MomentumSGD


@dataclasses.dataclass(frozen=True)
class TrainResult:
    """Outcome of a training run."""

    params: Params
    test_accuracy: float
    train_accuracy: float
    losses: typing.List[float]
    updates: int

    @property
    def diverged(self) -> bool:
        """Whether the loss blew up (NaN/inf or grew 10x from start)."""
        if not self.losses:
            return False
        last = self.losses[-1]
        return not np.isfinite(last) or last > 10.0 * max(self.losses[0], 1.0)


def train_single(
    dataset: Dataset,
    total_batch_size: int,
    epochs: int = 30,
    base_lr: float = 0.1,
    base_total_batch: int = 32,
    lr_scaling: str = "fixed",
    ramp_iterations: "int | None" = None,
    hidden_dim: int = 64,
    momentum: float = 0.9,
    seed: int = 0,
) -> TrainResult:
    """Train one MLP for a fixed epoch budget at one total batch size.

    ``lr_scaling`` selects the paper's Fig. 5 variants:

    * ``"fixed"`` — keep ``base_lr`` whatever the batch ("Default");
    * ``"linear"`` — jump straight to ``base_lr * k`` where
      ``k = total_batch_size / base_total_batch``;
    * ``"progressive"`` — ramp to ``base_lr * k`` over ``ramp_iterations``
      (the progressive linear scaling rule, "Hybrid").

    ``ramp_iterations`` defaults to 10% of the planned update count, capped
    at the paper's T = 100: the rule assumes the ramp is short relative to
    the run (the paper finishes it in 100 of ~450k ImageNet iterations).
    """
    if lr_scaling not in ("fixed", "linear", "progressive"):
        raise ValueError(f"unknown lr_scaling {lr_scaling!r}")
    if total_batch_size < 1 or total_batch_size > dataset.train_size:
        raise ValueError(
            f"total batch {total_batch_size} outside [1, {dataset.train_size}]"
        )
    scale = total_batch_size / base_total_batch
    target_lr = base_lr if lr_scaling == "fixed" else base_lr * scale
    if ramp_iterations is None:
        planned = epochs * -(-dataset.train_size // total_batch_size)
        ramp_iterations = min(100, max(1, planned // 10))
    params = init_mlp(dataset.input_dim, hidden_dim, dataset.num_classes, seed=seed)
    optimizer = MomentumSGD(lr=base_lr, momentum=momentum)
    loader = SerialLoader(dataset.train_size, seed=seed)
    ramp = (
        LrRamp(0, ramp_iterations, base_lr, target_lr)
        if lr_scaling == "progressive" else None
    )
    losses: typing.List[float] = []
    step = 0
    while loader.epoch < epochs:
        optimizer.lr = target_lr if ramp is None else ramp.lr_at(step)
        (indices,) = loader.next_iteration(1, total_batch_size)
        loss, grads = loss_and_gradients(
            params, dataset.train_x[indices], dataset.train_y[indices]
        )
        optimizer.step(params, grads)
        losses.append(loss)
        step += 1
        if not np.isfinite(loss):
            break  # diverged; stop wasting work
    return TrainResult(
        params=params,
        test_accuracy=accuracy(params, dataset.test_x, dataset.test_y),
        train_accuracy=accuracy(params, dataset.train_x, dataset.train_y),
        losses=losses,
        updates=step,
    )


def train_data_parallel(
    dataset: Dataset,
    num_workers: int,
    batch_per_worker: int,
    iterations: int,
    lr: float = 0.1,
    hidden_dim: int = 64,
    momentum: float = 0.9,
    seed: int = 0,
) -> TrainResult:
    """Synchronous data-parallel training with explicit gradient averaging.

    Every worker holds a replica (identical seed), computes gradients on
    its own serial-loader slice, and the replicas apply the averaged
    gradient — the collective-communication scheme of paper Fig. 7.  Only
    rank 0's replica is returned; by construction all replicas are equal.
    """
    if num_workers < 1:
        raise ValueError(f"num_workers must be >= 1, got {num_workers}")
    replicas = [
        init_mlp(dataset.input_dim, hidden_dim, dataset.num_classes, seed=seed)
        for _ in range(num_workers)
    ]
    optimizers = [MomentumSGD(lr=lr, momentum=momentum) for _ in range(num_workers)]
    loader = SerialLoader(dataset.train_size, seed=seed)
    losses: typing.List[float] = []
    for _ in range(iterations):
        slices = loader.next_iteration(num_workers, batch_per_worker)
        grads, batch_losses, weights = [], [], []
        for rank, indices in enumerate(slices):
            if len(indices) == 0:
                continue
            loss, grad = loss_and_gradients(
                replicas[rank],
                dataset.train_x[indices],
                dataset.train_y[indices],
            )
            grads.append(grad)
            batch_losses.append(loss)
            weights.append(len(indices))
        averaged = average_gradients(grads)
        for rank in range(num_workers):
            optimizers[rank].step(replicas[rank], averaged)
        losses.append(float(np.average(batch_losses, weights=weights)))
    params = replicas[0]
    return TrainResult(
        params=params,
        test_accuracy=accuracy(params, dataset.test_x, dataset.test_y),
        train_accuracy=accuracy(params, dataset.train_x, dataset.train_y),
        losses=losses,
        updates=iterations,
    )
