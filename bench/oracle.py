"""The correctness oracle: a single-threaded serial replay.

One thread walks the job's iterations through the program's own public
training functions — same seed, same loader, same per-rank shards, the
same reduction the live planes use — with the group size the workers
reported for each iteration.  Every lossless job must end on exactly
this digest.
"""

from __future__ import annotations

import functools
import time

from repro.net import params_digest, ring_reference_average
from repro.training.architectures import mlp_architecture
from repro.training.dataloader import SerialLoader
from repro.training.datasets import make_classification
from repro.training.nn import average_gradients
from repro.training.optim import MomentumSGD


@functools.lru_cache(maxsize=4)
def _dataset(train_size, test_size, input_dim, num_classes, seed):
    return make_classification(
        train_size=train_size, test_size=test_size, input_dim=input_dim,
        num_classes=num_classes, seed=seed,
    )


def group_sizes(iterations: int, base: int, commits) -> "list[int]":
    """Per-iteration group size from ``(commit_iteration, new_size)`` pairs."""
    sizes = []
    size = base
    pending = sorted(commits)
    for iteration in range(iterations):
        while pending and pending[0][0] <= iteration:
            size = pending.pop(0)[1]
        sizes.append(size)
    return sizes


@functools.lru_cache(maxsize=64)
def expected_digest(spec, sizes: tuple) -> str:
    """:func:`serial_replay`, remembered: a run repeats identical jobs."""
    return serial_replay(spec, sizes)


def serial_replay(spec, sizes, timer=None) -> str:
    """Replay ``len(sizes)`` iterations; returns the parameter digest.

    ``timer`` (optional) is called as ``timer(seconds)`` once per
    iteration with that iteration's wall time — the single-worker
    baseline the ledger keeps beside the distributed numbers.
    """
    dataset = _dataset(
        spec.train_size, spec.test_size, spec.input_dim, spec.num_classes,
        spec.seed,
    )
    architecture = mlp_architecture(
        spec.input_dim, spec.hidden_dim, spec.num_classes
    )
    loader = SerialLoader(dataset_size=spec.train_size, seed=spec.seed)
    optimizer = MomentumSGD(spec.base_lr, momentum=spec.momentum)
    params = architecture.init(spec.seed)
    reduce = ring_reference_average if spec.ring_enabled else average_gradients
    for size in sizes:
        started = time.perf_counter()
        shards = loader.next_iteration(size, spec.per_worker_batch(size))
        grads = [
            architecture.loss_and_gradients(
                params, dataset.train_x[idx], dataset.train_y[idx]
            )[1]
            for idx in shards if idx.size
        ]
        if grads:
            optimizer.step(params, reduce(grads))
        if timer is not None:
            timer(time.perf_counter() - started)
    return params_digest(params)
