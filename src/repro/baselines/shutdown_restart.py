"""The live Shutdown-Restart baseline (paper §VI-A "S&R").

The most common elasticity practice (Gandiva, Optimus): on an adjustment,
checkpoint all training state to shared storage, shut every worker down,
restart the job with the new resource configuration and load the
checkpoint.  This implementation actually does all of that against the
numpy substrate — a real encode through the in-memory shared filesystem,
real teardown of the replica, real reload — so its data-consistency
behaviour can be compared against Elan's runtime (state-wise they must
agree; time-wise S&R pays the Fig. 11 phases).

"All training state" is exactly what Elan replicates: the
:data:`~repro.coordination.hooks.DEFAULT_HOOKS` bundle captured from the
replica, plus the iteration count, encoded as the same
:class:`~repro.net.chunks.StateBlob` a joiner fetches.
"""

from __future__ import annotations

import types

import numpy as np

from ..coordination.hooks import DEFAULT_HOOKS
from ..net.chunks import StateBlob, decode_state_blob
from ..replication import SharedStorage
from ..training.dataloader import SerialLoader
from ..training.datasets import Dataset
from ..training.nn import (
    accuracy,
    average_gradients,
    init_mlp,
    loss_and_gradients,
)
from ..training.optim import MomentumSGD


class ShutdownRestartJob:
    """A data-parallel training job with checkpoint-based elasticity.

    The job is driven synchronously by the caller (there is no async
    coordination to exploit — that is the point of the baseline):
    ``train(n)`` runs n iterations, ``adjust(workers)`` performs the full
    checkpoint / shutdown / restart / load cycle.
    """

    def __init__(
        self,
        dataset: Dataset,
        workers: int,
        total_batch_size: int,
        base_lr: float = 0.05,
        hidden_dim: int = 32,
        momentum: float = 0.9,
        storage: "SharedStorage | None" = None,
        seed: int = 0,
    ):
        if workers < 1:
            raise ValueError("workers must be >= 1")
        if total_batch_size < workers:
            raise ValueError("total batch smaller than the worker count")
        self.dataset = dataset
        self.base_lr = base_lr
        self.hidden_dim = hidden_dim
        self.momentum = momentum
        self.storage = storage or SharedStorage()
        self.seed = seed
        self.checkpoints = 0
        self.restarts = 0
        self._alive = True
        self.workers = workers
        self.total_batch_size = total_batch_size
        #: completed iterations.
        self.iteration = 0
        # One canonical replica: in data-parallel training every worker
        # holds identical state, so the baseline tracks it once and splits
        # micro-batches the same way the real workers would.
        self.replica = self._fresh_replica()
        self.replica.params = init_mlp(
            dataset.input_dim, hidden_dim, dataset.num_classes, seed=seed
        )

    def _fresh_replica(self) -> types.SimpleNamespace:
        """A cold-started replica: no parameters, blank optimizer/loader."""
        return types.SimpleNamespace(
            params=None,
            optimizer=MomentumSGD(lr=self.base_lr, momentum=self.momentum),
            loader=SerialLoader(self.dataset.train_size, seed=self.seed),
        )

    @property
    def checkpoint_path(self) -> str:
        """Where this job checkpoints on the shared filesystem."""
        return f"sr/job-{self.seed}/checkpoint"

    def train(self, iterations: int) -> "list[float]":
        """Run ``iterations`` synchronous data-parallel iterations."""
        if not self._alive:
            raise RuntimeError("job is shut down; restart() first")
        per_worker = max(1, self.total_batch_size // self.workers)
        replica = self.replica
        losses = []
        for _ in range(iterations):
            slices = replica.loader.next_iteration(self.workers, per_worker)
            grads, batch_losses = [], []
            for indices in slices:
                if len(indices) == 0:
                    continue
                loss, grad = loss_and_gradients(
                    replica.params,
                    self.dataset.train_x[indices],
                    self.dataset.train_y[indices],
                )
                grads.append(grad)
                batch_losses.append(loss)
            replica.optimizer.step(replica.params, average_gradients(grads))
            losses.append(float(np.mean(batch_losses)))
            self.iteration += 1
        return losses

    # -- the S&R adjustment cycle (Fig. 10 timeline) ----------------------------

    def checkpoint(self) -> int:
        """Dump the full training state to shared storage; returns bytes."""
        state = {hook.name: hook.capture(self.replica) for hook in DEFAULT_HOOKS}
        state["iteration"] = self.iteration
        self.checkpoints += 1
        return self.storage.save(
            self.checkpoint_path, StateBlob.encode(state).tobytes()
        )

    def shutdown(self) -> None:
        """Tear down every worker: all in-memory state is discarded."""
        self._alive = False
        self.replica = None

    def restart(self, workers: int) -> None:
        """Cold-start with a new worker count and load the checkpoint."""
        if workers < 1:
            raise ValueError("workers must be >= 1")
        if not self.storage.exists(self.checkpoint_path):
            raise RuntimeError("no checkpoint to restart from")
        state = decode_state_blob(self.storage.load(self.checkpoint_path))
        replica = self._fresh_replica()
        for hook in DEFAULT_HOOKS:
            hook.restore(replica, state[hook.name])
        replica.loader.repartition(workers)
        self.replica = replica
        self.iteration = int(state["iteration"])
        self.workers = workers
        self._alive = True
        self.restarts += 1

    def adjust(self, workers: int) -> None:
        """The full S&R cycle: checkpoint -> shutdown -> restart+load."""
        self.checkpoint()
        self.shutdown()
        self.restart(workers)

    # -- observation ----------------------------------------------------------------

    def evaluate(self) -> float:
        """Test accuracy of the current model."""
        if not self._alive:
            raise RuntimeError("job is shut down")
        return accuracy(
            self.replica.params, self.dataset.test_x, self.dataset.test_y
        )

    def params(self) -> dict:
        """The current model parameters (canonical replica)."""
        if not self._alive:
            raise RuntimeError("job is shut down")
        return self.replica.params
