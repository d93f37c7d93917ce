"""Optimizers for the numpy training substrate.

Momentum SGD is the optimizer the paper's hybrid scaling analysis assumes
(its Eq. 1 is the plain SGD update).  The optimizer state (velocity
buffers) is part of the training state Elan replicates (Table II), so it is
held explicitly and can be extracted/restored.
"""

from __future__ import annotations

import typing

import numpy as np

from .nn import Params


class MomentumSGD:
    """SGD with classical momentum and a mutable learning rate.

    The learning rate is a plain attribute on purpose: the progressive
    linear scaling rule (paper Eq. 3) adjusts it every iteration during a
    ramp, and the runtime applies that by assignment before each step.
    """

    def __init__(self, lr: float, momentum: float = 0.9, weight_decay: float = 0.0):
        if lr <= 0:
            raise ValueError(f"learning rate must be > 0, got {lr}")
        if not 0.0 <= momentum < 1.0:
            raise ValueError(f"momentum must be in [0, 1), got {momentum}")
        self.lr = lr
        self.momentum = momentum
        self.weight_decay = weight_decay
        self._velocity: typing.Dict[str, np.ndarray] = {}
        #: per parameter: (dtype key, ``lr * grad`` buffer, in-place ok)
        self._scratch: typing.Dict[str, tuple] = {}

    def step(self, params: Params, grads: Params) -> None:
        """Apply one in-place update to ``params``.

        ``velocity = momentum * velocity - lr * grad`` runs as the same
        ufuncs in the same operand order as that expression, written
        into buffers held per parameter: ``lr * grad`` into a scratch
        buffer of the dtype the product itself would have, the rest
        into the velocity.  A step whose dtypes would promote the
        velocity takes the out-of-place form once.
        """
        lr, momentum = self.lr, self.momentum
        for name, grad in grads.items():
            if self.weight_decay:
                grad = grad + self.weight_decay * params[name]
            velocity = self._velocity.get(name)
            if velocity is None:
                velocity = self._velocity[name] = np.zeros_like(params[name])
            # Result dtypes follow from the operand types (NEP 50 promotion).
            key = (type(lr), type(momentum), grad.dtype, grad.shape, velocity.dtype)
            cached = self._scratch.get(name)
            if cached is not None and cached[0] == key:
                _, scaled, in_place = cached
                np.multiply(lr, grad, out=scaled)
            else:
                scaled = lr * grad
                in_place = (
                    np.result_type(momentum, velocity) == velocity.dtype
                    == np.result_type(velocity, scaled)
                )
                self._scratch[name] = (key, scaled, in_place)
            if in_place:
                np.multiply(momentum, velocity, out=velocity)
                np.subtract(velocity, scaled, out=velocity)
            else:
                velocity = self._velocity[name] = momentum * velocity - scaled
            params[name] += velocity

    # -- state management (replicated by Elan, Table II) ---------------------

    def state_dict(self) -> dict:
        """Extract the optimizer state for replication."""
        return {
            "lr": self.lr,
            "momentum": self.momentum,
            "weight_decay": self.weight_decay,
            "velocity": {name: v.copy() for name, v in self._velocity.items()},
        }

    def load_state_dict(self, state: dict) -> None:
        """Restore a previously extracted optimizer state."""
        self.lr = state["lr"]
        self.momentum = state["momentum"]
        self.weight_decay = state["weight_decay"]
        self._velocity = {name: v.copy() for name, v in state["velocity"].items()}

    def state_bytes(self) -> int:
        """Byte size of the velocity buffers (GPU state in Table II)."""
        return sum(v.nbytes for v in self._velocity.values())


class ShardedMomentumSGD(MomentumSGD):
    """Momentum SGD whose *persisted* state is a ZeRO-style shard.

    The second parallelism dimension of the sharded-migration plane:
    each worker still steps with the full velocity (data-parallel
    replicas apply the identical update, so steps stay bit-identical to
    :class:`MomentumSGD`), but what it *persists* — and therefore what
    an adjustment must replicate per worker — is only its rank's
    contiguous slice of the flat velocity space, dropping per-worker
    replication traffic by 1/world.

    The flat space is the concatenation of the velocity buffers in
    parameter order; :meth:`shard_state_dict` cuts ``[rank, world)``
    element ranges out of it, :meth:`merge_shards` reassembles any
    complete shard set (even one persisted under a *different* world
    size), and :meth:`reshard` re-slices after an adjustment changed
    the worker count — reshaping along worker-count × shard-count.
    """

    def __init__(self, lr: float, momentum: float = 0.9,
                 weight_decay: float = 0.0, rank: int = 0, world: int = 1):
        super().__init__(lr, momentum, weight_decay)
        self.reshard(rank, world)

    def reshard(self, rank: int, world: int) -> None:
        """Adopt a new (rank, world) slicing after an adjustment."""
        world = int(world)
        rank = int(rank)
        if world < 1:
            raise ValueError(f"world size must be >= 1, got {world}")
        if not 0 <= rank < world:
            raise ValueError(f"rank {rank} outside world of {world}")
        self.rank = rank
        self.world = world

    # -- the flat velocity space ---------------------------------------------

    def _flat_layout(self) -> "list[tuple[str, int, int]]":
        """(name, flat_start, flat_end) per buffer, in insertion order."""
        layout = []
        offset = 0
        for name, velocity in self._velocity.items():
            layout.append((name, offset, offset + velocity.size))
            offset += velocity.size
        return layout

    @staticmethod
    def _shard_bounds(total: int, rank: int, world: int) -> "tuple[int, int]":
        base, extra = divmod(total, world)
        start = rank * base + min(rank, extra)
        return start, start + base + (1 if rank < extra else 0)

    def shard_state_dict(self, rank: "int | None" = None,
                         world: "int | None" = None) -> dict:
        """The persisted form: hyperparameters + one velocity slice."""
        rank = self.rank if rank is None else int(rank)
        world = self.world if world is None else int(world)
        layout = self._flat_layout()
        total = layout[-1][2] if layout else 0
        start, end = self._shard_bounds(total, rank, world)
        flat = (
            np.concatenate([v.ravel() for _, v in self._velocity.items()])
            if layout else np.zeros(0)
        )
        return {
            "lr": self.lr,
            "momentum": self.momentum,
            "weight_decay": self.weight_decay,
            "rank": rank,
            "world": world,
            "total": total,
            "shapes": {
                name: list(v.shape) for name, v in self._velocity.items()
            },
            "slice": flat[start:end].copy(),
        }

    def shard_bytes(self, rank: "int | None" = None,
                    world: "int | None" = None) -> int:
        """Persisted bytes for one rank — the 1/world of state_bytes."""
        shard = self.shard_state_dict(rank, world)
        return int(shard["slice"].nbytes)

    @classmethod
    def merge_shards(cls, shards: "typing.Sequence[dict]") -> dict:
        """Reassemble a full ``state_dict`` from one complete shard set.

        The shards may come from any world size (they carry their own
        ``(rank, world)``), as long as together they tile the flat
        space exactly — the property an adjustment relies on when the
        worker count changes between persist and restore.
        """
        if not shards:
            raise ValueError("cannot merge an empty shard set")
        first = shards[0]
        total = int(first["total"])
        flat = np.zeros(total, dtype=first["slice"].dtype
                        if first["slice"].size else np.float64)
        covered = 0
        for shard in shards:
            if int(shard["total"]) != total:
                raise ValueError("shards disagree on the flat-space size")
            start, end = cls._shard_bounds(
                total, int(shard["rank"]), int(shard["world"])
            )
            piece = np.asarray(shard["slice"]).ravel()
            if piece.size != end - start:
                raise ValueError(
                    f"shard {shard['rank']}/{shard['world']} has "
                    f"{piece.size} elements, expected {end - start}"
                )
            flat[start:end] = piece
            covered += end - start
        if covered != total:
            raise ValueError(
                f"shard set covers {covered} of {total} elements"
            )
        velocity = {}
        offset = 0
        for name, shape in first["shapes"].items():
            size = int(np.prod(shape)) if shape else 1
            velocity[name] = flat[offset:offset + size].reshape(shape).copy()
            offset += size
        return {
            "lr": first["lr"],
            "momentum": first["momentum"],
            "weight_decay": first["weight_decay"],
            "velocity": velocity,
        }
