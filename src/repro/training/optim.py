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
    ramp, and a worker applies that by assignment before each step.
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

