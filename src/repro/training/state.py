"""The training state Elan replicates (paper Table II, Fig. 7).

Data-parallel training is a stateful iterative process; its full state is:

====================  ========  =====================================
component             device    size character
====================  ========  =====================================
model parameters      GPU       large (up to GBs; e.g. BERT > 1 GB)
optimizer state       GPU       large (momentum/Adam buffers)
data-loading state    CPU       small (one integer under serial
                                semantics; a record table otherwise)
communication group   CPU       small (member list)
runtime info          CPU       tiny (epoch, iteration, lr, batch)
====================  ========  =====================================

Every existing worker holds one identical copy of the whole state — the
fact the concurrent replication mechanism exploits (§IV-1).
"""

from __future__ import annotations

import dataclasses
import pickle
import typing

import numpy as np

from .nn import Params, clone_params, param_bytes


@dataclasses.dataclass
class RuntimeInfo:
    """Scalar bookkeeping that must survive an adjustment.

    The four ``ramp_*`` fields describe an in-flight progressive linear
    scaling ramp (paper Eq. 3); with the defaults the learning rate is
    constant at ``learning_rate``.
    """

    epoch: int = 0
    iteration: int = 0
    learning_rate: float = 0.1
    total_batch_size: int = 32
    ramp_start: int = -1
    ramp_length: int = 0
    ramp_base_lr: float = 0.0
    ramp_target_lr: float = 0.0

    def to_dict(self) -> dict:
        """Plain-dict form for serialization."""
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "RuntimeInfo":
        """Inverse of :meth:`to_dict`."""
        return cls(**data)


@dataclasses.dataclass
class TrainingState:
    """One worker's complete replica of the job state."""

    model: Params
    optimizer: dict
    loader: dict
    comm_group: typing.List[str]
    runtime: RuntimeInfo

    def clone(self) -> "TrainingState":
        """Deep copy — what a state replication produces on the new worker."""
        return TrainingState(
            model=clone_params(self.model),
            optimizer=pickle.loads(pickle.dumps(self.optimizer)),
            loader=dict(self.loader),
            comm_group=list(self.comm_group),
            runtime=RuntimeInfo.from_dict(self.runtime.to_dict()),
        )

    # -- size accounting (drives the replication cost model) -----------------

    def gpu_bytes(self) -> int:
        """Bytes resident on the GPU: parameters + optimizer buffers."""
        opt_bytes = sum(
            v.nbytes
            for v in self.optimizer.get("velocity", {}).values()
            if isinstance(v, np.ndarray)
        )
        return param_bytes(self.model) + opt_bytes

    def cpu_bytes(self) -> int:
        """Bytes resident on the CPU: loader + group + runtime info."""
        return (
            len(pickle.dumps(self.loader))
            + len(pickle.dumps(self.comm_group))
            + len(pickle.dumps(self.runtime.to_dict()))
        )

    def total_bytes(self) -> int:
        """Total replicable state size."""
        return self.gpu_bytes() + self.cpu_bytes()

    # -- serialization (used by the checkpoint/S&R baseline) -----------------

    def serialize(self) -> bytes:
        """Byte-serialize the full state (what a checkpoint writes)."""
        return pickle.dumps(
            {
                "model": self.model,
                "optimizer": self.optimizer,
                "loader": self.loader,
                "comm_group": self.comm_group,
                "runtime": self.runtime.to_dict(),
            }
        )

    @classmethod
    def deserialize(cls, blob: bytes) -> "TrainingState":
        """Inverse of :meth:`serialize`."""
        data = pickle.loads(blob)
        return cls(
            model=data["model"],
            optimizer=data["optimizer"],
            loader=data["loader"],
            comm_group=data["comm_group"],
            runtime=RuntimeInfo.from_dict(data["runtime"]),
        )

    def equals(self, other: "TrainingState") -> bool:
        """Exact equality of two replicas (data-consistency check)."""
        if set(self.model) != set(other.model):
            return False
        if any(
            not np.array_equal(self.model[k], other.model[k]) for k in self.model
        ):
            return False
        mine = self.optimizer.get("velocity", {})
        theirs = other.optimizer.get("velocity", {})
        if set(mine) != set(theirs):
            return False
        if any(not np.array_equal(mine[k], theirs[k]) for k in mine):
            return False
        return (
            self.loader == other.loader
            and self.comm_group == other.comm_group
            and self.runtime == other.runtime
        )
