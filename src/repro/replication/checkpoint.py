"""Checkpoint-based state movement — the baseline Elan replaces (§I-A, §V-B).

Shutdown-Restart systems dump the training state to persistent storage
(Lustre in the paper's testbed) and re-load it after restarting.  Compared
with Elan's IO-free replication this involves a GPU->CPU copy, a
serialization, a filesystem write, and on restart the reverse — the
"heavy-weight IO operations and CPU-GPU memory copy" the paper calls out.

This module provides both the *cost model* of those phases (used by the
S&R baseline in the Fig. 11/15 benchmarks) and a real in-memory
:class:`SharedStorage` that the live S&R baseline writes its encoded
checkpoints through (emulating the shared filesystem).
"""

from __future__ import annotations

import dataclasses
import typing

from ..perfmodel import calibration


@dataclasses.dataclass(frozen=True)
class CheckpointCost:
    """Time components of one checkpoint write or load."""

    device_copy: float  # GPU <-> CPU memory copy
    serialize: float  # (de)serialization overhead
    storage_io: float  # filesystem read/write

    @property
    def total(self) -> float:
        """End-to-end time of the operation."""
        return self.device_copy + self.serialize + self.storage_io


def checkpoint_write_cost(
    gpu_bytes: int,
    cpu_bytes: int,
    write_bandwidth: float = calibration.LUSTRE_WRITE_BANDWIDTH,
    copy_bandwidth: float = calibration.PCIE_COPY_BANDWIDTH,
    serialize_overhead: float = calibration.CHECKPOINT_SERIALIZE_OVERHEAD,
) -> CheckpointCost:
    """Cost of dumping the full state to shared storage."""
    if gpu_bytes < 0 or cpu_bytes < 0:
        raise ValueError("state sizes must be non-negative")
    total_bytes = gpu_bytes + cpu_bytes
    return CheckpointCost(
        device_copy=gpu_bytes / copy_bandwidth,
        serialize=serialize_overhead,
        storage_io=total_bytes / write_bandwidth,
    )


def checkpoint_load_cost(
    gpu_bytes: int,
    cpu_bytes: int,
    read_bandwidth: float = calibration.LUSTRE_READ_BANDWIDTH,
    copy_bandwidth: float = calibration.PCIE_COPY_BANDWIDTH,
    serialize_overhead: float = calibration.CHECKPOINT_SERIALIZE_OVERHEAD,
) -> CheckpointCost:
    """Cost of loading the full state from shared storage."""
    if gpu_bytes < 0 or cpu_bytes < 0:
        raise ValueError("state sizes must be non-negative")
    total_bytes = gpu_bytes + cpu_bytes
    return CheckpointCost(
        device_copy=gpu_bytes / copy_bandwidth,
        serialize=serialize_overhead,
        storage_io=total_bytes / read_bandwidth,
    )


class SharedStorage:
    """An in-memory stand-in for the Lustre shared filesystem.

    A byte store keyed by path: the live Shutdown-Restart baseline
    writes its checkpoint — the hook bundle Elan replicates, encoded as
    a state blob — through this, so restart-from-checkpoint is
    exercised end to end (encoding bugs would surface here).
    """

    def __init__(self):
        self._blobs: typing.Dict[str, bytes] = {}
        self.writes = 0
        self.reads = 0

    def save(self, path: str, data: bytes) -> int:
        """Store ``data`` at ``path``; returns its size in bytes."""
        self._blobs[path] = bytes(data)
        self.writes += 1
        return len(data)

    def load(self, path: str) -> bytes:
        """The bytes previously saved at ``path``."""
        if path not in self._blobs:
            raise KeyError(f"no checkpoint at {path!r}")
        self.reads += 1
        return self._blobs[path]

    def exists(self, path: str) -> bool:
        """Whether a checkpoint exists at ``path``."""
        return path in self._blobs

    def delete(self, path: str) -> None:
        """Remove a checkpoint (idempotent)."""
        self._blobs.pop(path, None)
