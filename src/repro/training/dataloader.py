"""Data-loading semantics: serial vs chunk-based (paper §V-C, Fig. 13).

Elan proposes a **serial** loading semantics: all workers fetch from one
global, serially advancing position, so the not-yet-consumed data is always
one contiguous range and the whole loader state is a single integer.  The
widely used **chunk-based** semantics pre-partitions the epoch into chunks
owned by workers; after elastic adjustments the remaining data is
fragmented and the state is a record table with non-trivial management
logic.  Both are implemented here so the trade-off can be measured
(state size, repartition cost); the workers use the serial one.

Both loaders are *replicated state machines*: every worker holds an
identical copy and advances it with the same arguments each iteration, so
all replicas agree on who reads what — this is how the loader state stays
consistent under Elan's data-parallel scheme.
"""

from __future__ import annotations

import typing

import numpy as np


class _EpochOrder:
    """The current epoch's sample order, drawn once per epoch.

    The order is a pure function of ``(seed, epoch)``, so it is derived
    state, not loader state: it is cached keyed on ``self.epoch`` and
    redrawn when the epoch moves (rollover or ``load_state_dict``).  It
    is read-only because the batches handed out are views into it.
    """

    dataset_size: int
    seed: int
    shuffle: bool
    epoch: int
    _order_epoch: "int | None" = None
    _order: np.ndarray

    def _epoch_order(self) -> np.ndarray:
        if self._order_epoch != self.epoch:
            if self.shuffle:
                rng = np.random.default_rng(self.seed + self.epoch)
                order = rng.permutation(self.dataset_size)
            else:
                order = np.arange(self.dataset_size)
            order.flags.writeable = False
            self._order, self._order_epoch = order, self.epoch
        return self._order


class SerialLoader(_EpochOrder):
    """Global serial data loading (the paper's proposed semantics).

    Each iteration hands out one contiguous slice of the current epoch's
    permutation, split contiguously among ranks.  The state is
    ``(epoch, position)`` — "a single integer" plus the epoch counter;
    the permutation itself is a per-epoch cache derived from it.
    """

    def __init__(self, dataset_size: int, seed: int = 0, shuffle: bool = True):
        if dataset_size < 1:
            raise ValueError(f"dataset_size must be >= 1, got {dataset_size}")
        self.dataset_size = dataset_size
        self.seed = seed
        self.shuffle = shuffle
        self.epoch = 0
        self.position = 0

    def next_iteration(
        self, num_workers: int, batch_per_worker: int
    ) -> "list[np.ndarray]":
        """Sample indices for each rank's next micro-batch.

        The last batch of an epoch may be smaller; it is still split as
        evenly as possible so all ranks step together (the first
        ``len % num_workers`` ranks get one more, as ``np.array_split``
        would).  Advancing past the end rolls the epoch over.  The
        returned arrays are read-only views of the epoch's order.
        """
        if num_workers < 1 or batch_per_worker < 1:
            raise ValueError("num_workers and batch_per_worker must be >= 1")
        total = num_workers * batch_per_worker
        order = self._epoch_order()
        stop = min(self.position + total, self.dataset_size)
        batch = order[self.position : stop]
        self.position = stop
        if self.position >= self.dataset_size:
            self.epoch += 1
            self.position = 0
        each, extra = divmod(len(batch), num_workers)
        bounds = [rank * each + min(rank, extra) for rank in range(num_workers + 1)]
        return [batch[start:end] for start, end in zip(bounds, bounds[1:])]

    @property
    def remaining_in_epoch(self) -> int:
        """Samples of the current epoch not yet handed out — contiguous."""
        return self.dataset_size - self.position

    def state_dict(self) -> dict:
        """The loader state: one integer position plus the epoch counter."""
        return {"epoch": self.epoch, "position": self.position}

    def load_state_dict(self, state: dict) -> None:
        """Restore a previously extracted state."""
        self.epoch = state["epoch"]
        self.position = state["position"]

    def repartition(self, num_workers: int) -> None:
        """Adapt to a new worker count.

        Serial semantics make this free: the remaining data is contiguous
        regardless of how many workers will read it, so there is nothing
        to do (§V-C: "the remaining data are always continuous").
        """
        if num_workers < 1:
            raise ValueError(f"num_workers must be >= 1, got {num_workers}")

    def state_size_bytes(self) -> int:
        """Size of the replicable loader state (two integers)."""
        return 16


class ChunkLoader(_EpochOrder):
    """Chunk-based loading (the widely-used baseline the paper contrasts).

    The epoch's permutation is cut into fixed-size chunks; ranks own
    disjoint chunk lists and consume them sequentially.  The loader state
    is a record table of per-chunk consumed offsets plus the ownership map.
    """

    def __init__(
        self,
        dataset_size: int,
        chunk_size: int = 256,
        num_workers: int = 1,
        seed: int = 0,
        shuffle: bool = True,
    ):
        if dataset_size < 1:
            raise ValueError(f"dataset_size must be >= 1, got {dataset_size}")
        if chunk_size < 1:
            raise ValueError(f"chunk_size must be >= 1, got {chunk_size}")
        self.dataset_size = dataset_size
        self.chunk_size = chunk_size
        self.seed = seed
        self.shuffle = shuffle
        self.epoch = 0
        self._start_epoch(num_workers)

    @property
    def num_chunks(self) -> int:
        """Chunks per epoch (last chunk may be short)."""
        return -(-self.dataset_size // self.chunk_size)

    def _start_epoch(self, num_workers: int) -> None:
        self.consumed: typing.Dict[int, int] = {c: 0 for c in range(self.num_chunks)}
        self._assign(num_workers)

    def _chunk_indices(self, chunk_id: int) -> np.ndarray:
        start = chunk_id * self.chunk_size
        return self._epoch_order()[start : start + self.chunk_size]

    def _chunk_len(self, chunk_id: int) -> int:
        return min(self.chunk_size, self.dataset_size - chunk_id * self.chunk_size)

    def _remaining_of(self, chunk_id: int) -> int:
        return self._chunk_len(chunk_id) - self.consumed[chunk_id]

    def _assign(self, num_workers: int) -> None:
        """Distribute unfinished chunks across ranks, balancing remainders.

        This is the "complex management logic" of Fig. 13: on every
        repartition the fragmented leftovers must be re-spread.
        """
        if num_workers < 1:
            raise ValueError(f"num_workers must be >= 1, got {num_workers}")
        unfinished = sorted(
            (c for c in self.consumed if self._remaining_of(c) > 0),
            key=lambda c: -self._remaining_of(c),
        )
        self.ownership: typing.Dict[int, list] = {
            rank: [] for rank in range(num_workers)
        }
        loads = [0] * num_workers
        for chunk in unfinished:  # greedy balance by remaining samples
            rank = loads.index(min(loads))
            self.ownership[rank].append(chunk)
            loads[rank] += self._remaining_of(chunk)

    def next_iteration(
        self, num_workers: int, batch_per_worker: int
    ) -> "list[np.ndarray]":
        """Per-rank micro-batches; ranks that ran dry get empty arrays.

        When every chunk is consumed the epoch rolls over.
        """
        if num_workers != len(self.ownership):
            raise ValueError(
                f"loader partitioned for {len(self.ownership)} workers, "
                f"called with {num_workers}; repartition() first"
            )
        if batch_per_worker < 1:
            raise ValueError("batch_per_worker must be >= 1")
        batches = []
        for rank in range(num_workers):
            taken: list = []
            need = batch_per_worker
            for chunk in self.ownership[rank]:
                if need == 0:
                    break
                remaining = self._remaining_of(chunk)
                if remaining == 0:
                    continue
                take = min(need, remaining)
                offset = self.consumed[chunk]
                taken.append(self._chunk_indices(chunk)[offset : offset + take])
                self.consumed[chunk] += take
                need -= take
            batches.append(
                np.concatenate(taken) if taken else np.empty(0, dtype=np.int64)
            )
        if all(self._remaining_of(c) == 0 for c in self.consumed):
            self.epoch += 1
            self._start_epoch(num_workers)
        return batches

    @property
    def remaining_in_epoch(self) -> int:
        """Samples of the current epoch not yet handed out — fragmented."""
        return sum(self._remaining_of(c) for c in self.consumed)

    def state_dict(self) -> dict:
        """The record table: per-chunk offsets plus the ownership map."""
        return {
            "epoch": self.epoch,
            "consumed": dict(self.consumed),
            "ownership": {rank: list(chunks) for rank, chunks in self.ownership.items()},
        }

    def load_state_dict(self, state: dict) -> None:
        """Restore a previously extracted state."""
        self.epoch = state["epoch"]
        self.consumed = dict(state["consumed"])
        self.ownership = {
            rank: list(chunks) for rank, chunks in state["ownership"].items()
        }

    def repartition(self, num_workers: int) -> None:
        """Re-spread the fragmented remainder over a new worker count."""
        self._assign(num_workers)

    def state_size_bytes(self) -> int:
        """Size of the record table — grows with the number of chunks."""
        ownership_entries = sum(len(chunks) for chunks in self.ownership.values())
        return 8 + 16 * len(self.consumed) + 8 * ownership_entries
