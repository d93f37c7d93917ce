"""Property-based tests: data-loading semantics (paper §V-C).

Whatever the dataset size, worker counts, batch sizes and adjustment
points, both loader semantics must hand out every sample exactly once per
epoch — the data-consistency guarantee elasticity must not break.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.training import ChunkLoader, SerialLoader

sizes = st.integers(min_value=1, max_value=400)
workers = st.integers(min_value=1, max_value=8)
batches = st.integers(min_value=1, max_value=16)


def drain_epoch(loader, num_workers, batch):
    seen = []
    start = loader.epoch
    guard = 0
    while loader.epoch == start:
        for part in loader.next_iteration(num_workers, batch):
            seen.extend(part.tolist())
        guard += 1
        assert guard < 10_000, "loader failed to finish the epoch"
    return seen


class TestSerialLoaderProperties:
    @given(size=sizes, num_workers=workers, batch=batches, seed=st.integers(0, 50))
    @settings(max_examples=60, deadline=None)
    def test_exactly_once_per_epoch(self, size, num_workers, batch, seed):
        loader = SerialLoader(size, seed=seed)
        seen = drain_epoch(loader, num_workers, batch)
        assert sorted(seen) == list(range(size))

    @given(
        size=st.integers(min_value=20, max_value=300),
        first=workers,
        second=workers,
        batch=batches,
        switch_after=st.integers(min_value=0, max_value=5),
    )
    @settings(max_examples=60, deadline=None)
    def test_repartition_preserves_exactly_once(
        self, size, first, second, batch, switch_after
    ):
        """An elastic adjustment mid-epoch never duplicates or drops data."""
        loader = SerialLoader(size, seed=1)
        seen = []
        for _ in range(switch_after):
            if loader.epoch > 0:
                break
            for part in loader.next_iteration(first, batch):
                seen.extend(part.tolist())
        if loader.epoch == 0:
            loader.repartition(second)
            seen.extend(drain_epoch(loader, second, batch))
            assert sorted(seen) == list(range(size))

    @given(size=sizes, num_workers=workers, batch=batches)
    @settings(max_examples=40, deadline=None)
    def test_remaining_matches_position(self, size, num_workers, batch):
        loader = SerialLoader(size, seed=0)
        loader.next_iteration(num_workers, batch)
        state = loader.state_dict()
        assert loader.remaining_in_epoch == size - state["position"]

    @given(size=sizes, num_workers=workers, batch=batches, seed=st.integers(0, 20))
    @settings(max_examples=40, deadline=None)
    def test_replicas_stay_in_lockstep(self, size, num_workers, batch, seed):
        """Two replicas fed identical calls produce identical batches —
        the replicated-state-machine property every worker relies on."""
        a = SerialLoader(size, seed=seed)
        b = SerialLoader(size, seed=seed)
        for _ in range(4):
            batches_a = a.next_iteration(num_workers, batch)
            batches_b = b.next_iteration(num_workers, batch)
            for x, y in zip(batches_a, batches_b):
                assert np.array_equal(x, y)


class TestChunkLoaderProperties:
    @given(
        size=st.integers(min_value=1, max_value=300),
        chunk=st.integers(min_value=1, max_value=64),
        num_workers=workers,
        batch=batches,
    )
    @settings(max_examples=60, deadline=None)
    def test_exactly_once_per_epoch(self, size, chunk, num_workers, batch):
        loader = ChunkLoader(size, chunk_size=chunk, num_workers=num_workers)
        seen = drain_epoch(loader, num_workers, batch)
        assert sorted(seen) == list(range(size))

    @given(
        size=st.integers(min_value=30, max_value=300),
        chunk=st.integers(min_value=4, max_value=32),
        first=workers,
        second=workers,
        batch=batches,
    )
    @settings(max_examples=60, deadline=None)
    def test_repartition_preserves_exactly_once(
        self, size, chunk, first, second, batch
    ):
        loader = ChunkLoader(size, chunk_size=chunk, num_workers=first, seed=2)
        seen = []
        for part in loader.next_iteration(first, batch):
            seen.extend(part.tolist())
        if loader.epoch == 0:
            loader.repartition(second)
            seen.extend(drain_epoch(loader, second, batch))
        assert sorted(seen) == list(range(size))

    @given(
        size=st.integers(min_value=10, max_value=200),
        chunk=st.integers(min_value=2, max_value=32),
        num_workers=workers,
    )
    @settings(max_examples=40, deadline=None)
    def test_ownership_partitions_unfinished_chunks(self, size, chunk, num_workers):
        loader = ChunkLoader(size, chunk_size=chunk, num_workers=num_workers)
        loader.next_iteration(num_workers, 3)
        owned = [c for chunks in loader.ownership.values() for c in chunks]
        assert len(owned) == len(set(owned))  # no chunk owned twice
        unfinished = {
            c for c in loader.consumed if loader._remaining_of(c) > 0
        }
        assert unfinished <= set(owned) | unfinished


def reference_shards(size, seed, epoch, position, num_workers, batch):
    """The loader's defining formula, drawn from scratch on every call:
    a fresh permutation of epoch ``epoch`` split with ``np.array_split``."""
    order = np.random.default_rng(seed + epoch).permutation(size)
    stop = min(position + num_workers * batch, size)
    return np.array_split(order[position:stop], num_workers)


class TestSerialLoaderEpochCache:
    """The per-epoch permutation cache hands out exactly the shards the
    from-scratch formula gives, whatever the call sequence."""

    @given(
        size=st.integers(min_value=1, max_value=60),
        num_workers=workers,
        batch=st.integers(min_value=1, max_value=8),
        seed=st.integers(0, 50),
        calls=st.integers(min_value=1, max_value=40),
        restore_at=st.integers(min_value=0, max_value=40),
        jump=st.integers(min_value=-2, max_value=3),
    )
    @settings(max_examples=80, deadline=None)
    def test_matches_the_from_scratch_formula(
        self, size, num_workers, batch, seed, calls, restore_at, jump
    ):
        loader = SerialLoader(size, seed=seed)
        for call in range(calls):
            if call == restore_at:
                # A state round trip, then a load into another epoch
                # (possibly an earlier one) at an arbitrary position.
                state = loader.state_dict()
                replica = SerialLoader(size, seed=seed)
                replica.load_state_dict(state)
                assert replica.state_dict() == state
                loader.load_state_dict({
                    "epoch": max(0, state["epoch"] + jump),
                    "position": (state["position"] * 7 + call) % size,
                })
            epoch, position = loader.epoch, loader.position
            shards = loader.next_iteration(num_workers, batch)
            expected = reference_shards(
                size, seed, epoch, position, num_workers, batch
            )
            assert len(shards) == len(expected) == num_workers
            for got, want in zip(shards, expected):
                assert got.dtype == want.dtype
                assert np.array_equal(got, want)

    @given(size=sizes, num_workers=workers, batch=batches)
    @settings(max_examples=30, deadline=None)
    def test_shards_are_read_only(self, size, num_workers, batch):
        loader = SerialLoader(size, seed=3)
        for shard in loader.next_iteration(num_workers, batch):
            with pytest.raises(ValueError):
                shard[...] = 0

    def test_one_generator_per_epoch(self, monkeypatch):
        built = []
        real = np.random.default_rng

        def counting(seed):
            built.append(seed)
            return real(seed)

        monkeypatch.setattr(np.random, "default_rng", counting)
        loader = SerialLoader(10, seed=5)
        for _ in range(15):  # 3 per epoch at 4 samples: epochs 0..4
            loader.next_iteration(2, 2)
        assert built == [5, 6, 7, 8, 9]
        loader.load_state_dict({"epoch": 2, "position": 4})
        loader.next_iteration(2, 2)
        loader.next_iteration(2, 2)
        assert built == [5, 6, 7, 8, 9, 7]


class TestChunkLoaderEpochOrder:
    @given(
        size=st.integers(min_value=1, max_value=200),
        chunk=st.integers(min_value=1, max_value=32),
        num_workers=workers,
        seed=st.integers(0, 20),
        epoch=st.integers(0, 5),
    )
    @settings(max_examples=40, deadline=None)
    def test_chunks_are_slices_of_the_epoch_permutation(
        self, size, chunk, num_workers, seed, epoch
    ):
        loader = ChunkLoader(size, chunk_size=chunk, num_workers=num_workers,
                             seed=seed)
        state = loader.state_dict()
        state["epoch"] = epoch
        loader.load_state_dict(state)
        order = np.random.default_rng(seed + epoch).permutation(size)
        for chunk_id in range(loader.num_chunks):
            start = chunk_id * chunk
            assert np.array_equal(
                loader._chunk_indices(chunk_id), order[start:start + chunk]
            )
