"""Property-based tests: the deterministic shard plan (ISSUE 10).

The sharded-migration plane leans on one invariant: for ANY blob
geometry and ANY shard count, the shard plan tiles the blob exactly —
every chunk and every byte lands in exactly one shard, no gaps, no
overlaps — and hashing the shards' bytes in index order reproduces the
whole-blob digest.  A violation would let a joiner assemble a
digest-valid-per-shard snapshot that is silently wrong as a whole.
"""

import hashlib
import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net import ChunkAssembler, StateBlob
from repro.net.chunks import decode_state_blob, shard_ranges


def geometry():
    """(total_bytes, chunk_bytes) pairs, including the degenerate ones."""
    return st.tuples(st.integers(0, 5000), st.integers(1, 512))


class TestShardRanges:
    @given(geom=geometry(), count=st.integers(1, 24))
    @settings(max_examples=300, deadline=None)
    def test_plan_tiles_chunks_and_bytes_exactly_once(self, geom, count):
        total_bytes, chunk_bytes = geom
        total_chunks = max(1, math.ceil(total_bytes / chunk_bytes))
        shards = shard_ranges(total_chunks, chunk_bytes, total_bytes, count)

        assert len(shards) == min(count, total_chunks)
        assert [s["index"] for s in shards] == list(range(len(shards)))
        # Chunk ranges are contiguous, half-open, and tile [0, total_chunks).
        assert shards[0]["start_chunk"] == 0
        assert shards[-1]["end_chunk"] == total_chunks
        for prev, nxt in zip(shards, shards[1:]):
            assert prev["end_chunk"] == nxt["start_chunk"]
        # Byte ranges follow the chunks and tile [0, total_bytes).
        assert shards[0]["start_byte"] == 0
        assert shards[-1]["end_byte"] == total_bytes
        for prev, nxt in zip(shards, shards[1:]):
            assert prev["end_byte"] == nxt["start_byte"]
        for shard in shards:
            assert shard["start_byte"] == shard["start_chunk"] * chunk_bytes
            assert shard["end_byte"] == min(
                shard["end_chunk"] * chunk_bytes, total_bytes
            )

    @given(geom=geometry(), count=st.integers(1, 24))
    @settings(max_examples=300, deadline=None)
    def test_remainder_chunks_go_to_lowest_shards(self, geom, count):
        total_bytes, chunk_bytes = geom
        total_chunks = max(1, math.ceil(total_bytes / chunk_bytes))
        shards = shard_ranges(total_chunks, chunk_bytes, total_bytes, count)
        sizes = [s["end_chunk"] - s["start_chunk"] for s in shards]
        assert all(size >= 1 for size in sizes)
        assert max(sizes) - min(sizes) <= 1
        # Non-increasing: the +1 remainder chunks come first.
        assert sizes == sorted(sizes, reverse=True)

    @given(geom=geometry(), count=st.integers(1, 24))
    @settings(max_examples=200, deadline=None)
    def test_plan_is_a_pure_function_of_the_geometry(self, geom, count):
        total_bytes, chunk_bytes = geom
        total_chunks = max(1, math.ceil(total_bytes / chunk_bytes))
        first = shard_ranges(total_chunks, chunk_bytes, total_bytes, count)
        again = shard_ranges(total_chunks, chunk_bytes, total_bytes, count)
        assert first == again


def random_state(draw):
    """A small synthetic training state with randomized array shapes."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n_params = draw(st.integers(1, 4))
    params = {
        f"p{i}": rng.random(draw(st.integers(0, 300)))
        for i in range(n_params)
    }
    return {
        "params": params,
        "optimizer": {"lr": 0.1, "velocity": {"p0": rng.random(8)}},
        "loader": {"cursor": draw(st.integers(0, 100))},
    }


class TestStateBlobShardPlan:
    @given(data=st.data(), chunk_bytes=st.integers(16, 2048),
           count=st.integers(1, 12))
    @settings(max_examples=60, deadline=None)
    def test_shard_digests_compose_to_blob_digest(
        self, data, chunk_bytes, count
    ):
        state = random_state(data.draw)
        blob = StateBlob.encode(state, chunk_bytes=chunk_bytes)
        shards = blob.shard_plan(count)

        joined = b"".join(
            blob.byte_range(s["start_byte"], s["end_byte"]) for s in shards
        )
        assert len(joined) == blob.total_bytes
        # Each shard digest covers exactly its range; in index order the
        # ranges reassemble the full blob bit-for-bit.
        for shard in shards:
            piece = blob.byte_range(shard["start_byte"], shard["end_byte"])
            assert hashlib.sha256(piece).hexdigest() == shard["digest"]
        assert hashlib.sha256(joined).hexdigest() == blob.digest

    @given(data=st.data(), chunk_bytes=st.integers(16, 2048),
           count=st.integers(1, 12))
    @settings(max_examples=40, deadline=None)
    def test_assembler_completes_from_adopted_shards(
        self, data, chunk_bytes, count
    ):
        """Any mix of whole-shard adoption and per-chunk feeding yields a
        digest-identical blob: the assembler's two entry points agree."""
        state = random_state(data.draw)
        blob = StateBlob.encode(state, chunk_bytes=chunk_bytes)
        shards = blob.shard_plan(count)
        adopt = {
            s["index"] for s in shards
            if data.draw(st.booleans(), label=f"adopt shard {s['index']}")
        }
        assembler = ChunkAssembler(
            "t", blob.total_bytes, blob.total_chunks, blob.chunk_bytes,
        )
        for shard in shards:
            if shard["index"] in adopt:
                assembler.adopt_shard(
                    shard,
                    blob.byte_range(shard["start_byte"], shard["end_byte"]),
                    shard["digest"],
                )
            else:
                for seq in range(shard["start_chunk"], shard["end_chunk"]):
                    assembler.add(seq, blob.chunk(seq), blob.chunk_digest(seq))
        assembled = assembler.finish(blob.digest)
        decoded = decode_state_blob(assembled)
        for name, value in state["params"].items():
            np.testing.assert_array_equal(decoded["params"][name], value)
