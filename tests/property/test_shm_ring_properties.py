"""Property-based tests: the shm SPSC ring against a FIFO model.

One thread plays producer and consumer over random capacities, record
sizes and consumer lag (how many records it lets queue, and whether it
holds the last one unadvanced while the producer writes).  Checked on
every step: records come out byte-identical and in order, each
``read()`` view is one contiguous region inside the ring, and a write
never touches the bytes between ``tail`` and ``head`` — the records
the consumer has not released, lap-end skips and drained-ring rewinds
included.
"""

import collections

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net.shm import ShmRing


def live_bytes(ring, tail, head):
    """The ring bytes at absolute offsets ``[tail, head)``."""
    start, size = tail % ring.capacity, head - tail
    first = ring._data[start:min(ring.capacity, start + size)]
    rest = ring._data[0:max(0, start + size - ring.capacity)]
    return bytes(first) + bytes(rest)


def view_offset(ring, view):
    """Where ``view`` starts inside the ring's data region."""
    base = np.frombuffer(ring._data, np.uint8).ctypes.data
    return np.frombuffer(view, np.uint8).ctypes.data - base


@st.composite
def schedules(draw):
    capacity = draw(st.integers(64, 4096))
    largest = capacity // 2 - 4  # the biggest payload a record may carry
    sizes = draw(st.lists(st.integers(0, largest), min_size=1, max_size=60))
    lag = draw(st.integers(0, 5))
    hold = draw(st.booleans())
    return capacity, sizes, lag, hold


class TestShmRingModel:
    @given(schedule=schedules(), seed=st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=80, deadline=None)
    def test_fifo_contiguous_and_never_overwrites_live_bytes(
        self, schedule, seed
    ):
        capacity, sizes, lag, hold = schedule
        rng = np.random.default_rng(seed)
        ring = ShmRing(capacity=capacity)
        queued = collections.deque()  # written, not yet read
        state = {"held": None}  # a view read but not advanced

        def consume():
            """Release the held record, then read the next one."""
            state["held"] = None
            ring.advance()
            expected = queued.popleft()
            view = ring.read(timeout=0)
            assert view is not None
            assert view.contiguous and view.nbytes == len(expected)
            offset = view_offset(ring, view)
            assert 0 <= offset and offset + view.nbytes <= ring.capacity
            assert bytes(view) == expected
            if hold:
                state["held"] = view
            else:
                del view
                ring.advance()

        try:
            for size in sizes:
                payload = rng.bytes(size)
                while True:
                    head, tail = ring._head, ring._tail
                    before = live_bytes(ring, tail, head)
                    written = ring.write([payload], timeout=0)
                    assert live_bytes(ring, tail, head) == before
                    if written:
                        break
                    # Full: only the consumer can make room.  A drained
                    # ring with nothing held always takes the record.
                    assert queued or state["held"] is not None
                    if queued:
                        consume()
                    else:
                        state["held"] = None
                        ring.advance()
                queued.append(payload)
                while len(queued) > lag:
                    consume()
            while queued:
                consume()
            state["held"] = None
            ring.advance()
            assert ring._head == ring._tail
        finally:
            state["held"] = None
            ring.close(unlink=True)
