"""The shared-resource primitive for simulation processes.

:class:`Resource` is a counted semaphore with FIFO or priority queuing
(serialized links in the replication executor).
"""

from __future__ import annotations

import itertools
import typing

from .events import Event

if typing.TYPE_CHECKING:  # pragma: no cover
    from .simulator import Simulator


class Request(Event):
    """A pending claim on a :class:`Resource`; triggers when granted.

    Usable as a context manager inside a process::

        with resource.request() as req:
            yield req
            ...  # critical section
    """

    def __init__(self, resource: "Resource", priority: float = 0.0):
        super().__init__(resource.sim)
        self.resource = resource
        self.priority = priority

    def __enter__(self) -> "Request":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.resource.release(self)


class Resource:
    """A counted resource with ``capacity`` slots.

    Requests are granted in priority order (lower value first), FIFO within
    a priority level.
    """

    def __init__(self, sim: "Simulator", capacity: int = 1):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.sim = sim
        self.capacity = capacity
        self._users: set = set()
        self._queue: list = []
        self._tiebreak = itertools.count()

    @property
    def count(self) -> int:
        """Number of slots currently held."""
        return len(self._users)

    @property
    def queued(self) -> int:
        """Number of requests waiting for a slot."""
        return len(self._queue)

    def request(self, priority: float = 0.0) -> Request:
        """Claim a slot; the returned event triggers once granted."""
        req = Request(self, priority)
        import heapq

        heapq.heappush(self._queue, (priority, next(self._tiebreak), req))
        self._grant()
        return req

    def release(self, request: Request) -> None:
        """Return a slot previously granted to ``request``.

        Releasing a never-granted (still queued) request cancels it.
        """
        if request in self._users:
            self._users.remove(request)
        else:
            self._queue = [
                entry for entry in self._queue if entry[2] is not request
            ]
            import heapq

            heapq.heapify(self._queue)
        self._grant()

    def _grant(self) -> None:
        import heapq

        while self._queue and len(self._users) < self.capacity:
            _prio, _tie, req = heapq.heappop(self._queue)
            self._users.add(req)
            req.succeed(req)
