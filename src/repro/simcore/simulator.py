"""The discrete-event simulation kernel.

:class:`Simulator` owns the simulated clock and the event heap.  All timed
experiments in this repository — adjustment-latency measurements, scheduler
runs, replication timelines — execute on this kernel.
"""

from __future__ import annotations

import heapq
import itertools
import typing

from .events import Event, Timeout, all_of
from .process import Process


class Simulator:
    """A discrete-event simulator with a monotonically advancing clock."""

    def __init__(self, start_time: float = 0.0):
        self._now = float(start_time)
        self._heap: list = []
        self._counter = itertools.count()  # tie-break for equal timestamps
        self._active_process: Process | None = None

    @property
    def now(self) -> float:
        """Current simulated time."""
        return self._now

    @property
    def active_process(self) -> Process | None:
        """The process currently being stepped, if any."""
        return self._active_process

    # -- event factories ---------------------------------------------------

    def timeout(self, delay: float, value: object = None) -> Timeout:
        """Create an event that triggers ``delay`` time units from now."""
        return Timeout(self, delay, value)

    def process(self, generator: typing.Generator, name: str = "") -> Process:
        """Start a new process running ``generator``."""
        return Process(self, generator, name=name)

    def all_of(self, events: typing.Sequence[Event]) -> Event:
        """Event triggering once every event in ``events`` has triggered."""
        return all_of(self, events)

    # -- scheduling and execution ------------------------------------------

    def _schedule(self, event: Event, delay: float = 0.0) -> None:
        heapq.heappush(self._heap, (self._now + delay, next(self._counter), event))

    def step(self) -> None:
        """Process the single next event in the queue."""
        when, _tie, event = heapq.heappop(self._heap)
        if when < self._now:  # pragma: no cover - kernel invariant
            raise RuntimeError("event scheduled in the past")
        self._now = when
        callbacks, event.callbacks = event.callbacks, []
        event._mark_processed()
        for callback in callbacks:
            callback(event)

    def run(self, until: "float | Event | None" = None) -> object:
        """Run the simulation.

        * ``until`` is ``None`` — run until no events remain.
        * ``until`` is a number — run until the clock reaches that time.
        * ``until`` is an event — run until that event is processed and
          return its value (raising its exception if it failed).
        """
        if until is None:
            while self._heap:
                self.step()
            return None
        if isinstance(until, Event):
            target = until
            while self._heap and not target.processed:
                self.step()
            if not target.triggered:
                raise RuntimeError(
                    "simulation ran out of events before `until` triggered"
                )
            return target.value
        horizon = float(until)
        if horizon < self._now:
            raise ValueError(f"cannot run until {horizon} < now {self._now}")
        while self._heap and self._heap[0][0] <= horizon:
            self.step()
        self._now = horizon
        return None

    def peek(self) -> float:
        """Time of the next scheduled event, or ``inf`` if none remain."""
        return self._heap[0][0] if self._heap else float("inf")
