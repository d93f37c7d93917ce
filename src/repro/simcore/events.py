"""Event primitives for the discrete-event simulation kernel.

The kernel is generator-based: simulation *processes* are Python generators
that ``yield`` :class:`Event` objects.  Yielding an event suspends the
process until the event is *triggered*, at which point the kernel resumes the
generator, sending the event's value in (or throwing its exception).

This mirrors the SimPy programming model but is implemented from scratch so
that the repository is self-contained and the semantics needed by the Elan
reproduction (condition events, priority resources) are explicit and
tested.
"""

from __future__ import annotations

import typing

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .simulator import Simulator


class EventPending(Exception):
    """Raised when the value of an untriggered event is accessed."""


class Event:
    """A happening at a point in simulated time.

    An event moves through three states:

    * *pending* — created, not yet scheduled;
    * *triggered* — given a value (or exception) and queued for processing;
    * *processed* — its callbacks have run and waiting processes resumed.
    """

    def __init__(self, sim: "Simulator"):
        self.sim = sim
        self.callbacks: list = []
        self._value: object = None
        self._exception: BaseException | None = None
        self._triggered = False
        self._processed = False

    @property
    def triggered(self) -> bool:
        """Whether the event has been given a value or exception."""
        return self._triggered

    @property
    def processed(self) -> bool:
        """Whether the event's callbacks have already run."""
        return self._processed

    @property
    def ok(self) -> bool:
        """True if the event triggered successfully (no exception)."""
        return self._triggered and self._exception is None

    @property
    def value(self) -> object:
        """The event's value; raises :class:`EventPending` if untriggered."""
        if not self._triggered:
            raise EventPending(f"{self!r} has not been triggered")
        if self._exception is not None:
            raise self._exception
        return self._value

    def succeed(self, value: object = None) -> "Event":
        """Trigger the event successfully with ``value``."""
        if self._triggered:
            raise RuntimeError(f"{self!r} already triggered")
        self._triggered = True
        self._value = value
        self.sim._schedule(self)
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Trigger the event with an exception to throw into waiters."""
        if self._triggered:
            raise RuntimeError(f"{self!r} already triggered")
        if not isinstance(exception, BaseException):
            raise TypeError("fail() requires an exception instance")
        self._triggered = True
        self._exception = exception
        self.sim._schedule(self)
        return self

    def _mark_processed(self) -> None:
        self._processed = True

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = (
            "processed"
            if self._processed
            else "triggered" if self._triggered else "pending"
        )
        return f"<{type(self).__name__} {state} at {hex(id(self))}>"


class Timeout(Event):
    """An event that triggers ``delay`` time units after its creation."""

    def __init__(self, sim: "Simulator", delay: float, value: object = None):
        if delay < 0:
            raise ValueError(f"negative delay {delay}")
        super().__init__(sim)
        self.delay = delay
        self._triggered = True
        self._value = value
        sim._schedule(self, delay=delay)


class Condition(Event):
    """An event that triggers when a quorum of child events have triggered.

    Used through the :func:`all_of` helper.  The value of a condition is a
    dict mapping each triggered child event to its value.
    """

    def __init__(self, sim: "Simulator", events: typing.Sequence[Event], count: int):
        super().__init__(sim)
        self.events = list(events)
        if count > len(self.events):
            raise ValueError(
                f"need {count} of {len(self.events)} events; impossible"
            )
        self._needed = count
        self._done = 0
        if count == 0 or not self.events:
            self.succeed({})
            return
        for event in self.events:
            if event.processed:
                self._on_child(event)
            else:
                event.callbacks.append(self._on_child)

    def _on_child(self, event: Event) -> None:
        if self._triggered:
            return
        if not event.ok:
            self.fail(event._exception)  # propagate the first failure
            return
        self._done += 1
        if self._done >= self._needed:
            self.succeed(
                {ev: ev._value for ev in self.events if ev.ok}
            )


def all_of(sim: "Simulator", events: typing.Sequence[Event]) -> Condition:
    """Return an event that triggers once *all* ``events`` have triggered."""
    return Condition(sim, events, len(list(events)))
