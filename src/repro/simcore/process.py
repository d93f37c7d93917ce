"""Simulation processes: generators driven by the event kernel."""

from __future__ import annotations

import typing

from .events import Event

if typing.TYPE_CHECKING:  # pragma: no cover
    from .simulator import Simulator


class Process(Event):
    """A running simulation process.

    A process wraps a generator.  Each value the generator yields must be an
    :class:`~repro.simcore.events.Event`; the process sleeps until that event
    triggers and is then resumed with the event's value.  A process is itself
    an event that triggers when the generator returns, so processes can wait
    for each other (``yield other_process``).
    """

    def __init__(self, sim: "Simulator", generator: typing.Generator, name: str = ""):
        super().__init__(sim)
        if not hasattr(generator, "send") or not hasattr(generator, "throw"):
            raise TypeError(f"Process requires a generator, got {generator!r}")
        self.name = name or getattr(generator, "__name__", "process")
        self._generator = generator
        # Bootstrap: resume the process at the current simulation time.
        init = Event(sim)
        init.callbacks.append(self._resume)
        init.succeed()

    @property
    def is_alive(self) -> bool:
        """True while the underlying generator has not finished."""
        return not self._triggered

    def _resume(self, event: Event) -> None:
        if event.ok:
            self._step(send=event._value)
        else:
            self._step(throw=event._exception)

    def _step(self, send: object = None, throw: BaseException | None = None) -> None:
        if not self.is_alive:
            return
        self.sim._active_process = self
        try:
            if throw is not None:
                target = self._generator.throw(throw)
            else:
                target = self._generator.send(send)
        except StopIteration as stop:
            self.succeed(stop.value)
            return
        except BaseException as exc:
            self.fail(exc)
            return
        finally:
            self.sim._active_process = None
        if not isinstance(target, Event):
            self._step(
                throw=TypeError(
                    f"process {self.name!r} yielded non-event {target!r}"
                )
            )
            return
        if target.processed:
            # The event already happened; resume immediately (same time).
            wakeup = Event(self.sim)
            wakeup.callbacks.append(lambda _ev: self._resume(target))
            wakeup.succeed()
        else:
            target.callbacks.append(self._resume)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        status = "alive" if self.is_alive else "done"
        return f"<Process {self.name!r} {status}>"
