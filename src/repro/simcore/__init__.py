"""Discrete-event simulation kernel.

A minimal, fully tested SimPy-style kernel: generator processes, an event
heap, all-of condition events, and a priority resource.  Every timed
experiment in the Elan reproduction runs on this kernel.
"""

from .events import Condition, Event, EventPending, Timeout, all_of
from .process import Process
from .resources import Request, Resource
from .simulator import Simulator

__all__ = [
    "Condition",
    "Event",
    "EventPending",
    "Process",
    "Request",
    "Resource",
    "Simulator",
    "Timeout",
    "all_of",
]
