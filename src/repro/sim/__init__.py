"""Discrete-event simulation kernel (substrate for the CAEM reproduction).

Public surface:

* :class:`Simulator` — clock, scheduling, run loop.
* :func:`strictly_after` — the float-resolution guard for re-arms.
* :class:`EventQueue`, :class:`ScheduledCall` — the scheduler beneath it.
* :class:`Tracer` — protocol annotations for tests/diagnostics.
"""

from .scheduler import EventQueue, ScheduledCall
from .simulator import Simulator, strictly_after
from .trace import Annotation, Tracer

__all__ = [
    "Simulator",
    "strictly_after",
    "EventQueue",
    "ScheduledCall",
    "Tracer",
    "Annotation",
]
