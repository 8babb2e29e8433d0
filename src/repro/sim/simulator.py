"""Simulator facade: the clock, the queue, and the run loop.

Design notes
------------
* Time is a float in **seconds**; the kernel never rounds, and simultaneous
  events run in deterministic scheduling order (see scheduler module).
* Every model schedules plain callbacks (:meth:`Simulator.call_in`,
  :meth:`Simulator.call_in_strict` for periodic re-arms); there is no
  generator-coroutine layer.
* ``run_until`` executes every event with ``time <= until`` and then sets
  the clock exactly to ``until`` so back-to-back calls compose.
"""

from __future__ import annotations

import math
from heapq import heappop
from typing import Any, Callable, Optional

from ..errors import SchedulerError, SimulationError
from .scheduler import EventQueue, ScheduledCall

__all__ = ["Simulator", "strictly_after"]


def strictly_after(now: float, delay: float) -> float:
    """Absolute target time ``delay`` seconds after ``now``, guaranteed
    to be strictly in the future.

    At large simulation times a small positive ``delay`` can underflow the
    float resolution of the clock (``now + delay == now``); a periodic
    re-arm computed that way fires at the same instant forever, freezing
    simulated time in a zero-delay event storm.  This helper nudges an
    underflowed target to the next representable float instant so the
    clock always advances.  Every periodic re-arm (meter settling, tone
    trains, backoff, latency timers) should schedule through this guard —
    see :meth:`Simulator.call_in_strict`.
    """
    if delay < 0:
        raise SchedulerError(f"negative delay: {delay!r}")
    target = now + delay
    if target <= now:
        return math.nextafter(now, math.inf)
    return target


class Simulator:
    """Discrete-event simulator: clock + event queue + run loop.

    Examples
    --------
    >>> sim = Simulator()
    >>> fired = []
    >>> _ = sim.call_in(1.5, fired.append, "a")
    >>> _ = sim.call_in(0.5, fired.append, "b")
    >>> sim.run()
    >>> fired
    ['b', 'a']
    >>> sim.now
    1.5
    """

    __slots__ = (
        "_now",
        "_queue",
        "_running",
        "_stopped",
        "events_processed",
    )

    def __init__(self, start_time: float = 0.0) -> None:
        self._now = float(start_time)
        self._queue = EventQueue()
        self._running = False
        self._stopped = False
        #: Total number of callbacks executed; cheap progress/perf metric.
        self.events_processed = 0

    # -- clock ----------------------------------------------------------------

    @property
    def now(self) -> float:
        """Current simulation time in seconds."""
        return self._now

    @property
    def pending_events(self) -> int:
        """Number of live scheduled callbacks."""
        return len(self._queue)

    # -- scheduling -----------------------------------------------------------

    def call_at(
        self, time: float, fn: Callable[..., Any], *args: Any, priority: int = 0
    ) -> ScheduledCall:
        """Schedule ``fn(*args)`` at absolute ``time`` (>= now)."""
        if time < self._now:
            raise SchedulerError(
                f"cannot schedule into the past: t={time:.9g} < now={self._now:.9g}"
            )
        return self._queue.push(time, fn, args, priority)

    def call_in(
        self, delay: float, fn: Callable[..., Any], *args: Any, priority: int = 0
    ) -> ScheduledCall:
        """Schedule ``fn(*args)`` after ``delay`` seconds (>= 0)."""
        if delay < 0:
            raise SchedulerError(f"negative delay: {delay!r}")
        return self._queue.push(self._now + delay, fn, args, priority)

    def call_in_strict(
        self, delay: float, fn: Callable[..., Any], *args: Any, priority: int = 0
    ) -> ScheduledCall:
        """Like :meth:`call_in`, but guaranteed to fire strictly after now.

        Use this for periodic re-arms: when ``now + delay`` underflows the
        float clock resolution the target is nudged to the next
        representable instant (see :func:`strictly_after`), so a re-arming
        callback can never pin the clock in a same-instant loop.
        """
        return self._queue.push(
            strictly_after(self._now, delay), fn, args, priority
        )

    def schedule_now(self, fn: Callable[..., Any], *args: Any) -> ScheduledCall:
        """Schedule ``fn(*args)`` at the current time (after current event)."""
        return self._queue.push(self._now, fn, args, 0)

    # -- run loop ---------------------------------------------------------------

    def step(self) -> bool:
        """Execute the single earliest event; returns False if queue empty."""
        call = self._queue.pop()
        if call is None:
            return False
        if call.time < self._now:  # pragma: no cover - defensive
            raise SimulationError("event queue returned a past event")
        self._now = call.time
        self.events_processed += 1
        call.fn(*call.args)
        return True

    def run(self, max_events: Optional[int] = None) -> None:
        """Run until the queue empties (or ``max_events`` callbacks ran)."""
        self._run_loop(until=None, max_events=max_events)

    def run_until(self, until: float, max_events: Optional[int] = None) -> None:
        """Run every event with ``time <= until``; clock ends exactly at ``until``."""
        if until < self._now:
            raise SchedulerError(
                f"run_until({until!r}) is in the past (now={self._now!r})"
            )
        self._run_loop(until=until, max_events=max_events)
        if not self._stopped:
            self._now = max(self._now, until)

    def _run_loop(self, until: Optional[float], max_events: Optional[int]) -> None:
        """Inlined event dispatch — the innermost loop of every simulation.

        One heap operation per event: the earliest live entry is inspected
        in place and popped once, instead of the peek-then-pop double head
        scan that :meth:`step` pays.  ``heappop`` and the raw heap list are
        bound outside the loop.  Events are tuples
        ``(time, priority, seq, call)`` (see :mod:`repro.sim.scheduler`),
        so ordering and lazy cancellation behave exactly as in
        :meth:`step`/:meth:`EventQueue.pop`.
        """
        if self._running:
            raise SimulationError("simulator is already running (reentrant run)")
        self._running = True
        self._stopped = False
        queue = self._queue
        heap = queue._heap
        pop = heappop
        horizon = math.inf if until is None else until
        # Negative = unbounded: the counter just keeps decrementing and
        # never reaches zero.
        remaining = -1 if max_events is None else max_events
        try:
            while remaining != 0 and not self._stopped:
                while heap and heap[0][3].cancelled:
                    pop(heap)
                if not heap:
                    break
                entry = heap[0]
                t = entry[0]
                if t > horizon:
                    break
                pop(heap)
                call = entry[3]
                queue._live -= 1
                call._queue = None
                self._now = t
                self.events_processed += 1
                call.fn(*call.args)
                remaining -= 1
        finally:
            self._running = False

    def stop(self) -> None:
        """Stop the run loop after the current event completes."""
        self._stopped = True

    def reset(self, start_time: float = 0.0) -> None:
        """Clear the queue and rewind the clock; for test harnesses."""
        self._queue.clear()
        self._now = float(start_time)
        self._stopped = False
        self.events_processed = 0

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<Simulator now={self._now:.6g}s pending={len(self._queue)} "
            f"processed={self.events_processed}>"
        )
