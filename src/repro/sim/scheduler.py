"""Binary-heap event queue with deterministic ordering.

The heap stores plain ``(time, priority, seq, call)`` tuples so sift
comparisons run entirely in C — tuple comparison never reaches the
:class:`ScheduledCall` payload because the monotonically increasing
sequence number is unique.  That same sequence number makes simultaneous
events fire in scheduling order, which keeps runs bit-reproducible.

Cancellation is O(1): handles are flagged and skipped when popped (lazy
deletion), the standard approach for simulation heaps where cancelled
timers are common (e.g. MAC backoff timers invalidated by a collision
tone).

This module is the innermost hot path of every simulation (the N=100
rung of ``benchmarks/bench_scale.py`` gates it); :meth:`EventQueue.push`
deliberately builds handles via ``__new__`` + attribute stores instead
of calling the constructor, and the run loop in :mod:`repro.sim.simulator`
reaches into ``_heap`` directly.  Keep the ``(time, priority, seq)``
ordering contract and the lazy-cancellation invariants intact when
touching either side.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Any, Callable, List, Optional, Tuple

from ..errors import SchedulerError

__all__ = ["ScheduledCall", "EventQueue"]


class ScheduledCall:
    """A callback scheduled at an absolute simulation time.

    Instances are returned by :meth:`EventQueue.push` and by the
    ``Simulator.call_*`` helpers; hold on to one to :meth:`cancel` it.
    """

    __slots__ = ("time", "priority", "seq", "fn", "args", "cancelled", "_queue")

    def __init__(
        self,
        time: float,
        priority: int,
        seq: int,
        fn: Callable[..., Any],
        args: tuple,
        queue: "EventQueue",
    ) -> None:
        self.time = time
        self.priority = priority
        self.seq = seq
        self.fn = fn
        self.args = args
        self.cancelled = False
        self._queue = queue

    def cancel(self) -> None:
        """Mark this call so the queue skips it; idempotent."""
        if self.cancelled:
            return
        self.cancelled = True
        if self._queue is not None:
            self._queue._live -= 1
            self._queue = None  # type: ignore[assignment]
        # Drop references eagerly: a cancelled handle may sit in the heap
        # for a long simulated time and its args can pin large objects.
        self.fn = None  # type: ignore[assignment]
        self.args = ()

    def __lt__(self, other: "ScheduledCall") -> bool:
        if self.time != other.time:
            return self.time < other.time
        if self.priority != other.priority:
            return self.priority < other.priority
        return self.seq < other.seq

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = "cancelled" if self.cancelled else "pending"
        name = getattr(self.fn, "__qualname__", repr(self.fn))
        return f"<ScheduledCall t={self.time:.9g} {name} [{state}]>"


#: Heap entry layout; index 3 is the handle.
_Entry = Tuple[float, int, int, ScheduledCall]

_new_call = ScheduledCall.__new__


class EventQueue:
    """Min-heap of :class:`ScheduledCall` with lazy cancellation."""

    __slots__ = ("_heap", "_seq", "_live")

    def __init__(self) -> None:
        self._heap: List[_Entry] = []
        self._seq = 0
        self._live = 0

    def __len__(self) -> int:
        """Number of *live* (non-cancelled) scheduled calls."""
        return self._live

    def __bool__(self) -> bool:
        return self._live > 0

    def push(
        self,
        time: float,
        fn: Callable[..., Any],
        args: tuple = (),
        priority: int = 0,
    ) -> ScheduledCall:
        """Schedule ``fn(*args)`` at ``time``; returns a cancellable handle."""
        if time != time:  # NaN guard
            raise SchedulerError("cannot schedule at NaN time")
        seq = self._seq
        self._seq = seq + 1
        call = _new_call(ScheduledCall)
        call.time = time
        call.priority = priority
        call.seq = seq
        call.fn = fn
        call.args = args
        call.cancelled = False
        call._queue = self
        heappush(self._heap, (time, priority, seq, call))
        self._live += 1
        return call

    def peek_time(self) -> Optional[float]:
        """Earliest live event time, or None if empty."""
        heap = self._heap
        while heap and heap[0][3].cancelled:
            heappop(heap)
        return heap[0][0] if heap else None

    def pop(self) -> Optional[ScheduledCall]:
        """Remove and return the earliest live call, or None if empty."""
        heap = self._heap
        while heap:
            call = heappop(heap)[3]
            if not call.cancelled:
                self._live -= 1
                call._queue = None  # type: ignore[assignment]
                return call
        return None

    def clear(self) -> None:
        """Drop every scheduled call, releasing their callbacks eagerly.

        Routed through :meth:`ScheduledCall.cancel` so cleared handles
        also shed their ``fn``/``args`` references — a cleared queue must
        not pin large node/packet object graphs any more than a cancelled
        timer does.
        """
        for entry in self._heap:
            entry[3].cancel()
        self._heap.clear()
        self._live = 0
