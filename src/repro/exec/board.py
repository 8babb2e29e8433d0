"""The lease board: the one failure state machine of fault-tolerant runs.

Only the board counts attempts, schedules retries and quarantines
cells.  The distributed coordinator serves its board to remote workers
over HTTP; the supervised worker pool (``pool`` and ``supervised``)
keeps a private one that its forked workers report to.  :func:`settle`
is the one loop that turns a board into a campaign's results, events
and grid-ordered store writes.

An idle worker *pulls* the next pending cell by taking a **lease** on
it.  A lease is a time-boxed exclusive claim:

* ``lease()`` hands out the oldest ready pending item FIFO and starts
  its expiry clock (``lease_timeout_s``); a cell backing off after a
  failure keeps its place but is skipped until its delay has passed;
* ``heartbeat()`` renews every lease a worker holds — a healthy worker
  heartbeats at a fraction of the timeout while simulating;
* a lease that misses its heartbeat window **expires**: the cell counts
  one failed attempt of kind ``"lease"`` (the worker presumably crashed
  or vanished) and returns to pending for the next idle worker to
  steal — for remote workers there is no other failure detector;
* ``complete()`` / ``fail()`` settle an attempt; first completion wins,
  and a straggler's late result for an already-settled item is
  acknowledged but discarded (results are deterministic, so a duplicate
  is byte-identical anyway).  Each failed attempt's ``(kind, error)``
  stays on the item, so every one is reported exactly once.

Items are keyed by pairing key, so two overlapping campaigns submitted
to the same board **share** cells: the second ``submit`` of a key
refcounts the existing item instead of queueing a duplicate simulation,
and both campaigns observe the one settled result.

Attempts exhausted → ``quarantined`` (the PR 8 vocabulary), carried
back to the campaign as a :class:`~repro.exec.base.CellFailure`.
Administrative release (``release_all``, used by
``JobManager.shutdown``) refunds the attempt: shutdown is not the
cell's fault, so it must never push a cell toward quarantine.

Thread-safe; everything is guarded by one condition variable, and
``wait()`` lets the coordinator sleep until something settles.
"""

from __future__ import annotations

import itertools
import threading
import time
import uuid
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from .base import CellFailure, ExecutionHooks

__all__ = [
    "LeaseBoard", "WorkItem", "settle",
    "PENDING", "LEASED", "DONE", "QUARANTINED",
]

PENDING = "pending"
LEASED = "leased"
DONE = "done"
QUARANTINED = "quarantined"


class WorkItem:
    """One simulation cell on the board, shared across campaigns by key."""

    __slots__ = (
        "item_id", "key", "payload", "max_attempts", "status", "attempts",
        "lease_id", "worker", "expires_at", "not_before", "result",
        "failures", "refs", "describe",
    )

    def __init__(self, item_id, key, payload, max_attempts, describe=""):
        self.item_id = item_id
        self.key = key
        self.payload = payload
        self.max_attempts = max_attempts
        self.describe = describe
        self.status = PENDING
        self.attempts = 0
        self.lease_id: Optional[str] = None
        self.worker: Optional[str] = None
        self.expires_at: Optional[float] = None
        #: Monotonic time before which a backing-off cell is not leased.
        self.not_before = 0.0
        self.result: Optional[Dict[str, Any]] = None
        #: ``(kind, error)`` of every failed attempt, in attempt order.
        self.failures: List[Tuple[str, str]] = []
        self.refs = 0

    @property
    def error(self) -> Optional[str]:
        """The latest failed attempt's error (``None`` before any)."""
        return self.failures[-1][1] if self.failures else None


class LeaseBoard:
    """Shared pending/leased/done ledger behind the coordinator endpoints."""

    def __init__(self, lease_timeout_s: float = 30.0):
        self.lease_timeout_s = float(lease_timeout_s)
        self._cond = threading.Condition()
        self._items: Dict[Any, WorkItem] = {}  # pairing key -> item
        self._queue: List[Any] = []  # FIFO of pending keys
        self._leases: Dict[str, Any] = {}  # live lease_id -> key
        self._expired: Dict[str, Any] = {}  # expired lease_id -> key
        self._ids = itertools.count(1)
        self._worker_seen: Dict[str, float] = {}
        self._worker_cells: Dict[str, int] = {}

    # -- campaign side -------------------------------------------------

    def submit(
        self, key, payload, max_attempts: int = 3, describe: str = ""
    ) -> Tuple[WorkItem, bool]:
        """Queue one cell; dedup by pairing key across campaigns.

        Returns ``(item, shared)`` — ``shared`` is True when the key was
        already on the board (another campaign's identical cell), in
        which case this campaign just subscribes to the existing item.
        """
        with self._cond:
            item = self._items.get(key)
            if item is not None:
                item.refs += 1
                # The widest requirement wins: a later campaign asking
                # for more attempts must not be capped by an earlier one.
                item.max_attempts = max(item.max_attempts, max_attempts)
                return item, True
            item = WorkItem(
                next(self._ids), key, payload, max_attempts, describe
            )
            item.refs = 1
            self._items[key] = item
            self._queue.append(key)
            self._cond.notify_all()
            return item, False

    def retire(self, item: WorkItem) -> None:
        """Drop one campaign's subscription; GC the item when unreferenced.

        Only settled items are garbage-collected — an in-flight cell
        stays on the board so a late lease can still settle it.
        """
        with self._cond:
            item.refs = max(0, item.refs - 1)
            if item.refs == 0 and item.status in (DONE, QUARANTINED):
                self._items.pop(item.key, None)

    # -- worker side ---------------------------------------------------

    def lease(self, worker: str) -> Optional[Dict[str, Any]]:
        """Hand the oldest ready pending cell to ``worker``, or None."""
        with self._cond:
            now = time.monotonic()
            self._expire_locked(now)
            self._worker_seen[worker] = now
            pos = 0
            while pos < len(self._queue):
                key = self._queue[pos]
                item = self._items.get(key)
                if item is None or item.status != PENDING:
                    del self._queue[pos]  # settled or GC'd while queued
                    continue
                if item.not_before > now:
                    pos += 1  # backing off: later cells go first
                    continue
                del self._queue[pos]
                item.status = LEASED
                item.attempts += 1
                item.worker = worker
                item.lease_id = uuid.uuid4().hex
                item.expires_at = now + self.lease_timeout_s
                self._leases[item.lease_id] = key
                return {
                    "lease_id": item.lease_id,
                    "attempt": item.attempts,
                    "key": list(item.key),
                    "cell": item.payload,
                    "describe": item.describe,
                    "lease_timeout_s": self.lease_timeout_s,
                }
            return None

    def heartbeat(self, worker: str) -> int:
        """Renew every lease ``worker`` holds; returns how many."""
        with self._cond:
            now = time.monotonic()
            self._worker_seen[worker] = now
            renewed = 0
            for key in self._leases.values():
                item = self._items.get(key)
                if item is not None and item.status == LEASED and \
                        item.worker == worker:
                    item.expires_at = now + self.lease_timeout_s
                    renewed += 1
            return renewed

    def complete(self, lease_id: str, result: Dict[str, Any]) -> bool:
        """Settle a lease's cell with its result dict; first wins.

        A result arriving after the lease expired (slow worker, not dead)
        is still accepted if the cell hasn't settled — the work is done
        and deterministic, so discarding it would only waste a re-run.
        """
        with self._cond:
            key = self._leases.pop(lease_id, None)
            if key is None:
                # An expired lease's result is still good (the worker
                # was slow, not dead) as long as the cell is unsettled.
                key = self._expired.pop(lease_id, None)
            if key is None:
                return False
            item = self._items.get(key)
            if item is None or item.status in (DONE, QUARANTINED):
                return False
            if item.status == PENDING and key in self._queue:
                # The lease expired and the cell re-queued, but the
                # original worker finished anyway: take its result and
                # pull the cell back off the queue.
                self._queue.remove(key)
            item.status = DONE
            item.result = result
            item.lease_id = None
            item.expires_at = None
            self._purge_expired_locked(key)
            if item.worker:
                self._worker_cells[item.worker] = (
                    self._worker_cells.get(item.worker, 0) + 1
                )
            self._cond.notify_all()
            return True

    def fail(
        self,
        lease_id: str,
        error: str,
        kind: str = "error",
        retry_after: float = 0.0,
    ) -> bool:
        """Record a failed attempt of ``kind``; re-queue or quarantine.

        A re-queued cell is not leased again for ``retry_after`` seconds
        (the supervised executor's backoff); cells behind it go first.
        """
        with self._cond:
            key = self._leases.pop(lease_id, None)
            if key is None:
                # A late failure report: the expiry already counted the
                # attempt, so just forget the stale lease.
                self._expired.pop(lease_id, None)
                return False
            item = self._items.get(key)
            if item is None or item.status != LEASED:
                return False
            self._fail_locked(item, kind, error, retry_after)
            self._cond.notify_all()
            return True

    # -- supervision ---------------------------------------------------

    def sweep(self) -> None:
        """Expire overdue leases now (the coordinator calls this in its
        wait loop so recovery does not depend on worker traffic)."""
        with self._cond:
            if self._expire_locked(time.monotonic()):
                self._cond.notify_all()

    def release_all(self) -> int:
        """Return every leased cell to pending (coordinator shutdown)."""
        with self._cond:
            released = 0
            for lease_id, key in list(self._leases.items()):
                item = self._items.get(key)
                if item is not None and item.status == LEASED:
                    self._release_locked(item, lease_id)
                    released += 1
            if released:
                self._cond.notify_all()
            return released

    def observe(self, item: WorkItem) -> Tuple[str, int, List[Tuple[str, str]]]:
        """One consistent ``(status, attempts, failures)`` view of ``item``."""
        with self._cond:
            return item.status, item.attempts, list(item.failures)

    def wait(self, timeout: Optional[float] = None) -> None:
        """Block until the board changes (settle/submit) or timeout."""
        with self._cond:
            self._cond.wait(timeout)

    def counts(self) -> Dict[str, int]:
        with self._cond:
            out = {PENDING: 0, LEASED: 0, DONE: 0, QUARANTINED: 0}
            for item in self._items.values():
                out[item.status] += 1
            return out

    def workers(self) -> Dict[str, Dict[str, Any]]:
        with self._cond:
            now = time.monotonic()
            return {
                name: {
                    "cells_done": self._worker_cells.get(name, 0),
                    "last_seen_s": round(now - seen, 3),
                }
                for name, seen in sorted(self._worker_seen.items())
            }

    # -- internals (call with the lock held) ---------------------------

    def _expire_locked(self, now: float) -> int:
        expired = 0
        for lease_id, key in list(self._leases.items()):
            item = self._items.get(key)
            if item is None or item.status != LEASED:
                self._leases.pop(lease_id, None)
                continue
            if item.expires_at is not None and now >= item.expires_at:
                self._leases.pop(lease_id, None)
                self._expired[lease_id] = key
                self._fail_locked(
                    item,
                    "lease",
                    f"lease expired after {self.lease_timeout_s:g}s — "
                    f"worker {item.worker!r} missed its heartbeat "
                    f"(crashed, killed, or partitioned)",
                )
                expired += 1
        return expired

    def _fail_locked(
        self, item: WorkItem, kind: str, error: str, retry_after: float = 0.0
    ) -> None:
        item.failures.append((kind, error))
        item.lease_id = None
        item.expires_at = None
        if item.attempts >= item.max_attempts:
            item.status = QUARANTINED
            self._purge_expired_locked(item.key)
        else:
            item.status = PENDING
            item.not_before = time.monotonic() + retry_after
            self._queue.append(item.key)

    def _purge_expired_locked(self, key) -> None:
        """A settled cell's expired lease ids can't matter any more."""
        self._expired = {
            lid: k for lid, k in self._expired.items() if k != key
        }

    def _release_locked(self, item: WorkItem, lease_id: str) -> None:
        self._leases.pop(lease_id, None)
        item.status = PENDING
        item.attempts = max(0, item.attempts - 1)  # refund: not a failure
        item.lease_id = None
        item.worker = None
        item.expires_at = None
        self._queue.append(item.key)


def settle(
    board: LeaseBoard,
    scenarios: Sequence,
    payloads: Sequence,
    hooks: ExecutionHooks,
    max_attempts: int,
    pump: Callable[[], None],
    decode: Callable[[Any], Any] = lambda result: result,
) -> Tuple[List[Optional[Any]], List[CellFailure]]:
    """The settle loop of both fault-tolerant executors.

    Submits each scenario by pairing key with its ``payloads`` entry,
    then repeats, in the caller's thread: sweep the board; emit one
    ``retry`` event per failed attempt and one ``cell`` or
    ``quarantine`` event per settled cell; flush the settled prefix
    through ``hooks.flush_done`` in grid order; call ``pump``, the
    executor's wait for progress.  ``decode`` turns a board result into
    this campaign's own result object.  Returns ``(results, failures)``
    like :meth:`~repro.exec.base.CampaignExecutor.execute`; an
    exception, a failing store's included, propagates.
    """
    from ..api.pairing import scenario_key

    total = len(scenarios)
    items: List[WorkItem] = []
    shared: List[bool] = []
    for scenario, payload in zip(scenarios, payloads):
        item, dup = board.submit(
            scenario_key(scenario),
            payload,
            max_attempts=max_attempts,
            describe=scenario.describe(),
        )
        items.append(item)
        shared.append(dup)
    results: List[Optional[Any]] = [None] * total
    failures: List[CellFailure] = []
    settled = [False] * total
    reported = [0] * total  # failed attempts already sent as retry events
    flushed = 0
    try:
        while True:
            board.sweep()
            for index in range(flushed, total):
                if settled[index]:
                    continue
                item = items[index]
                status, attempts, history = board.observe(item)
                retried = history[:-1] if status == QUARANTINED else history
                for attempt in range(reported[index] + 1, len(retried) + 1):
                    kind, error = retried[attempt - 1]
                    hooks.emit({
                        "type": "retry",
                        "index": index,
                        "total": total,
                        "attempt": attempt,
                        "max_attempts": item.max_attempts,
                        "kind": kind,
                        "error": error,
                    })
                reported[index] = len(retried)
                if status == DONE:
                    results[index] = decode(item.result)
                    hooks.emit({
                        "type": "cell",
                        "index": index,
                        "total": total,
                        "source": "sim",
                        "attempts": attempts,
                        "worker": item.worker,
                        "shared": shared[index],
                        "scenario": scenarios[index].describe(),
                    })
                elif status == QUARANTINED:
                    error = history[-1][1]
                    failures.append(CellFailure(
                        index=index,
                        scenario=scenarios[index],
                        attempts=attempts,
                        error=error,
                    ))
                    hooks.emit({
                        "type": "quarantine",
                        "index": index,
                        "total": total,
                        "attempts": attempts,
                        "error": error,
                    })
                settled[index] = status in (DONE, QUARANTINED)
            while flushed < total and settled[flushed]:
                if results[flushed] is not None:
                    hooks.flush_done(results[flushed])
                flushed += 1
            if flushed == total:
                return results, failures
            pump()
    finally:
        for item in items:
            board.retire(item)
