"""The supervised worker pool: forked workers under a watchdog.

Up to ``jobs`` worker processes, forked on demand and kept for the whole
:meth:`SupervisedExecutor.execute` call, run the grid one cell attempt
at a time.  A worker loops: receive ``(scenario, attempt)`` over its
pipe, send back :func:`~repro.exec.local.run_attempt`'s outcome, exit
on EOF.  Every attempt runs under a wall-clock watchdog, which is what
makes the recovery guarantees possible — a hung cell's worker can be
SIGKILLed without collateral damage, and a crashed or killed worker
takes down exactly one attempt; its slot forks a fresh worker for its
next lease.

Retry and quarantine are not decided here.  The cells sit on a private
:class:`~repro.exec.board.LeaseBoard`, the state machine distributed
runs use, and each attempt's outcome is reported to it: an exception
(traceback carried) is kind ``error``, pipe EOF is ``crash``, a
watchdog kill is ``timeout``, and a failed cell backs off for
:meth:`~repro.exec.spec.ExecutorSpec.backoff_delay` before its next
lease.  Its leases never expire: the watchdog is the failure detector.
The shared :func:`~repro.exec.board.settle` loop emits the events and
flushes results in grid order.  ``pool:N`` is this executor with no
retries by default.  Whatever way ``execute`` exits, every worker is
killed and reaped; a worker whose parent dies reads EOF and exits.
"""

from __future__ import annotations

import math
import time
from typing import Any, Dict, List, NamedTuple, Optional, Sequence, Tuple

from .base import CampaignExecutor, CellFailure, ExecutionHooks
from .board import LeaseBoard, settle
from .local import run_attempt
from .spec import ExecutorSpec

__all__ = ["SupervisedExecutor"]

#: Longest the settle loop waits between two looks at the board.
_PUMP_WAIT_S = 0.05


def _worker_loop(conn, inherited) -> None:
    """Body of one worker process: run attempts until the parent hangs up.

    ``inherited`` holds the parent's ends of this worker's pipe and of
    every other live worker's.  A forked worker has copies of them and
    must close those, or it never reads EOF once the parent dies.  A
    hard death (crash injection, SIGKILL, OOM) sends nothing — the
    parent reads EOF and treats it as a crash.
    """
    for other in inherited:
        other.close()
    try:
        while True:
            scenario, attempt = conn.recv()
            conn.send(run_attempt(scenario, attempt))
    except (EOFError, OSError):
        pass  # the parent closed the pipe or died: nothing left to run


class _Task(NamedTuple):
    """One attempt a worker is running, and the lease it reports to."""

    lease_id: str
    index: int
    attempt: int
    slot: int
    deadline: float


class SupervisedExecutor(CampaignExecutor):
    """Long-lived forked workers and a watchdog on a private lease board.

    The policy is the spec's: ``jobs`` concurrent workers, a
    ``cell_timeout_s`` watchdog, ``max_attempts`` per cell with
    :meth:`~repro.exec.spec.ExecutorSpec.backoff_delay` between them,
    and ``allow_partial`` for ``None`` slots instead of raising.
    """

    def __init__(self, spec: ExecutorSpec):
        self.spec = spec

    @property
    def allow_partial(self) -> bool:
        return self.spec.allow_partial

    def execute(
        self,
        scenarios: Sequence,
        hooks: Optional[ExecutionHooks] = None,
    ) -> Tuple[List[Optional[Any]], List[CellFailure]]:
        import multiprocessing as mp
        from multiprocessing.connection import wait as conn_wait

        from ..api.engine import import_engines

        spec = self.spec
        ctx = mp.get_context()
        scenarios = list(scenarios)
        # Workers are forked from this process: import the engine once
        # here, not once per worker.
        import_engines(sc.config for sc in scenarios)
        watchdog_s = (
            math.inf if spec.cell_timeout_s is None else spec.cell_timeout_s
        )
        slots = min(spec.jobs, len(scenarios))
        board = LeaseBoard(lease_timeout_s=math.inf)
        workers: Dict[int, Tuple[Any, Any]] = {}  # slot -> (process, pipe end)
        running: Dict[Any, _Task] = {}  # pipe end -> the task it runs

        def fork(slot: int):
            conn, child_conn = ctx.Pipe()
            inherited = [end for _, end in workers.values()] + [conn]
            proc = ctx.Process(
                target=_worker_loop, args=(child_conn, inherited), daemon=True
            )
            proc.start()
            child_conn.close()
            workers[slot] = (proc, conn)
            return conn

        def retire(slot: int) -> Optional[int]:
            """Kill and reap a slot's worker; returns its exit code."""
            proc, conn = workers.pop(slot)
            proc.kill()
            proc.join()
            conn.close()
            return proc.exitcode

        def fail(task: _Task, kind: str, error: str) -> None:
            board.fail(
                task.lease_id, error, kind,
                retry_after=spec.backoff_delay(task.index, task.attempt),
            )

        def pump() -> None:
            """Hand leases to idle slots, wait on the workers, report outcomes."""
            busy = {task.slot for task in running.values()}
            for slot in range(slots):
                if slot in busy:
                    continue
                lease = board.lease(f"local-{slot}")
                if lease is None:
                    break
                task = _Task(
                    lease["lease_id"], lease["cell"], lease["attempt"], slot,
                    time.monotonic() + watchdog_s,
                )
                conn = workers[slot][1] if slot in workers else fork(slot)
                try:
                    conn.send((scenarios[task.index], task.attempt))
                except OSError:
                    pass  # the worker died idle: its EOF is read below
                running[conn] = task
            now = time.monotonic()
            timeout = max(0.0, min(
                [_PUMP_WAIT_S] + [t.deadline - now for t in running.values()]
            ))
            if running:
                fired = conn_wait(list(running), timeout=timeout)
            else:
                fired = []
                time.sleep(timeout)  # only backing-off cells remain
            for conn in fired:
                task = running.pop(conn)
                try:
                    message = conn.recv()
                except (EOFError, OSError):
                    message = None
                if message is None:
                    exitcode = retire(task.slot)
                    fail(
                        task, "crash",
                        f"worker process died without a result on attempt "
                        f"{task.attempt} (exit code {exitcode}) "
                        f"— crash, OOM kill, or SIGKILL",
                    )
                elif message[0] == "ok":
                    board.complete(task.lease_id, message[1])
                else:
                    fail(task, "error", message[1])
            # Watchdog: kill any worker past its attempt's deadline.
            now = time.monotonic()
            for conn, task in list(running.items()):
                if now >= task.deadline:
                    del running[conn]
                    retire(task.slot)
                    fail(
                        task, "timeout",
                        f"cell exceeded the wall-clock watchdog "
                        f"({spec.cell_timeout_s:g}s) on attempt "
                        f"{task.attempt} and was killed",
                    )

        try:
            return settle(
                board, scenarios, range(len(scenarios)),
                hooks or ExecutionHooks(), spec.max_attempts, pump,
            )
        finally:
            for slot in list(workers):
                retire(slot)
