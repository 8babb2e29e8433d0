"""The fault-tolerant executor: one worker process per cell attempt.

Every grid cell runs in its **own worker process** under a wall-clock
watchdog, which is what makes the recovery guarantees possible — a hung
cell can be SIGKILLed without collateral damage, and a crashed worker
takes down exactly one attempt.

Retry and quarantine are not decided here.  The cells sit on a private
:class:`~repro.exec.board.LeaseBoard`, the state machine distributed
runs use, and each attempt's outcome is reported to it: an exception
(traceback carried) is kind ``error``, pipe EOF is ``crash``, a
watchdog kill is ``timeout``, and a failed cell backs off for
:meth:`~repro.exec.spec.ExecutorSpec.backoff_delay` before its next
lease.  Its leases never expire: the watchdog is the failure detector.
The shared :func:`~repro.exec.board.settle` loop emits the events and
flushes results in grid order.  Whatever way ``execute`` exits, the
children still running are killed and reaped.
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


def _supervised_child(conn, scenario, attempt: int) -> None:
    """Body of one supervised worker process: run one cell, one attempt.

    Sends :func:`~repro.exec.local.run_attempt`'s outcome back over
    ``conn``.  A hard death (crash injection, SIGKILL, OOM) sends
    nothing — the parent reads EOF and treats it as a crash.
    """
    try:
        conn.send(run_attempt(scenario, attempt))
    finally:
        conn.close()


class _Child(NamedTuple):
    """One running attempt: its process and the lease it reports to."""

    proc: Any
    lease_id: str
    index: int
    attempt: int
    slot: int
    deadline: float


class SupervisedExecutor(CampaignExecutor):
    """Process-per-cell workers and a watchdog on a private lease board.

    The policy is the spec's: ``jobs`` concurrent workers, a
    ``cell_timeout_s`` watchdog, ``max_attempts`` per cell with
    :meth:`~repro.exec.spec.ExecutorSpec.backoff_delay` between them,
    and ``allow_partial`` for ``None`` slots instead of raising.
    """

    kind = "supervised"

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
        # Every attempt forks a fresh child: import the engine once here,
        # not once per cell.
        import_engines(sc.config for sc in scenarios)
        watchdog_s = (
            math.inf if spec.cell_timeout_s is None else spec.cell_timeout_s
        )
        board = LeaseBoard(lease_timeout_s=math.inf)
        active: Dict[Any, _Child] = {}  # recv-conn -> running attempt

        def stop(conn) -> None:
            child = active.pop(conn)
            child.proc.kill()
            child.proc.join()
            conn.close()

        def fail(child: _Child, kind: str, error: str) -> None:
            board.fail(
                child.lease_id, error, kind,
                retry_after=spec.backoff_delay(child.index, child.attempt),
            )

        def pump() -> None:
            """Fill free slots, wait on the children, report outcomes."""
            busy = {child.slot for child in active.values()}
            for slot in sorted(set(range(spec.jobs)) - busy):
                lease = board.lease(f"local-{slot}")
                if lease is None:
                    break
                index, attempt = lease["cell"], lease["attempt"]
                recv_conn, send_conn = ctx.Pipe(duplex=False)
                proc = ctx.Process(
                    target=_supervised_child,
                    args=(send_conn, scenarios[index], attempt),
                    daemon=True,
                )
                proc.start()
                send_conn.close()
                active[recv_conn] = _Child(
                    proc, lease["lease_id"], index, attempt, slot,
                    time.monotonic() + watchdog_s,
                )
            now = time.monotonic()
            timeout = max(0.0, min(
                [_PUMP_WAIT_S] + [c.deadline - now for c in active.values()]
            ))
            if active:
                fired = conn_wait(list(active), timeout=timeout)
            else:
                fired = []
                time.sleep(timeout)  # only backing-off cells remain
            for conn in fired:
                child = active.pop(conn)
                try:
                    message = conn.recv()
                except (EOFError, OSError):
                    message = None
                conn.close()
                child.proc.join()
                if message is None:
                    fail(
                        child, "crash",
                        f"worker process died without a result on attempt "
                        f"{child.attempt} (exit code {child.proc.exitcode}) "
                        f"— crash, OOM kill, or SIGKILL",
                    )
                elif message[0] == "ok":
                    board.complete(child.lease_id, message[1])
                else:
                    fail(child, "error", message[1])
            # Watchdog: kill anything past its wall-clock deadline.
            now = time.monotonic()
            for conn, child in list(active.items()):
                if now >= child.deadline:
                    stop(conn)
                    fail(
                        child, "timeout",
                        f"cell exceeded the wall-clock watchdog "
                        f"({spec.cell_timeout_s:g}s) on attempt "
                        f"{child.attempt} and was killed",
                    )

        try:
            return settle(
                board, scenarios, range(len(scenarios)),
                hooks or ExecutionHooks(), spec.max_attempts, pump,
            )
        finally:
            for conn in list(active):
                stop(conn)
