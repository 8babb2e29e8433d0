"""The fault-tolerant executor: one worker process per cell attempt.

Moved from ``repro.api.campaign`` (PR 8) into the executor package:
every grid cell runs in its **own worker process** under a wall-clock
watchdog, which is what makes the recovery guarantees possible — a hung
cell can be SIGKILLed without collateral damage, and a crashed worker
takes down exactly one attempt.  Crashes (pipe EOF) and exceptions
(traceback carried) retry under capped exponential backoff with
deterministic jitter; a cell that exhausts its attempts is quarantined
with its traceback, never silently dropped.

Results are flushed to the store (and progress) strictly in grid order
as the completed prefix grows, so persisted output is byte-identical to
serial execution; the manifest records ``done`` only after the row is
flushed, keeping the ledger honest about what the store holds.
"""

from __future__ import annotations

import heapq
import os
import time
from collections import deque
from typing import Any, Dict, List, Optional, Sequence, Tuple

from .base import CampaignExecutor, CellFailure, ExecutionHooks
from .local import execute_scenario
from .spec import ExecutorSpec

__all__ = ["SupervisedExecutor"]


def _supervised_child(conn, scenario, attempt: int) -> None:
    """Body of one supervised worker process: run one cell, one attempt.

    Sends ``("ok", RunResult)`` or ``("error", traceback_text)`` back
    over ``conn``.  A hard death (crash injection, SIGKILL, OOM) sends
    nothing — the parent reads EOF and treats it as a crash.
    """
    try:
        consult_worker_faults(scenario, attempt)
        run = execute_scenario(scenario)
        conn.send(("ok", run))
    except BaseException:  # noqa: BLE001 - full isolation barrier
        import traceback

        try:
            conn.send(("error", traceback.format_exc()))
        except Exception:
            pass
    finally:
        try:
            conn.close()
        except Exception:
            pass


def consult_worker_faults(scenario, attempt: int) -> None:
    """Chaos hook: let an active fault plan crash/stall this worker.

    The key includes the cell's pairing key *and* the attempt number, so
    "crash on attempt 1, succeed on attempt 2" is a deterministic,
    replayable scenario (see :mod:`repro.service.faults`).  Shared by
    the supervised worker child and the distributed worker loop.
    """
    if not os.environ.get("REPRO_FAULTS"):
        return
    from ..service.faults import active_faults

    faults = active_faults()
    if faults is None:
        return
    from ..api.pairing import scenario_key

    key = "|".join(map(str, scenario_key(scenario))) + f"|attempt={attempt}"
    faults.worker_entry(key)


class SupervisedExecutor(CampaignExecutor):
    """Watchdog + retry + quarantine over process-per-cell workers.

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

        hooks = hooks or ExecutionHooks()
        spec = self.spec
        ctx = mp.get_context()
        scenarios = list(scenarios)
        # Every attempt forks a fresh child: import the engine once here,
        # not once per cell.
        import_engines(sc.config for sc in scenarios)
        total = len(scenarios)
        results: List[Optional[Any]] = [None] * total
        settled = [False] * total  # done or quarantined
        attempts = [0] * total
        failures: List[CellFailure] = []
        ready: deque = deque(range(total))
        delayed: List[Tuple[float, int]] = []  # (not_before, index) heap
        active: Dict[Any, Dict[str, Any]] = {}  # recv-conn -> task
        flushed = 0
        workers = spec.jobs

        def flush() -> None:
            """Advance the settled prefix: persist + report in grid order."""
            nonlocal flushed
            while flushed < total and settled[flushed]:
                hooks.flush_done(
                    flushed, total, scenarios[flushed], results[flushed]
                )
                flushed += 1

        def launch(index: int) -> None:
            attempts[index] += 1
            recv_conn, send_conn = ctx.Pipe(duplex=False)
            proc = ctx.Process(
                target=_supervised_child,
                args=(send_conn, scenarios[index], attempts[index]),
                daemon=True,
            )
            proc.start()
            send_conn.close()
            deadline = (
                time.monotonic() + spec.cell_timeout_s
                if spec.cell_timeout_s is not None
                else None
            )
            active[recv_conn] = {"index": index, "proc": proc,
                                 "deadline": deadline}

        def settle_ok(index: int, run: Any) -> None:
            results[index] = run
            settled[index] = True
            hooks.emit({
                "type": "cell",
                "index": index,
                "total": total,
                "source": "sim",
                "attempts": attempts[index],
                "scenario": scenarios[index].describe(),
            })
            flush()

        def settle_fail(index: int, error_text: str, kind: str) -> None:
            if attempts[index] < spec.max_attempts:
                delay = spec.backoff_delay(index, attempts[index])
                hooks.emit({
                    "type": "retry",
                    "index": index,
                    "total": total,
                    "attempt": attempts[index],
                    "max_attempts": spec.max_attempts,
                    "delay_s": delay,
                    "kind": kind,
                })
                heapq.heappush(delayed, (time.monotonic() + delay, index))
                return
            settled[index] = True
            failures.append(CellFailure(
                index=index,
                scenario=scenarios[index],
                attempts=attempts[index],
                error=error_text,
            ))
            hooks.record_quarantine(scenarios[index], error_text)
            hooks.emit({
                "type": "quarantine",
                "index": index,
                "total": total,
                "attempts": attempts[index],
                "error": error_text,
            })
            flush()

        while ready or delayed or active:
            now = time.monotonic()
            while delayed and delayed[0][0] <= now:
                _, index = heapq.heappop(delayed)
                ready.append(index)
            while ready and len(active) < workers:
                launch(ready.popleft())
            if not active:
                # Only backoff-delayed cells remain: sleep toward the next.
                if delayed:
                    time.sleep(
                        min(0.05, max(0.0, delayed[0][0] - time.monotonic()))
                    )
                continue

            waits = []
            deadlines = [
                task["deadline"] for task in active.values()
                if task["deadline"] is not None
            ]
            if deadlines:
                waits.append(min(deadlines) - now)
            if delayed:
                waits.append(delayed[0][0] - now)
            timeout = max(0.0, min(waits)) if waits else None
            fired = conn_wait(list(active), timeout=timeout)

            for conn in fired:
                task = active.pop(conn)
                index, proc = task["index"], task["proc"]
                message = None
                try:
                    message = conn.recv()
                except (EOFError, OSError):
                    message = None
                conn.close()
                proc.join()
                if message is not None and message[0] == "ok":
                    settle_ok(index, message[1])
                elif message is not None and message[0] == "error":
                    settle_fail(index, message[1], "error")
                else:
                    settle_fail(
                        index,
                        f"worker process died without a result on attempt "
                        f"{attempts[index]} (exit code {proc.exitcode}) — "
                        f"crash, OOM kill, or SIGKILL",
                        "crash",
                    )

            # Watchdog: kill anything past its wall-clock deadline.
            now = time.monotonic()
            for conn, task in list(active.items()):
                if task["deadline"] is not None and now >= task["deadline"]:
                    task["proc"].kill()
                    task["proc"].join()
                    active.pop(conn)
                    conn.close()
                    settle_fail(
                        task["index"],
                        f"cell exceeded the wall-clock watchdog "
                        f"({spec.cell_timeout_s:g}s) on attempt "
                        f"{attempts[task['index']]} and was killed",
                        "timeout",
                    )

        flush()
        return results, failures
