"""In-process executors: serial and process-pool, plus the cell bodies.

Both flush each result through :meth:`ExecutionHooks.flush_done` and
emit its ``cell`` event as ordered results arrive; both collect results
in input order and let cell exceptions propagate (fault tolerance is
the supervised/distributed executors' job).

:func:`run_attempt` is the one body of a fault-tolerant attempt: the
supervised executor's child process and the distributed worker loop
both run a cell through it.
"""

from __future__ import annotations

import os
from typing import Any, List, Optional, Sequence, Tuple

from .base import CampaignExecutor, CellFailure, ExecutionHooks

__all__ = ["SerialExecutor", "PoolExecutor", "execute_scenario", "run_attempt"]


def execute_scenario(scenario):
    """Top-level (picklable) worker body: run one scenario."""
    return scenario.run()


def run_attempt(scenario, attempt: int) -> Tuple[str, Any]:
    """One attempt at a cell: ``("ok", RunResult)`` or ``("error", traceback)``.

    Runs the chaos hook, then the simulation.  A hard death (crash
    injection, SIGKILL, OOM) returns nothing; pipe EOF or lease expiry
    tells the caller instead.
    """
    try:
        consult_worker_faults(scenario, attempt)
        return "ok", execute_scenario(scenario)
    except Exception:  # noqa: BLE001 - a cell failure is reported, not raised
        import traceback

        return "error", traceback.format_exc()


def consult_worker_faults(scenario, attempt: int) -> None:
    """Chaos hook: let an active fault plan crash/stall this worker.

    The key includes the cell's pairing key *and* the attempt number, so
    "crash on attempt 1, succeed on attempt 2" is a deterministic,
    replayable scenario (see :mod:`repro.service.faults`).
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


class SerialExecutor(CampaignExecutor):
    """One cell at a time, in-process — always safe, always available."""

    kind = "serial"

    def execute(
        self,
        scenarios: Sequence,
        hooks: Optional[ExecutionHooks] = None,
    ) -> Tuple[List, List[CellFailure]]:
        hooks = hooks or ExecutionHooks()
        total = len(scenarios)
        results = []
        for i, sc in enumerate(scenarios):
            run = execute_scenario(sc)
            hooks.flush_done(run)
            results.append(run)
            hooks.emit({
                "type": "cell",
                "index": i,
                "total": total,
                "source": "sim",
                "scenario": sc.describe(),
            })
        return results, []


class PoolExecutor(CampaignExecutor):
    """Process-pool fan-out: ``jobs`` workers, results in input order.

    ``map(chunksize=1)`` keeps the work queue balanced when run lengths
    vary wildly (lifetime runs); because every scenario is fully
    deterministic, the collected results are bit-identical to serial
    execution.
    """

    kind = "pool"

    def __init__(self, jobs: int = 2):
        self.jobs = max(1, jobs)

    def execute(
        self,
        scenarios: Sequence,
        hooks: Optional[ExecutionHooks] = None,
    ) -> Tuple[List, List[CellFailure]]:
        hooks = hooks or ExecutionHooks()
        if self.jobs <= 1 or len(scenarios) <= 1:
            return SerialExecutor().execute(scenarios, hooks)
        from concurrent.futures import ProcessPoolExecutor

        from ..api.engine import import_engines

        # Forked workers inherit the engine instead of each importing it.
        import_engines(sc.config for sc in scenarios)
        total = len(scenarios)
        results = []
        workers = min(self.jobs, total)
        with ProcessPoolExecutor(max_workers=workers) as pool:
            # map() preserves input order; chunksize=1 keeps the work
            # queue balanced when run lengths vary wildly.
            for i, run in enumerate(
                pool.map(execute_scenario, scenarios, chunksize=1)
            ):
                hooks.flush_done(run)
                results.append(run)
                hooks.emit({
                    "type": "cell",
                    "index": i,
                    "total": total,
                    "source": "sim",
                    "scenario": scenarios[i].describe(),
                })
        return results, []
