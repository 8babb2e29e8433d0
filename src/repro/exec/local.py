"""The in-process executor, plus the body of a worker's cell attempt.

:class:`SerialExecutor` flushes each result through
:meth:`ExecutionHooks.flush_done` and emits its ``cell`` event as it
goes, and lets a cell's exception propagate (fault tolerance is the
worker pool's job).

:func:`run_attempt` is the one body of a cell attempt in a worker: the
supervised pool's forked workers (``pool`` and ``supervised``) and the
distributed worker loop all run a cell through it.
"""

from __future__ import annotations

import os
from typing import Any, List, Optional, Sequence, Tuple

from .base import CampaignExecutor, CellFailure, ExecutionHooks

__all__ = ["SerialExecutor", "run_attempt"]


def run_attempt(scenario, attempt: int) -> Tuple[str, Any]:
    """One attempt at a cell: ``("ok", RunResult)`` or ``("error", traceback)``.

    Runs the chaos hook, then the simulation.  A hard death (crash
    injection, SIGKILL, OOM) returns nothing; pipe EOF or lease expiry
    tells the caller instead.
    """
    try:
        consult_worker_faults(scenario, attempt)
        return "ok", scenario.run()
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

    def execute(
        self,
        scenarios: Sequence,
        hooks: Optional[ExecutionHooks] = None,
    ) -> Tuple[List, List[CellFailure]]:
        hooks = hooks or ExecutionHooks()
        total = len(scenarios)
        results = []
        for i, sc in enumerate(scenarios):
            run = sc.run()
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
