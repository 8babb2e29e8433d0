"""In-process executors: serial and process-pool.

Extracted verbatim from the original ``run_scenarios`` body so the two
oldest execution paths keep their exact observable behaviour — the
serial path reports progress *before* each cell runs (so a progress bar
shows the cell in flight), the pool path reports as ordered results
arrive; both collect results in input order and let cell exceptions
propagate (fault tolerance is the supervised/distributed executors'
job).
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from typing import List, Optional, Sequence, Tuple

from .base import CampaignExecutor, CellFailure, ExecutionHooks

__all__ = ["SerialExecutor", "PoolExecutor", "execute_scenario"]


def execute_scenario(scenario):
    """Top-level (picklable) worker body: run one scenario."""
    return scenario.run()


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
            if hooks.progress is not None:
                hooks.progress(i, total, sc)
            run = execute_scenario(sc)
            if hooks.experiment is not None:
                run.experiment = hooks.experiment
            results.append(run)
            if hooks.store is not None:
                hooks.store.append(run)
            if hooks.manifest is not None:
                hooks.manifest.record_done(hooks.manifest_key(sc))
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
                if hooks.progress is not None:
                    hooks.progress(i, total, scenarios[i])
                if hooks.experiment is not None:
                    run.experiment = hooks.experiment
                results.append(run)
                if hooks.store is not None:
                    hooks.store.append(run)
                if hooks.manifest is not None:
                    hooks.manifest.record_done(hooks.manifest_key(scenarios[i]))
                hooks.emit({
                    "type": "cell",
                    "index": i,
                    "total": total,
                    "source": "sim",
                    "scenario": scenarios[i].describe(),
                })
        return results, []
