"""The executor contract: what every campaign execution backend implements.

A :class:`CampaignExecutor` takes an ordered scenario list and settles
every cell exactly once, honouring three invariants that the rest of the
stack (stores, the run cache, the campaign server) builds on:

* **input order** — the returned result list lines up index-for-index
  with the input scenarios, whatever order cells actually executed in;
* **settled-prefix flush** — store appends happen strictly in grid
  order as the completed prefix grows, so persisted output is
  byte-identical to a serial run even when execution is parallel,
  supervised, or distributed;
* **explicit failure** — a cell that cannot be completed surfaces as a
  :class:`CellFailure` (and ultimately a
  :class:`CampaignIncompleteError`), never as a silently missing row.

Backends: :class:`~repro.exec.local.SerialExecutor` (in-process),
:class:`~repro.exec.supervised.SupervisedExecutor` (a pool of forked
workers under a watchdog, with retry and quarantine; ``pool`` is it
with no retries), and
:class:`~repro.exec.distributed.DistributedExecutor` (multi-host
work-stealing over HTTP).  :func:`get_executor` maps an
:class:`~repro.exec.spec.ExecutorSpec` to the right one.  The two
parallel backends share one failure state machine
(:class:`~repro.exec.board.LeaseBoard`) and one settle loop
(:func:`~repro.exec.board.settle`), so their retry, quarantine and
flush behaviour, and the events they emit, are the same.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from ..errors import ExperimentError

__all__ = [
    "CampaignExecutor",
    "CellFailure",
    "CampaignIncompleteError",
    "ExecutionHooks",
    "get_executor",
]


@dataclass
class CellFailure:
    """One quarantined grid cell: where, how often, and why it failed."""

    index: int
    scenario: Any
    attempts: int
    error: str

    def describe(self) -> str:
        tail = self.error.strip().splitlines()
        reason = tail[-1] if tail else "unknown failure"
        return (
            f"cell {self.index} ({self.scenario.describe()}): quarantined "
            f"after {self.attempts} attempts — {reason}"
        )


class CampaignIncompleteError(ExperimentError):
    """A fault-tolerant campaign finished with quarantined cells.

    Raised instead of returning a silent partial result: every completed
    cell was already persisted to the attached store, so fixing the
    cause and re-running with the same cache re-simulates only the
    quarantined remainder.  ``failures`` lists the quarantined cells
    with their tracebacks; ``results`` is the index-aligned partial
    result list (``None`` in quarantined slots); ``total`` is the grid
    size.
    """

    def __init__(
        self,
        failures: List[CellFailure],
        results: List[Optional[Any]],
        total: int,
    ):
        self.failures = failures
        self.results = results
        self.total = total
        lines = [
            f"campaign incomplete: {len(failures)} of {total} cells "
            f"quarantined after exhausting retries"
        ]
        lines.extend(f"  {failure.describe()}" for failure in failures)
        lines.append(
            "  completed cells are persisted; re-run with the same cache "
            "to retry only the quarantined remainder"
        )
        super().__init__("\n".join(lines))

    @property
    def report(self) -> Dict[str, Any]:
        """The JSON-safe status report (a server job's ``report``)."""
        from ..api.pairing import describe_key, scenario_key

        return {
            "total": self.total,
            "done": sum(run is not None for run in self.results),
            "quarantined": len(self.failures),
            "incomplete": True,
            "quarantined_cells": [
                {
                    "cell": describe_key(scenario_key(failure.scenario)),
                    "attempts": failure.attempts,
                    "error": failure.error,
                }
                for failure in self.failures
            ],
        }


class ExecutionHooks:
    """The side-effect surface one :meth:`CampaignExecutor.execute` call
    flushes into: a store and an event sink.

    Bundling them keeps every executor's signature identical and gives
    the settled-prefix flush one home (:meth:`flush_done`).
    """

    def __init__(
        self,
        store=None,
        experiment: Optional[str] = None,
        on_cell_event: Optional[Callable[[Dict[str, Any]], None]] = None,
    ):
        self.store = store
        self.experiment = experiment
        self.on_cell_event = on_cell_event

    def emit(self, event: Dict[str, Any]) -> None:
        if self.on_cell_event is not None:
            self.on_cell_event(event)

    def flush_done(self, run) -> None:
        """One settled-prefix step for a completed cell, in grid order:
        stamp the experiment provenance, then append to the store."""
        if self.experiment is not None:
            run.experiment = self.experiment
        if self.store is not None:
            self.store.append(run)


class CampaignExecutor:
    """Protocol: execute a scenario grid, settle every cell exactly once.

    ``execute`` returns ``(results, failures)``: the index-aligned result
    list (``None`` in failed slots) and the quarantined cells.  The
    serial backend has no retry/quarantine notion: it lets a cell's
    exception propagate and always returns an empty failure list.
    ``close`` releases whatever the executor holds open (the distributed
    coordinator server and its spawned local workers); it must be
    idempotent.
    """

    @property
    def allow_partial(self) -> bool:
        """Whether quarantined cells return as ``None`` slots instead of
        raising :class:`CampaignIncompleteError` (fault-tolerant kinds
        override this from their policy)."""
        return False

    def execute(
        self,
        scenarios: Sequence,
        hooks: Optional[ExecutionHooks] = None,
    ) -> Tuple[List[Optional[Any]], List[CellFailure]]:
        raise NotImplementedError

    def close(self) -> None:  # pragma: no cover - default no-op
        pass


def get_executor(spec, board=None) -> CampaignExecutor:
    """Instantiate the executor backend an :class:`ExecutorSpec` names.

    ``spec`` is anything :meth:`ExecutorSpec.normalize` accepts — a
    spec, its compact string form, or a JSON dict.  ``board`` attaches a
    distributed executor to an existing
    :class:`~repro.exec.board.LeaseBoard` (the campaign server's) instead
    of self-hosting a coordinator.
    """
    from .spec import ExecutorSpec

    spec = ExecutorSpec.normalize(spec)
    kind = spec.kind
    if kind == "serial" or (kind == "pool" and spec.jobs == 1):
        from .local import SerialExecutor

        return SerialExecutor()
    if kind in ("pool", "supervised"):
        from .supervised import SupervisedExecutor

        return SupervisedExecutor(spec)
    if kind == "distributed":
        from .distributed import DistributedExecutor

        return DistributedExecutor(spec, board=board)
    raise ExperimentError(f"unknown executor kind {kind!r}")
