"""Campaign execution backends behind one :class:`ExecutorSpec` API.

Everything that decides *how* a scenario grid runs lives here:

* :mod:`~repro.exec.spec` — :class:`ExecutorSpec`, the one declarative
  value that names an execution policy, plus the ambient
  :func:`use_executor` context;
* :mod:`~repro.exec.base` — the :class:`CampaignExecutor` contract,
  :class:`ExecutionHooks` (store and event surface), and
  the failure vocabulary (:class:`CellFailure`,
  :class:`CampaignIncompleteError`);
* :mod:`~repro.exec.local` — :class:`SerialExecutor` (in-process),
  and ``run_attempt``, the one body of a cell attempt in a worker;
* :mod:`~repro.exec.board` — :class:`LeaseBoard`, the one
  retry/quarantine state machine, and ``settle``, the one loop that
  turns a board into results, events and grid-ordered store writes;
* :mod:`~repro.exec.supervised` — :class:`SupervisedExecutor`, the one
  local worker pool: forked workers kept for the whole grid, under a
  watchdog on a private board (``pool`` is it with no retries);
* :mod:`~repro.exec.coordinator` / :mod:`~repro.exec.worker` /
  :mod:`~repro.exec.distributed` — the multi-host work-stealing
  backend, serving its board over HTTP.

``repro.api`` re-exports :class:`ExecutorSpec`, :func:`use_executor`
and the failure vocabulary for campaign authors.
"""

from .base import (
    CampaignExecutor,
    CampaignIncompleteError,
    CellFailure,
    ExecutionHooks,
    get_executor,
)
from .board import LeaseBoard
from .local import SerialExecutor
from .spec import EXECUTOR_KINDS, ExecutorSpec, active_executor, use_executor
from .supervised import SupervisedExecutor

__all__ = [
    "CampaignExecutor",
    "CampaignIncompleteError",
    "CellFailure",
    "ExecutionHooks",
    "ExecutorSpec",
    "EXECUTOR_KINDS",
    "LeaseBoard",
    "SerialExecutor",
    "SupervisedExecutor",
    "active_executor",
    "get_executor",
    "use_executor",
]
