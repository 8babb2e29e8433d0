"""Campaign execution backends behind one :class:`ExecutorSpec` API.

Everything that decides *how* a scenario grid runs lives here:

* :mod:`~repro.exec.spec` — :class:`ExecutorSpec`, the one declarative
  value that names an execution policy, plus the ambient
  :func:`use_executor` context;
* :mod:`~repro.exec.base` — the :class:`CampaignExecutor` contract,
  :class:`ExecutionHooks` (store/manifest/progress/event surface), and
  the failure vocabulary (:class:`CellFailure`,
  :class:`CampaignIncompleteError`);
* :mod:`~repro.exec.local` — :class:`SerialExecutor` and
  :class:`PoolExecutor` (in-process / process pool);
* :mod:`~repro.exec.supervised` — :class:`SupervisedExecutor`, the
  process-per-cell watchdog/retry/quarantine executor;
* :mod:`~repro.exec.board` / :mod:`~repro.exec.coordinator` /
  :mod:`~repro.exec.worker` / :mod:`~repro.exec.distributed` — the
  multi-host work-stealing backend.

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
from .local import PoolExecutor, SerialExecutor
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
    "PoolExecutor",
    "SerialExecutor",
    "SupervisedExecutor",
    "active_executor",
    "get_executor",
    "use_executor",
]
