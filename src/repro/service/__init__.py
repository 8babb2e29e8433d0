"""``repro.service`` — simulation-as-a-service on top of :mod:`repro.api`.

Three layers, each usable on its own:

* **Result database** (:mod:`~repro.service.db`): the SQLite-backed
  :class:`DbResultStore` — same interface as the JSONL
  :class:`repro.api.ResultStore`, plus indexed reads, WAL concurrency
  and schema migrations.  :func:`open_store` picks the backend by file
  suffix, and ``repro-caem migrate`` copies rows between the two.
* **Run cache** (:mod:`~repro.service.cache`): :class:`RunCache` serves
  campaign cells whose config digest already has a stored row straight
  from the database and simulates only the misses — a repeated sweep is
  100% reads, byte-identical to a fresh run.  :class:`CacheStats` counts
  what was saved, and :func:`replay` renders from stored rows alone.
* **Campaign server** (:mod:`~repro.service.jobs` /
  :mod:`~repro.service.http`): ``repro-caem serve`` — submit campaigns
  over JSON/HTTP into a background :class:`JobManager`, stream NDJSON
  progress, browse rows, and re-render figures from stored rows; and
  ``repro-caem query`` (:mod:`~repro.service.query`) for the same
  filtered reads and grouped reductions without a server.

Fault tolerance rides across all three: the run cache appends each
simulated cell to the database as it completes, so re-running an
interrupted sweep with the same cache serves the stored cells and
simulates only the rest; and the seeded **fault-injection harness**
(:mod:`~repro.service.faults`) drives the chaos tests — worker crashes,
hangs, torn writes, fsync failures — that prove it.
"""

from .._lazy import lazy_exports
from .cache import CacheStats, RunCache, replay
from .db import DB_SUFFIXES, DbResultStore, open_store
from .faults import FaultInjector, FaultPlan, InjectedFault, inject_faults
from .gc import collect_garbage, describe_gc
from .migrations import MIGRATIONS, SCHEMA_VERSION, ensure_schema, schema_version
from .query import Predicate, aggregate_runs, parse_predicate, query_runs

__all__ = [
    "CacheStats",
    "CampaignServer",
    "DB_SUFFIXES",
    "DbResultStore",
    "FaultInjector",
    "FaultPlan",
    "InjectedFault",
    "JobManager",
    "JobRecord",
    "MIGRATIONS",
    "Predicate",
    "RunCache",
    "SCHEMA_VERSION",
    "aggregate_runs",
    "build_server",
    "collect_garbage",
    "describe_gc",
    "ensure_schema",
    "inject_faults",
    "open_store",
    "parse_predicate",
    "query_runs",
    "replay",
    "schema_version",
]

#: Resolved on first access: the campaign server and its job queue load
#: the HTTP stack, which ``run``, ``query`` and ``gc`` never use.
__getattr__ = lazy_exports(
    __name__,
    {
        "CampaignServer": ".http",
        "build_server": ".http",
        "JobManager": ".jobs",
        "JobRecord": ".jobs",
    },
)
