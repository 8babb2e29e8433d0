"""Campaigns: expand a scenario grid and execute it at any parallelism.

A :class:`Campaign` turns one template :class:`~repro.api.Scenario` plus a
set of axes (protocol × load × seed × any config field) into an ordered
work list, and runs it through a pluggable executor — anything an
:class:`~repro.exec.ExecutorSpec` can name: in-process serial, the
local worker pool (``pool``, or ``supervised`` with retries and a
watchdog), or the multi-host distributed backend.

Because every work item is fully specified by its frozen scenario (all
randomness derives from ``config.seed``), the results are **bit-identical
at any parallelism**: ``executor="pool:4"`` returns exactly what serial
returns, in the same order, only faster — and the distributed executor
returns the same bytes again, whatever set of workers ran the cells.

>>> from repro.api import Campaign, Scenario
>>> from repro.config import Protocol
>>> camp = (Campaign(Scenario.from_preset("smoke"))
...         .over(protocol=[Protocol.PURE_LEACH, Protocol.CAEM_ADAPTIVE],
...               load_pps=[5.0, 15.0])
...         .seeds([1, 2]))
>>> len(camp)
8
>>> result = camp.run(executor="pool:4")  # doctest: +SKIP

A policy reaches :func:`run_scenarios` as an explicit ``executor=``
argument, else the ambient :func:`use_executor`, else serial.  The
execution machinery itself lives in :mod:`repro.exec`.
"""

from __future__ import annotations

import contextlib
import contextvars
import dataclasses
import itertools
from dataclasses import dataclass, field as dc_field
from typing import (
    Any,
    Callable,
    Dict,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
)

from ..config import NetworkConfig, Protocol
from ..errors import ExperimentError
from ..exec.base import (
    CampaignExecutor,
    CampaignIncompleteError,
    CellFailure,
    ExecutionHooks,
    get_executor,
)
from ..exec.spec import ExecutorSpec, active_executor, use_executor
from .result import RunResult
from .scenario import Scenario, _SECTIONS

__all__ = [
    "Campaign",
    "CampaignResult",
    "CampaignIncompleteError",
    "CellFailure",
    "ExecutorSpec",
    "run_scenarios",
    "use_run_cache",
    "active_run_cache",
    "use_executor",
    "active_executor",
    "NO_CACHE",
]

_TOP_FIELDS = {f.name for f in dataclasses.fields(NetworkConfig)}

#: Sentinel for ``run_scenarios(cache=NO_CACHE)``: force plain execution
#: even when a cache is active in the calling context (the cache itself
#: uses this to simulate its misses without recursing).
NO_CACHE = object()

#: The ambient run cache (see :func:`use_run_cache`).  A ContextVar so
#: the campaign server's worker threads can each activate their own cache
#: without interfering.
_ACTIVE_CACHE: contextvars.ContextVar = contextvars.ContextVar(
    "repro_run_cache", default=None
)


@contextlib.contextmanager
def use_run_cache(cache):
    """Route every :func:`run_scenarios` call in this context through
    ``cache`` (a :class:`repro.service.RunCache`): cells whose config
    digest already has a stored row are served from the result database,
    only the misses are simulated.  The CLI's ``--cache`` flag and the
    campaign server both wrap execution in this.
    """
    token = _ACTIVE_CACHE.set(cache)
    try:
        yield cache
    finally:
        _ACTIVE_CACHE.reset(token)


def active_run_cache():
    """The cache installed by :func:`use_run_cache`, or ``None``."""
    return _ACTIVE_CACHE.get()


def resolve_executor(executor=None):
    """Pick the executor one :func:`run_scenarios` call should use.

    An explicit ``executor`` (spec, compact string, JSON dict, or live
    :class:`CampaignExecutor`), else the ambient :func:`use_executor`,
    else serial.  Returns a spec or a live executor — callers instantiate
    specs via :func:`~repro.exec.base.get_executor` and own the
    resulting instance's lifetime.
    """
    if executor is None:
        executor = active_executor()
    if executor is None:
        return ExecutorSpec()
    if isinstance(executor, CampaignExecutor):
        return executor
    return ExecutorSpec.normalize(executor)


def _executor_instance(resolved) -> Tuple[CampaignExecutor, bool]:
    """A live executor for a :func:`resolve_executor` result, plus
    whether this call owns (and must close) it."""
    if isinstance(resolved, CampaignExecutor):
        return resolved, False
    return get_executor(resolved), True


def run_scenarios(
    scenarios: Sequence[Scenario],
    store=None,
    experiment: Optional[str] = None,
    cache=None,
    on_cell_event: Optional[Callable[[Dict[str, Any]], None]] = None,
    executor=None,
) -> List[RunResult]:
    """Execute ``scenarios`` and return their results **in input order**.

    ``executor`` names the execution backend — an
    :class:`~repro.exec.ExecutorSpec`, its compact string form
    (``"pool:4"``, ``"supervised:timeout=30"``,
    ``"distributed:local=2"``), or a live
    :class:`~repro.exec.CampaignExecutor`.  When omitted, the ambient
    :func:`use_executor` context picks it, else the grid runs serially
    in-process (see :func:`resolve_executor`).  Whatever the backend,
    the returned list lines up index-for-index with the input, and each
    result is bit-identical across backends (determinism is
    per-scenario, not per-schedule).

    ``store`` — any object with an ``append(RunResult)`` method, e.g. a
    :class:`~repro.api.store.ResultStore` — receives every result as it
    is collected (in grid order), so an interrupted campaign keeps the
    runs that finished.  ``experiment`` stamps every result's
    :attr:`RunResult.experiment` *before* it reaches the store, so
    persisted rows carry their provenance.  ``cache`` overrides the
    ambient run cache: ``None`` consults :func:`active_run_cache`,
    :data:`NO_CACHE` forces plain execution, anything else is used as
    the cache for this call.

    ``on_cell_event`` receives cell/retry/quarantine event dicts.  A
    fault-tolerant backend that quarantines cells raises
    :class:`CampaignIncompleteError` (unless its policy says
    ``allow_partial``); completed cells are already persisted by then,
    so a re-run with the same cache only simulates the quarantined
    remainder.
    """
    scenarios = list(scenarios)
    if cache is None:
        cache = active_run_cache()
    resolved = resolve_executor(executor)
    if cache is not None and cache is not NO_CACHE:
        return cache.execute(
            scenarios, store=store, experiment=experiment,
            on_cell_event=on_cell_event, executor=resolved,
        )
    instance, owned = _executor_instance(resolved)
    hooks = ExecutionHooks(
        store=store, experiment=experiment, on_cell_event=on_cell_event
    )
    try:
        results, failures = instance.execute(scenarios, hooks)
    finally:
        if owned:
            instance.close()
    if failures and not instance.allow_partial:
        raise CampaignIncompleteError(failures, results, len(scenarios))
    return results  # type: ignore[return-value]


@dataclass
class CampaignResult:
    """An executed campaign: scenarios and their results, index-aligned."""

    scenarios: List[Scenario] = dc_field(default_factory=list)
    runs: List[RunResult] = dc_field(default_factory=list)

    def __len__(self) -> int:
        return len(self.runs)

    def __iter__(self) -> Iterator[Tuple[Scenario, RunResult]]:
        return iter(zip(self.scenarios, self.runs))

    def select(self, **tags: Any) -> List[RunResult]:
        """Results whose scenario tags match every given key=value."""
        return [
            run
            for sc, run in zip(self.scenarios, self.runs)
            if all(sc.tags.get(k) == v for k, v in tags.items())
        ]

    def column(self, metric: Callable[[RunResult], Any]) -> List[Any]:
        """Apply ``metric`` to every run, in campaign order."""
        return [metric(run) for run in self.runs]


class Campaign:
    """A scenario grid builder plus its executor front-end.

    Axes added via :meth:`over` multiply: each call refines the grid by
    taking the cross product with the new axis.  Axis names resolve, in
    order, to the builder knobs ``protocol`` / ``load_pps`` / ``seed``, to
    any top-level :class:`NetworkConfig` field, or to a dotted config path
    like ``"mac.max_retries"`` / ``"traffic.buffer_packets"``.
    """

    def __init__(self, base: Optional[Scenario] = None, name: str = "campaign"):
        self.base = base or Scenario()
        self.name = name
        self._axes: List[Tuple[str, List[Any]]] = []
        self._extra: List[Scenario] = []

    # -- grid construction -----------------------------------------------------

    def over(self, **axes: Sequence[Any]) -> "Campaign":
        """Add grid axes; values of each axis must be a non-empty sequence."""
        for name, values in axes.items():
            values = list(values)
            if not values:
                raise ExperimentError(f"axis {name!r} needs at least one value")
            self._apply(self.base, name, values[0])  # fail fast on bad names
            self._axes.append((name, values))
        return self

    def seeds(self, seeds: Sequence[int]) -> "Campaign":
        """Replicate the whole grid over these master seeds."""
        return self.over(seed=list(seeds))

    def add(self, scenario: Scenario) -> "Campaign":
        """Append one off-grid scenario to the work list."""
        self._extra.append(scenario)
        return self

    @staticmethod
    def _apply(scenario: Scenario, name: str, value: Any) -> Scenario:
        """Apply one axis setting to a scenario."""
        if name == "protocol":
            return scenario.with_protocol(Protocol(value) if isinstance(value, str) else value)
        if name == "load_pps":
            return scenario.with_load(float(value))
        if name == "seed":
            return scenario.with_seed(int(value))
        if name in _TOP_FIELDS:
            return scenario.with_(**{name: value})
        if "." in name:
            section, _, fld = name.partition(".")
            if section in _SECTIONS:
                return scenario.with_sub(section, **{fld: value})
        raise ExperimentError(
            f"unknown campaign axis {name!r}: expected protocol/load_pps/seed, "
            f"a NetworkConfig field, or a dotted path like 'mac.max_retries'"
        )

    def scenarios(self) -> List[Scenario]:
        """Expand the grid into the ordered, tagged work list."""
        if not self._axes:
            grid = [self.base]
        else:
            names = [n for n, _ in self._axes]
            grid = []
            for combo in itertools.product(*(vals for _, vals in self._axes)):
                sc = self.base
                for name, value in zip(names, combo):
                    sc = self._apply(sc, name, value)
                grid.append(sc.tagged(campaign=self.name,
                                      **dict(zip(names, combo))))
        return grid + list(self._extra)

    def __len__(self) -> int:
        n = 1
        for _, vals in self._axes:
            n *= len(vals)
        return (n if self._axes else 1) + len(self._extra)

    # -- execution -------------------------------------------------------------

    def run(
        self,
        store=None,
        cache=None,
        executor=None,
    ) -> CampaignResult:
        """Execute the whole grid and return the index-aligned results.

        ``executor`` — an :class:`~repro.exec.ExecutorSpec`, its compact
        string form, or a live executor — names the backend; without it
        the ambient :func:`use_executor` policy applies, else serial.
        ``cache`` — a :class:`repro.service.RunCache` — serves
        already-stored cells from its result database and simulates only
        the rest (results are identical either way; see the cache's
        ``stats``).
        """
        scenarios = self.scenarios()
        if not scenarios:
            raise ExperimentError("campaign has no scenarios")
        runs = run_scenarios(scenarios, store=store, cache=cache, executor=executor)
        return CampaignResult(scenarios=scenarios, runs=runs)
