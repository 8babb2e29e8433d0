"""``repro.api`` — the one way to define and execute experiments.

The layer every entry point (CLI, tests, examples, notebooks) builds
on:

* :class:`Scenario` — fluent builder for one fully specified run
  (config + run options + tags);
* :class:`Campaign` — a scenario grid (protocol × load × seed × any
  config field) executed under any :class:`ExecutorSpec` (serial,
  ``"pool:4"``, supervised, distributed), bit-identical at any
  parallelism;
* :class:`ResultStore` — JSONL/CSV persistence of :class:`RunResult`
  rows, so figures re-render without re-simulating;
* :func:`experiment` / :func:`get_experiment` / :func:`list_experiments`
  — the pluggable registry the figures, tables, and extension studies
  publish themselves through;
* :func:`simulate` — the single engine choke point (one config +
  options in, one :class:`RunResult` out).

Quickstart::

    from repro.api import Campaign, ResultStore, Scenario
    from repro.config import Protocol

    base = Scenario.from_preset("quick").with_runtime(horizon_s=60.0)
    camp = (Campaign(base, name="demo")
            .over(protocol=list(Protocol), load_pps=[5.0, 15.0, 25.0])
            .seeds([1, 2]))
    result = camp.run(executor="pool:4", store=ResultStore("runs.jsonl"))
    for scenario, run in result:
        print(scenario.describe(), run.delivery_rate)
"""

from .campaign import (
    Campaign,
    CampaignIncompleteError,
    CampaignResult,
    CellFailure,
    ExecutorSpec,
    active_executor,
    active_run_cache,
    run_scenarios,
    use_executor,
    use_run_cache,
)
from .engine import RunOptions, simulate
from .registry import (
    ExperimentSpec,
    experiment,
    get_experiment,
    list_experiments,
)
from .result import RunResult
from .scenario import Scenario
from .store import ResultStore

__all__ = [
    "Campaign",
    "CampaignIncompleteError",
    "CampaignResult",
    "CellFailure",
    "ExecutorSpec",
    "ExperimentSpec",
    "ResultStore",
    "RunOptions",
    "RunResult",
    "Scenario",
    "active_executor",
    "active_run_cache",
    "experiment",
    "get_experiment",
    "list_experiments",
    "run_scenarios",
    "simulate",
    "use_executor",
    "use_run_cache",
]
