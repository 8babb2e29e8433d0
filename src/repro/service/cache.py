"""Content-addressed run cache: serve stored cells, simulate only misses.

A :class:`RunCache` sits between the Campaign executor and the engine.
Before anything is simulated it pairs the scenario grid against the
result database by config digest (:mod:`repro.api.pairing`), serves
every hit straight from the stored rows, simulates only the misses, and
writes the newly simulated rows back — so a repeated sweep is 100%
reads, and an enlarged sweep only pays for the new cells.

Because stored rows round-trip exactly (JSON payloads preserve every
float bit), a fully cached campaign returns results **byte-identical** to
a fresh run, in the same order — verified by the service test-suite and
the ``service-smoke`` CI job.

Activate per call (``Campaign.run(cache=...)``) or ambiently for a whole
code region (CLI ``--cache``, the campaign server's workers)::

    from repro.api import use_run_cache
    from repro.service import DbResultStore, RunCache

    cache = RunCache(DbResultStore("results.sqlite"))
    with use_run_cache(cache):
        figure = fig8_remaining_energy(preset="quick")
    print(cache.stats.describe())

:func:`replay` is the same cache over an executor that never simulates:
it renders from stored rows alone (CLI ``--from``, the server's
``?rerender=1``) and names every cell the store lacks.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass, replace
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from ..api import campaign as _campaign
from ..api.pairing import describe_key, pair_stored_runs, scenario_key
from ..api.result import RunResult
from ..errors import ExperimentError
from ..exec.base import CampaignExecutor, CampaignIncompleteError

__all__ = ["CacheStats", "RunCache", "replay"]


@dataclass
class CacheStats:
    """What the cache did across one or more executions."""

    #: Cells served from the database (simulations avoided).
    hits: int = 0
    #: Cells that had to be simulated (and were then stored).
    misses: int = 0
    #: Stored payload bytes served instead of being recomputed.
    bytes_saved: int = 0

    @property
    def total(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.total if self.total else 0.0

    def as_dict(self) -> Dict[str, Any]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "total": self.total,
            "hit_rate": self.hit_rate,
            "bytes_saved": self.bytes_saved,
        }

    def describe(self) -> str:
        return (
            f"cache: {self.hits}/{self.total} cells served from store "
            f"({self.hit_rate:.0%}), {self.misses} simulated, "
            f"{self.bytes_saved} payload bytes saved"
        )


class RunCache:
    """Digest-keyed read-through cache over a result store.

    ``store`` is a :class:`~repro.service.DbResultStore` (an indexed
    read) or a JSONL :class:`~repro.api.ResultStore` (one scan): anything
    with ``append`` and ``rows_for_digests``.  ``on_event`` receives
    progress dicts (the campaign server streams them as NDJSON): a
    ``plan`` event up front, then one ``cell`` event per grid cell with
    its source.
    """

    def __init__(
        self,
        store,
        on_event: Optional[Callable[[Dict[str, Any]], None]] = None,
    ):
        self.store = store
        self.stats = CacheStats()
        self.on_event = on_event
        #: ``(scenarios, experiment)`` of every grid :meth:`execute` was
        #: given, in call order (what :meth:`stored_runs` pairs again).
        self.grids: List[Tuple[List, Optional[str]]] = []

    def _emit(self, event: Dict[str, Any]) -> None:
        if self.on_event is not None:
            self.on_event(event)

    def execute(
        self,
        scenarios: Sequence,
        store=None,
        experiment: Optional[str] = None,
        on_cell_event=None,
        executor=None,
    ) -> List[RunResult]:
        """The cache-aware executor body behind :func:`run_scenarios`.

        Returns results index-aligned with ``scenarios`` — exactly what
        plain execution would return, with hits read instead of computed.
        Misses are appended to the cache's own database as they finish
        (an interrupted campaign keeps its completed cells, and a re-run
        serves them as hits); ``store`` (the caller's own store, if any)
        still receives *every* result in grid order.

        ``executor`` (anything :func:`repro.api.campaign.resolve_executor`
        accepts; ``None`` consults the ambient :func:`~repro.api.use_executor`,
        else serial) names the backend the misses run under — the cache
        itself is backend-agnostic.  A :class:`CampaignIncompleteError`
        from the misses is re-raised in grid coordinates: cell indices,
        the grid total, and ``results`` with the hits in their slots.
        """
        scenarios = list(scenarios)
        executor = _campaign.resolve_executor(executor)
        self.grids.append((scenarios, experiment))
        paired, sizes = self._pair(scenarios, experiment)

        total = len(scenarios)
        miss_indices = [i for i, run in enumerate(paired) if run is None]
        hits = total - len(miss_indices)
        self.stats.hits += hits
        self.stats.misses += len(miss_indices)
        for run in paired:
            if run is not None:
                self.stats.bytes_saved += sizes.get(id(run), 0)
        self._emit(
            {
                "type": "plan",
                "total": total,
                "cached": hits,
                "to_simulate": len(miss_indices),
            }
        )
        for i, run in enumerate(paired):
            if run is not None:
                self._emit(self._cell_event(i, total, scenarios[i], "cache"))

        if miss_indices:
            # Whatever executor runs the misses emits the per-cell events
            # itself (with attempt counts and retry/quarantine detail);
            # translate its sub-grid indices back to grid coordinates and
            # forward.
            def translate(event):
                event = dict(event)
                if "index" in event:
                    event["index"] = miss_indices[event["index"]]
                event["total"] = total
                if event.get("type") == "cell":
                    event.setdefault("source", "sim")
                self._emit(event)
                if on_cell_event is not None:
                    on_cell_event(event)

            try:
                simulated = _campaign.run_scenarios(
                    [scenarios[i] for i in miss_indices],
                    store=self.store,
                    experiment=experiment,
                    cache=_campaign.NO_CACHE,
                    on_cell_event=translate,
                    executor=executor,
                )
            except CampaignIncompleteError as exc:
                for index, run in zip(miss_indices, exc.results):
                    paired[index] = run
                failures = [
                    replace(f, index=miss_indices[f.index])
                    for f in exc.failures
                ]
                raise CampaignIncompleteError(failures, paired, total) from None
            for index, run in zip(miss_indices, simulated):
                paired[index] = run

        results: List[RunResult] = paired  # type: ignore[assignment]
        if store is not None:
            for run in results:
                if run is not None:
                    store.append(run)
        return results

    def _pair(self, scenarios, experiment):
        """``scenarios`` paired with the store's rows (``None`` where it
        has none), and each candidate row's payload size by ``id``."""
        candidates = self.store.rows_for_digests(
            {scenario_key(sc)[4] for sc in scenarios}
        )
        paired, _missing = pair_stored_runs(
            scenarios, [run for run, _ in candidates], experiment
        )
        return paired, {id(run): nbytes for run, nbytes in candidates}

    def stored_runs(self) -> List[RunResult]:
        """The stored row of each cell of every grid this cache executed,
        paired as :meth:`execute` pairs; cells with no row yet are left
        out, so an unfinished campaign reports the rows it has."""
        return [
            run
            for scenarios, experiment in list(self.grids)
            for run in self._pair(scenarios, experiment)[0]
            if run is not None
        ]

    @staticmethod
    def _cell_event(index: int, total: int, scenario, source: str) -> Dict[str, Any]:
        return {
            "type": "cell",
            "index": index,
            "total": total,
            "source": source,
            "scenario": scenario.describe(),
        }


class _Unsimulated(CampaignExecutor):
    """The executor :func:`replay` installs: every cell that reaches it
    is one the store could not pair, so it refuses them all at once."""

    def execute(self, scenarios, hooks):
        cells = "\n".join(
            f"  - {describe_key(scenario_key(sc))}" for sc in scenarios
        )
        raise ExperimentError(
            f"stored runs lack {len(scenarios)} grid cell(s) for "
            f"experiment={hooks.experiment}; missing:\n{cells}\n"
            f"(runs from other experiments, other configurations, or "
            f"pre-digest stores are not admitted — run the same line with "
            f"--cache PATH instead of --from to simulate only the missing "
            f"cells into the store)"
        )


@contextlib.contextmanager
def replay(store):
    """Render from ``store`` alone: nothing is simulated or written.

    Every :func:`~repro.api.run_scenarios` call in this context is served
    by a :class:`RunCache` over ``store``; a cell the store cannot pair
    raises :class:`~repro.errors.ExperimentError` listing every missing
    cell of the grid, instead of being simulated.
    """
    with _campaign.use_run_cache(RunCache(store)):
        with _campaign.use_executor(_Unsimulated()):
            yield
