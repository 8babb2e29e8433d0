"""The simulation engine: one fully specified run in, one record out.

:func:`simulate` is the single choke point every execution path funnels
through — :meth:`repro.api.Scenario.run` and every
:class:`repro.api.Campaign` executor (serial, pool, supervised,
distributed).  A run is fully specified by
``(NetworkConfig, RunOptions)``; all randomness derives from
``config.seed`` via the named-stream :class:`repro.rng.RngRegistry`, so
the same pair produces a bit-identical :class:`RunResult` in any process,
at any parallelism, in any execution order.

Each backend's engine module (:data:`_ENGINE_MODULES`) exposes one
``measure(cfg, opts, tracer)``.  It runs the scenario and returns what
it measured: the :class:`RunResult` fields it observed, by name, and a
:class:`~repro.api.result.RunTotals` of the sums the record does not
store.  :func:`derive` then computes every other field, once for both
engines.
"""

from __future__ import annotations

import importlib
import math
import time
from dataclasses import dataclass
from typing import Iterable, Optional

from ..config import NetworkConfig
from ..errors import ExperimentError
from ..metrics.collectors import validate_max_samples
from ..metrics.lifetime import death_spread_s, first_death_s, network_lifetime_s
from .result import RunResult, RunTotals

__all__ = ["RunOptions", "derive", "import_engines", "simulate"]

#: The module each concrete backend's engine lives in.
_ENGINE_MODULES = {"event": "repro.network", "vector": "repro.vector.engine"}


@dataclass(frozen=True)
class RunOptions:
    """How to observe a run (as opposed to *what* to run — the config).

    ``stop_when_dead`` ends the run early once the paper's dead-network
    rule triggers (saves wall time in lifetime sweeps).  ``collect_queues``
    stores per-node queue snapshots for the Fig. 12 fairness statistic.
    ``max_series_samples`` bounds every collected time series by halving
    decimation (scale tier: a 5000-node run's per-node queue snapshots
    would otherwise grow without bound); ``None`` keeps exact series.
    ``profile_rounds`` names a JSON path for the vector engine's
    per-round phase timeline (membership assignment, channel advance,
    MAC/uplink mirrors, energy settle — see :mod:`repro.vector.profile`);
    the event kernel has no phase structure and ignores it.  Purely
    observational: results are bit-identical with it on or off.
    """

    horizon_s: float = 60.0
    sample_interval_s: float = 5.0
    stop_when_dead: bool = False
    collect_queues: bool = False
    max_series_samples: Optional[int] = None
    profile_rounds: Optional[str] = None

    def __post_init__(self) -> None:
        # Finite too: an infinite horizon never returns, and NaN fails
        # every comparison, so it would pass "> 0" and run nothing.
        if not 0 < self.horizon_s < math.inf:
            raise ExperimentError("horizon must be finite and > 0")
        if not 0 < self.sample_interval_s < math.inf:
            raise ExperimentError("sample interval must be finite and > 0")
        validate_max_samples(self.max_series_samples)


def import_engines(configs: Iterable[NetworkConfig]) -> None:
    """Import the engine of every backend ``configs`` resolve to.

    :func:`simulate` imports its engine on first use, so a process that
    never simulates never loads one.  The forking executors call this in
    the parent before they fork, so that each child inherits the loaded
    engine instead of importing it again for every cell.
    """
    from ..vector.support import resolve_backend

    for cfg in configs:
        importlib.import_module(_ENGINE_MODULES[resolve_backend(cfg)])


def simulate(
    cfg: NetworkConfig,
    options: Optional[RunOptions] = None,
    tracer=None,
) -> RunResult:
    """Simulate one scenario and return its :class:`RunResult`.

    Run the engine the config resolves to, then :func:`derive` every
    field the engine did not measure itself.
    """
    opts = options or RunOptions()
    if cfg.scale.backend == "auto":
        # Resolve to the concrete engine before anything else: the same
        # pure function to_dict()/digest() use, so the substituted
        # config digests identically and stored rows pair either way.
        from ..vector.support import resolve_backend

        cfg = cfg.with_scale(backend=resolve_backend(cfg))
    # Before the clock starts: wall_time_s times the simulation, not the
    # first call's import of the engine.
    engine = importlib.import_module(_ENGINE_MODULES[cfg.scale.backend])
    wall_start = time.perf_counter()
    fields, totals = engine.measure(cfg, opts, tracer)
    result = RunResult(
        protocol=cfg.protocol.value,
        seed=cfg.seed,
        load_pps=cfg.traffic.packets_per_second,
        horizon_s=opts.horizon_s,
        n_nodes=cfg.n_nodes,
        config_digest=cfg.digest(),
        **fields,
    )
    derive(result, totals, cfg.dead_fraction)
    result.wall_time_s = time.perf_counter() - wall_start
    return result


def derive(result: RunResult, totals: RunTotals, dead_fraction: float) -> None:
    """Fill every derived field of ``result`` from what its engine measured.

    ``result`` carries the engine's measured fields (series, death
    times, counters, the energy ledger); ``totals`` the sums the record
    does not store.  This is the one place either engine's lifetimes,
    energy per packet, delay statistics, throughput, delivery rates and
    churn-aware variants are computed.  Each engine keeps its own
    arithmetic for the sums themselves, so this only divides and
    combines.
    """
    deaths = result.death_times_s
    n = result.n_nodes
    result.lifetime_s = network_lifetime_s(deaths, n, dead_fraction)
    result.first_death_s = first_death_s(deaths)
    result.death_spread_s = death_spread_s(deaths)
    if result.delivered > 0:
        # Radio deliveries only — see RunResult's "Delivery accounting".
        result.energy_per_packet_j = result.total_consumed_j / result.delivered
    if totals.delay_count:
        result.mean_delay_s = totals.delay_sum_s / totals.delay_count
    if len(totals.delay_samples):
        import numpy as np

        p50, p90, p99 = np.percentile(totals.delay_samples, (50.0, 90.0, 99.0))
        result.delay_p50_s = float(p50)
        result.delay_p90_s = float(p90)
        result.delay_p99_s = float(p99)
    if totals.elapsed_s > 0:
        result.throughput_bps = totals.delivered_bits / totals.elapsed_s
    if result.generated > 0:
        # Radio + local deliveries — see RunResult's "Delivery accounting".
        result.delivery_rate = result.total_delivered / result.generated
    offered = result.generated - result.orphaned
    if offered > 0:
        result.delivery_rate_offered = result.total_delivered / offered
    if totals.hop_count:
        result.mean_hop_count = totals.hop_sum / totals.hop_count
    ledger = result.energy_breakdown
    result.uplink_energy_j = ledger.get("uplink_tx", 0.0) + ledger.get(
        "uplink_rx", 0.0
    )
    result.lifetime_effective_s = result.lifetime_s
    if totals.effective_deaths is not None:
        result.lifetime_effective_s = network_lifetime_s(
            totals.effective_deaths, n, dead_fraction
        )
    if totals.survivor_bits is not None and totals.elapsed_s > 0:
        result.survivor_throughput_bps = totals.survivor_bits / totals.elapsed_s
