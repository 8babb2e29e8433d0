"""The simulation engine: one fully specified run in, one record out.

:func:`simulate` is the single choke point every execution path funnels
through — :meth:`repro.api.Scenario.run` and every
:class:`repro.api.Campaign` executor (serial, pool, supervised,
distributed).  A run is fully specified by
``(NetworkConfig, RunOptions)``; all randomness derives from
``config.seed`` via the named-stream :class:`repro.rng.RngRegistry`, so
the same pair produces a bit-identical :class:`RunResult` in any process,
at any parallelism, in any execution order.
"""

from __future__ import annotations

import importlib
import time
from dataclasses import dataclass
from typing import Iterable, Optional

import numpy as np

from ..config import NetworkConfig
from ..errors import ExperimentError
from ..metrics import TimeSeriesCollector
from ..metrics.collectors import validate_max_samples
from ..metrics.lifetime import death_spread_s, first_death_s, network_lifetime_s
from .result import RunResult

__all__ = ["RunOptions", "import_engines", "simulate"]

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
        if self.horizon_s <= 0:
            raise ExperimentError("horizon must be > 0")
        if self.sample_interval_s <= 0:
            raise ExperimentError("sample interval must be > 0")
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

    Build a :class:`~repro.network.SensorNetwork`, attach samplers,
    advance (optionally stopping at network death), and distil the
    measurement record.
    """
    opts = options or RunOptions()
    if cfg.scale.backend == "auto":
        # Resolve to the concrete engine before anything else: the same
        # pure function to_dict()/digest() use, so the substituted
        # config digests identically and stored rows pair either way.
        from ..vector.support import resolve_backend

        cfg = cfg.with_scale(backend=resolve_backend(cfg))
    if cfg.scale.backend == "vector":
        # Population-scale structure-of-arrays engine; same (config,
        # options) -> RunResult contract, selected per run by config so
        # campaigns can mix backends freely.  Imported lazily to keep
        # the default path free of the numpy-heavy vector module.
        from ..vector import simulate_vector

        return simulate_vector(cfg, opts, tracer=tracer)
    # Before the clock starts: wall_time_s times the simulation, not the
    # first call's import of the kernel.
    from ..network import SensorNetwork

    wall_start = time.perf_counter()
    net = SensorNetwork(cfg, tracer=tracer)
    result = RunResult(
        protocol=cfg.protocol.value,
        seed=cfg.seed,
        load_pps=cfg.traffic.packets_per_second,
        horizon_s=opts.horizon_s,
        n_nodes=cfg.n_nodes,
        config_digest=cfg.digest(),
    )

    def sample_energy() -> float:
        return net.mean_remaining_j()

    def sample_alive() -> int:
        return net.alive_count

    cap = opts.max_series_samples
    energy_series = TimeSeriesCollector(
        net.sim, opts.sample_interval_s, sample_energy, "mean_energy",
        max_samples=cap,
    )
    alive_series = TimeSeriesCollector(
        net.sim, opts.sample_interval_s, sample_alive, "alive",
        max_samples=cap,
    )
    queue_series = None
    if opts.collect_queues:
        queue_series = TimeSeriesCollector(
            net.sim, opts.sample_interval_s, net.queue_lengths, "queues",
            max_samples=cap,
        )
    up_series = None
    if cfg.dynamics.enabled:
        # Churn-aware companion to the alive series: alive counts track
        # battery deaths (the paper's series), up counts subtract nodes
        # transiently down at the sample instant.
        up_series = TimeSeriesCollector(
            net.sim, opts.sample_interval_s, lambda: net.up_count, "up",
            max_samples=cap,
        )

    net.start()
    energy_series.start()
    alive_series.start()
    if queue_series is not None:
        queue_series.start()
    if up_series is not None:
        up_series.start()

    # Advance in sampler-sized chunks so the death rule is checked often.
    t = 0.0
    while t < opts.horizon_s:
        t = min(t + opts.sample_interval_s, opts.horizon_s)
        net.run_until(t)
        if opts.stop_when_dead and net.is_dead:
            break

    # Harvest.
    result.sample_times_s = list(energy_series.times)
    result.mean_energy_j = [float(v) for v in energy_series.values]
    result.alive_counts = [int(v) for v in alive_series.values]
    result.series_stride = energy_series.stride
    if queue_series is not None:
        result.queue_snapshots = [list(v) for v in queue_series.values]
    if up_series is not None:
        result.up_counts = [int(v) for v in up_series.values]

    deaths = [n.death_time_s for n in net.nodes]
    result.death_times_s = deaths
    result.lifetime_s = network_lifetime_s(
        deaths, cfg.n_nodes, cfg.dead_fraction
    )
    result.first_death_s = first_death_s(deaths)
    result.death_spread_s = death_spread_s(deaths)

    elapsed = net.sim.now
    result.events_processed = net.sim.events_processed
    result.generated = net.generated_packets()
    result.delivered = net.stats.delivered
    result.delivered_local = net.stats.delivered_local
    result.lost_channel = net.stats.lost_channel
    result.dropped_overflow = net.dropped_overflow()
    result.dropped_retry = net.dropped_retry()
    result.collisions = sum(n.mac.stats.collisions_heard for n in net.nodes)
    result.total_consumed_j = net.total_consumed_j()
    if result.delivered > 0:
        # Radio deliveries only — see RunResult's "Delivery accounting".
        result.energy_per_packet_j = result.total_consumed_j / result.delivered
    result.mean_delay_s = net.stats.mean_delay_s()
    if net.stats.delays_s:
        p50, p90, p99 = np.percentile(net.stats.delays_s, (50.0, 90.0, 99.0))
        result.delay_p50_s = float(p50)
        result.delay_p90_s = float(p90)
        result.delay_p99_s = float(p99)
    if elapsed > 0:
        result.throughput_bps = net.stats.delivered_bits / elapsed
    if result.generated > 0:
        # Radio + local deliveries — see RunResult's "Delivery accounting".
        result.delivery_rate = net.stats.total_delivered / result.generated
    result.energy_breakdown = net.energy_breakdown()
    # Uplink tier counters (identically zero while routing is disabled).
    result.cluster_delivered = net.stats.cluster_delivered
    result.uplink_lost_channel = net.stats.uplink_lost_channel
    result.uplink_dropped_retry = net.stats.uplink_dropped_retry
    result.uplink_dropped_overflow = net.stats.uplink_dropped_overflow
    result.uplink_stranded = net.stats.uplink_stranded
    result.mean_hop_count = net.stats.mean_hop_count()
    result.uplink_energy_j = (
        result.energy_breakdown.get("uplink_tx", 0.0)
        + result.energy_breakdown.get("uplink_rx", 0.0)
    )
    # Dynamics.  Counters are identically zero while the block is off;
    # the two churn-aware derived metrics below are always computed and
    # equal their static counterparts on a churn-free run.
    result.churn_failures = net.stats.churn_failures
    result.churn_recoveries = net.stats.churn_recoveries
    result.regime_shifts = net.stats.regime_shifts
    result.orphaned = net.stats.orphaned
    result.first_failure_s = net.stats.first_failure_s
    result.lifetime_effective_s = result.lifetime_s
    offered = result.generated - result.orphaned
    if offered > 0:
        result.delivery_rate_offered = net.stats.total_delivered / offered
    if cfg.dynamics.enabled:
        # A node down at the end (failed, never recovered) is dead for
        # the churn-aware lifetime, from its last failure onward.
        effective_deaths = [
            n.death_time_s
            if n.death_time_s is not None
            else (n.last_failure_s if n.failed else None)
            for n in net.nodes
        ]
        result.lifetime_effective_s = network_lifetime_s(
            effective_deaths, cfg.n_nodes, cfg.dead_fraction
        )
        bysrc = net.stats.delivered_bits_by_source
        if bysrc and elapsed > 0:
            survivor_bits = sum(
                bits for nid, bits in bysrc.items() if net.nodes[nid].is_up
            )
            result.survivor_throughput_bps = survivor_bits / elapsed
    result.wall_time_s = time.perf_counter() - wall_start
    return result
