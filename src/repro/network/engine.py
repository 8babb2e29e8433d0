"""The event kernel as an engine: run one scenario, return what it measured.

:func:`measure` is what :func:`repro.api.simulate` calls for
``backend="event"``: it builds a :class:`SensorNetwork`, samples its
series, advances it to the horizon (or to network death) and reads the
measured fields off the network.  Every derived field comes from
:func:`repro.api.engine.derive`, the same for both engines.
"""

from __future__ import annotations

from ..config import NetworkConfig
from ..metrics import TimeSeriesCollector
from .network import SensorNetwork

__all__ = ["measure"]


def measure(cfg: NetworkConfig, opts, tracer=None):
    """Run ``cfg`` under ``opts``; returns ``(fields, totals)``.

    ``fields`` maps :class:`~repro.api.RunResult` field names to what the
    kernel measured; ``totals`` is a :class:`~repro.api.result.RunTotals`.
    """
    from ..api.result import COUNTER_FIELDS, RunTotals

    net = SensorNetwork(cfg, tracer=tracer)
    samplers = {
        "mean_energy_j": net.mean_remaining_j,
        "alive_counts": lambda: net.alive_count,
    }
    if opts.collect_queues:
        samplers["queue_snapshots"] = net.queue_lengths
    if cfg.dynamics.enabled:
        # Churn-aware companion to the alive series: alive counts track
        # battery deaths (the paper's series), up counts subtract nodes
        # transiently down at the sample instant.
        samplers["up_counts"] = lambda: net.up_count
    series = {
        name: TimeSeriesCollector(
            net.sim,
            opts.sample_interval_s,
            fn,
            name,
            max_samples=opts.max_series_samples,
        )
        for name, fn in samplers.items()
    }
    net.start()
    for collector in series.values():
        collector.start()

    # Advance in sampler-sized chunks so the death rule is checked often.
    t = 0.0
    while t < opts.horizon_s:
        t = min(t + opts.sample_interval_s, opts.horizon_s)
        net.run_until(t)
        if opts.stop_when_dead and net.is_dead:
            break
    # Settle once, before anything is read: a battery this settle
    # empties dies at the last instant, and every field below sees it.
    net.settle_all()

    energy = series["mean_energy_j"]
    fields = {
        "sample_times_s": list(energy.times),
        "mean_energy_j": [float(v) for v in energy.values],
        "alive_counts": [int(v) for v in series["alive_counts"].values],
        "series_stride": energy.stride,
        "death_times_s": [n.death_time_s for n in net.nodes],
        "events_processed": net.sim.events_processed,
        "total_consumed_j": net.total_consumed_j(),
        "energy_breakdown": net.energy_breakdown(),
        "generated": net.generated_packets(),
        "dropped_overflow": net.dropped_overflow(),
        "dropped_retry": net.dropped_retry(),
        "collisions": sum(n.mac.stats.collisions_heard for n in net.nodes),
    }
    if "queue_snapshots" in series:
        fields["queue_snapshots"] = [
            list(v) for v in series["queue_snapshots"].values
        ]
    if "up_counts" in series:
        fields["up_counts"] = [int(v) for v in series["up_counts"].values]
    stats = net.stats
    fields.update((name, getattr(stats, name)) for name in COUNTER_FIELDS[4:])

    effective_deaths = survivor_bits = None
    if cfg.dynamics.enabled:
        # A node down at the end (failed, never recovered) is dead for
        # the churn-aware lifetime, from its last failure onward.
        effective_deaths = [
            n.death_time_s
            if n.death_time_s is not None
            else (n.last_failure_s if n.failed else None)
            for n in net.nodes
        ]
        bysrc = stats.delivered_bits_by_source
        if bysrc:
            survivor_bits = sum(
                bits for nid, bits in bysrc.items() if net.nodes[nid].is_up
            )
    return fields, RunTotals(
        elapsed_s=net.sim.now,
        delivered_bits=stats.delivered_bits,
        delay_sum_s=stats.delay_sum_s,
        delay_count=stats.delay_count,
        delay_samples=stats.delays_s,
        hop_sum=stats.hop_sum,
        hop_count=stats.hop_count_n,
        effective_deaths=effective_deaths,
        survivor_bits=survivor_bits,
    )
