"""Extension experiment: the head→sink uplink tier under load.

The paper stops at the cluster head; with :mod:`repro.routing` enabled a
whole new scenario axis opens — where the sink sits and how heads reach
it.  This experiment sweeps sink distance (from the field centre outward)
crossed with the relay policy (``direct`` vs greedy ``multihop``) and
reports the uplink's cost surface: end-to-end delay distribution markers
(the delay-CDF summary), radio hop counts, the uplink share of the energy
ledger, and the resulting network lifetime.

Like every figure, the run grid is bit-identical under every
``--executor`` and can be persisted/re-rendered through a ResultStore.
"""

from __future__ import annotations

from typing import List, Sequence

from ..api import RunOptions, Scenario, experiment, run_scenarios
from ..config import Protocol
from ..metrics.summary import mean_of
from .figures import FigureResult
from .presets import get_preset

__all__ = ["ext_uplink", "DEFAULT_SINK_OFFSETS_M", "DEFAULT_RELAY_MODES"]

#: Sink distance from the field centre, metres (0 = centre; beyond
#: field_size/2 the sink sits outside the field).
DEFAULT_SINK_OFFSETS_M = (0.0, 40.0, 80.0)
DEFAULT_RELAY_MODES = ("direct", "multihop")


def _uplink_scenario(
    tier, mode: str, offset_m: float, seed: int
) -> Scenario:
    cfg = tier.config(Protocol.CAEM_ADAPTIVE, 5.0, seed)
    half = cfg.field_size_m / 2.0
    return Scenario(
        config=cfg.with_routing(
            mode=mode, sink_position=(half, half + offset_m)
        ),
        options=RunOptions(
            horizon_s=tier.lifetime_horizon_s,
            sample_interval_s=tier.sample_interval_s,
            stop_when_dead=True,
        ),
        tags={"mode": mode, "sink_offset_m": offset_m, "seed": seed},
    )


@experiment("ext-uplink", kind="extension",
            summary="Uplink relay tier: delay CDF and lifetime vs sink distance")
def ext_uplink(
    preset: str = "quick",
    seeds: Sequence[int] = (1,),
    sink_offsets_m: Sequence[float] = DEFAULT_SINK_OFFSETS_M,
    modes: Sequence[str] = DEFAULT_RELAY_MODES,
) -> FigureResult:
    """Delay/hop/energy/lifetime surface of the routed head→sink uplink."""
    tier = get_preset(preset)
    result = FigureResult(
        figure_id="ext-uplink",
        title="Uplink tier: delay CDF and lifetime versus sink distance",
        x_label="sink distance from field centre (m)",
        headers=[
            "mode", "sink_offset_m",
            "delivery", "delay_p50_ms", "delay_p90_ms", "delay_p99_ms",
            "mean_hops", "uplink_energy_%", "lifetime_s",
        ],
        notes=(
            f"preset={preset}: {tier.n_nodes} nodes, CAEM Scheme 1, "
            "5 pkt/s, run to network death (80% rule); "
            "uplink TX at the RoutingConfig boost power"
        ),
    )
    scenarios = [
        _uplink_scenario(tier, mode, offset, seed)
        for mode in modes
        for offset in sink_offsets_m
        for seed in seeds
    ]
    result.runs = run_scenarios(scenarios, experiment=result.figure_id)

    it = iter(result.runs)
    for mode in modes:
        for offset in sink_offsets_m:
            rates: List[float] = []
            p50s: List[float] = []
            p90s: List[float] = []
            p99s: List[float] = []
            hops: List[float] = []
            shares: List[float] = []
            lifetimes: List[float] = []
            for _seed in seeds:
                run = next(it)
                if run.delivery_rate is not None:
                    rates.append(run.delivery_rate)
                if run.delay_p50_s is not None:
                    p50s.append(run.delay_p50_s * 1e3)
                    p90s.append(run.delay_p90_s * 1e3)
                    p99s.append(run.delay_p99_s * 1e3)
                if run.mean_hop_count > 0:
                    hops.append(run.mean_hop_count)
                if run.total_consumed_j > 0:
                    shares.append(
                        100.0 * run.uplink_energy_j / run.total_consumed_j
                    )
                if run.lifetime_s is not None:
                    lifetimes.append(run.lifetime_s)
            result.rows.append([
                mode,
                offset,
                mean_of(rates) if rates else None,
                mean_of(p50s) if p50s else None,
                mean_of(p90s) if p90s else None,
                mean_of(p99s) if p99s else None,
                mean_of(hops) if hops else None,
                mean_of(shares) if shares else None,
                mean_of(lifetimes) if lifetimes else None,
            ])
    return result
