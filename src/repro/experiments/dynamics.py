"""Extension experiment: the protocols under network adversity.

The paper's claim — channel-adaptive energy management extends lifetime —
is evaluated on a *static* network.  This experiment stresses it with the
:mod:`repro.dynamics` subsystem: every cell runs under a fixed adversity
profile (heterogeneous batteries, half the nodes bursty, periodic
shadowing regime shifts) and sweeps the per-node churn failure rate
crossed with the protocol (policy).  Reported per cell: applied
failures/recoveries, end-to-end delivery on both denominators (raw and
churn-aware ``delivery_rate_offered``), the first-failure time, what the
surviving nodes actually sustained (``survivor_throughput_bps``), and
the churn-aware network lifetime.

Like every figure, the run grid is bit-identical under every
``--executor`` and can be persisted/re-rendered through a ResultStore.
"""

from __future__ import annotations

from typing import List, Sequence

from ..api import RunOptions, Scenario, experiment, run_scenarios
from ..config import Protocol
from ..metrics.summary import mean_of
from .figures import _LABELS, _PROTOCOLS, FigureResult
from .presets import get_preset

__all__ = ["ext_dynamics", "DEFAULT_CHURN_RATES_HZ"]

#: Per-node Poisson failure rates, 1/s (0 = adversity without churn).
DEFAULT_CHURN_RATES_HZ = (0.0, 0.002, 0.01)


def _dynamics_scenario(
    tier, proto: Protocol, churn_hz: float, seed: int
) -> Scenario:
    cfg = tier.config(proto, 5.0, seed)
    round_s = tier.round_duration_s
    return Scenario(
        config=cfg.with_dynamics(
            failure_rate_hz=churn_hz,
            # A failed node sits out ~2 rounds before repair.
            mean_downtime_s=2.0 * round_s,
            battery_jitter=0.3,
            regime_mean_interval_s=2.0 * round_s,
            regime_sigma_db=3.0,
            bursty_fraction=0.5,
        ),
        options=RunOptions(
            horizon_s=tier.lifetime_horizon_s,
            sample_interval_s=tier.sample_interval_s,
            stop_when_dead=True,
        ),
        tags={"protocol": proto.value, "churn_hz": churn_hz, "seed": seed},
    )


@experiment("ext-dynamics", kind="extension",
            summary="Churn-rate x policy sweep under network adversity")
def ext_dynamics(
    preset: str = "quick",
    seeds: Sequence[int] = (1,),
    churn_rates_hz: Sequence[float] = DEFAULT_CHURN_RATES_HZ,
) -> FigureResult:
    """Delivery/lifetime surface of the three protocols under churn."""
    tier = get_preset(preset)
    result = FigureResult(
        figure_id="ext-dynamics",
        title="Protocols under adversity: churn rate versus delivery and lifetime",
        x_label="per-node churn failure rate (1/s)",
        headers=[
            "protocol", "churn_hz",
            "failures", "recoveries", "orphaned",
            "delivery", "delivery_offered", "first_failure_s",
            "survivor_kbps", "lifetime_s",
        ],
        notes=(
            f"preset={preset}: {tier.n_nodes} nodes, 5 pkt/s, run to "
            "network death (80% rule); adversity profile: battery "
            "jitter 0.3, 50% bursty sources, 3 dB regime shifts every "
            "~2 rounds, repairs after ~2 rounds; lifetime_s is the "
            "churn-aware lifetime_effective_s"
        ),
    )
    scenarios = [
        _dynamics_scenario(tier, proto, churn, seed)
        for proto in _PROTOCOLS
        for churn in churn_rates_hz
        for seed in seeds
    ]
    result.runs = run_scenarios(scenarios, experiment=result.figure_id)

    it = iter(result.runs)
    for proto in _PROTOCOLS:
        for churn in churn_rates_hz:
            failures: List[float] = []
            recoveries: List[float] = []
            orphaned: List[float] = []
            rates: List[float] = []
            offered: List[float] = []
            first_fails: List[float] = []
            survivor_kbps: List[float] = []
            lifetimes: List[float] = []
            for _seed in seeds:
                run = next(it)
                failures.append(float(run.churn_failures))
                recoveries.append(float(run.churn_recoveries))
                orphaned.append(float(run.orphaned))
                if run.delivery_rate is not None:
                    rates.append(run.delivery_rate)
                if run.delivery_rate_offered is not None:
                    offered.append(run.delivery_rate_offered)
                if run.first_failure_s is not None:
                    first_fails.append(run.first_failure_s)
                survivor_kbps.append(run.survivor_throughput_bps / 1e3)
                if run.lifetime_effective_s is not None:
                    lifetimes.append(run.lifetime_effective_s)
            result.rows.append([
                _LABELS[proto],
                churn,
                mean_of(failures),
                mean_of(recoveries),
                mean_of(orphaned),
                mean_of(rates) if rates else None,
                mean_of(offered) if offered else None,
                mean_of(first_fails) if first_fails else None,
                mean_of(survivor_kbps),
                mean_of(lifetimes) if lifetimes else None,
            ])
    return result
