"""Ablation — radio startup time (the Table II scan ambiguity).

DESIGN.md §2: the scan reads "the RFM radio needs 20 …"; we default to
20 µs and keep Schurgers et al.'s 466 µs synthesizer-lock figure as the
alternative.  The startup time is also the MAC's collision-vulnerability
window (a contender that passed its checks cannot be heard until its
radio is actually transmitting), so this ablation quantifies both the
energy and the contention effect of the choice.
"""

import dataclasses

from repro.api import RunOptions, simulate
from repro.config import Protocol
from repro.experiments import get_preset, render_table

from conftest import run_once


def _run(preset: str, startup_s: float, seed: int):
    tier = get_preset(preset)
    cfg = tier.config(Protocol.PURE_LEACH, load_pps=10.0, seed=seed)
    cfg = cfg.with_(
        energy=dataclasses.replace(cfg.energy, startup_time_s=startup_s)
    )
    return simulate(cfg, RunOptions(horizon_s=tier.rate_horizon_s,
                                    sample_interval_s=tier.sample_interval_s))


def _sweep(preset: str, seeds):
    rows = []
    for startup_us in (20.0, 466.0):
        runs = [_run(preset, startup_us * 1e-6, s) for s in seeds]
        collisions = sum(r.collisions for r in runs) / len(runs)
        aborted = sum(r.dropped_retry for r in runs) / len(runs)
        epp = sum(
            r.energy_per_packet_j for r in runs if r.energy_per_packet_j
        ) / len(runs)
        delivery = sum(r.delivery_rate for r in runs if r.delivery_rate) / len(runs)
        rows.append([startup_us, collisions, aborted, epp * 1e3, delivery])
    return rows


def test_ablation_startup_time(benchmark, preset, seeds):
    rows = run_once(benchmark, _sweep, preset, seeds)
    print()
    print(render_table(
        ["startup_us", "collisions", "retry drops", "mJ/pkt", "delivery"],
        rows,
        title="ablation: radio startup time (pure LEACH, 10 pkt/s)",
    ))
    fast, slow = rows
    # A 23x larger vulnerability window must produce more collisions.
    assert slow[1] > fast[1]
    # And it costs delivery and/or energy.
    assert slow[4] <= fast[4] * 1.02
