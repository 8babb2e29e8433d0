"""Ablation — tone-receiver monitoring duty cycle.

DESIGN.md §2: sensors that know the pulse schedule can duty-cycle the
tone receiver (default 15 %); naive always-on listening (100 %) burns
tone-RX power the whole time a gated scheme waits for a good channel.
This ablation shows why the modelling choice matters: with always-on
listening, the waiting cost cannibalises most of Scheme 2's transmit
savings — the effect that would otherwise flatten Figs. 8–10.
"""

import dataclasses

from repro.api import RunOptions, simulate
from repro.config import Protocol
from repro.experiments import get_preset, render_table

from conftest import run_once


def _energy_split(preset: str, duty: float, seeds):
    tier = get_preset(preset)
    total_tx, total_tone, total = 0.0, 0.0, 0.0
    for seed in seeds:
        cfg = tier.config(Protocol.CAEM_FIXED, load_pps=5.0, seed=seed)
        cfg = cfg.with_(tone=dataclasses.replace(cfg.tone, monitor_duty_cycle=duty))
        run = simulate(cfg, RunOptions(horizon_s=tier.rate_horizon_s,
                                       sample_interval_s=tier.sample_interval_s))
        total_tx += run.energy_breakdown.get("data_tx", 0.0)
        total_tone += run.energy_breakdown.get("tone_rx", 0.0)
        total += run.total_consumed_j
    n = len(seeds)
    return total_tx / n, total_tone / n, total / n


def _sweep(preset: str, seeds):
    rows = []
    for duty in (0.15, 1.0):
        tx, tone, total = _energy_split(preset, duty, seeds)
        rows.append([duty, tx, tone, total, tone / total])
    return rows


def test_ablation_tone_duty(benchmark, preset, seeds):
    rows = run_once(benchmark, _sweep, preset, seeds)
    print()
    print(render_table(
        ["monitor duty", "data_tx J", "tone_rx J", "total J", "tone share"],
        rows,
        title="ablation: tone monitoring duty cycle (Scheme 2, 5 pkt/s)",
    ))
    cycled, always_on = rows
    # Always-on listening burns far more tone-RX energy ...
    assert always_on[2] > 3.0 * cycled[2]
    # ... and it dominates the budget, eroding the gating advantage.
    assert always_on[4] > cycled[4]
