"""Ablation — fading coherence time.

The paper assumes quasi-static nodes ("coherence time of the order of
[100] ms").  Coherence sets how long a gated sensor waits for the channel
to fade *up* past its threshold: slower fading (longer coherence) means
longer waits and larger queues for Scheme 2, while the energy ordering is
preserved.  This is the central environmental sensitivity of CAEM.
"""

import dataclasses

from repro.api import RunOptions, simulate
from repro.config import Protocol
from repro.experiments import get_preset, render_table

from conftest import run_once


def _run(preset: str, coherence_s: float, seeds):
    tier = get_preset(preset)
    delays, qdrops, epps = [], [], []
    for seed in seeds:
        cfg = tier.config(Protocol.CAEM_FIXED, load_pps=5.0, seed=seed)
        cfg = cfg.with_(
            channel=dataclasses.replace(cfg.channel, fading_coherence_s=coherence_s)
        )
        run = simulate(cfg, RunOptions(horizon_s=tier.rate_horizon_s,
                                       sample_interval_s=tier.sample_interval_s))
        delays.append(run.mean_delay_s * 1e3)
        qdrops.append(run.dropped_overflow)
        if run.energy_per_packet_j:
            epps.append(run.energy_per_packet_j * 1e3)
    n = len(seeds)
    return (sum(delays) / n, sum(qdrops) / n,
            sum(epps) / max(len(epps), 1))


def _sweep(preset: str, seeds):
    rows = []
    for coherence in (0.02, 0.1, 0.5):
        delay, drops, epp = _run(preset, coherence, seeds)
        rows.append([coherence, delay, drops, epp])
    return rows


def test_ablation_fading_coherence(benchmark, preset, seeds):
    rows = run_once(benchmark, _sweep, preset, seeds)
    print()
    print(render_table(
        ["coherence_s", "mean delay ms", "overflow drops", "mJ/pkt"],
        rows,
        title="ablation: fading coherence time (Scheme 2, 5 pkt/s)",
    ))
    fast, mid, slow = rows
    # Slow fading makes the wait for a good channel longer.
    assert slow[1] > fast[1], "longer coherence should increase delay"
