"""The paper's evaluation claims, checked on regenerated tables.

Each test regenerates one of the paper's tables or figures (or an
ablation of a modelling choice) and asserts the shape the paper's prose
states: orderings, signs, and ratio bands.  The tests carry the
``paper`` marker, so tier-1 skips them; run them with::

    python -m pytest -q -m paper                      # quick preset, ~30 s
    python -m pytest -q -m paper --executor pool:4    # same tables, faster
    python -m pytest -q -m paper --preset full        # Table II scale

``--preset`` (default "quick"), ``--bench-seeds`` and ``--executor``
come from ``tests/conftest.py``.  The bounds are checked at quick; no
test checks them at full, and smoke is too small to carry them (fig10
and fig12 fail there).  A bound may be tightened, never loosened.
"""

import dataclasses

import numpy as np
import pytest

from repro.api import RunOptions, simulate
from repro.config import Protocol
from repro.experiments import (
    ext_performance,
    fig8_remaining_energy,
    fig9_nodes_alive,
    fig10_lifetime_vs_load,
    fig11_energy_per_packet,
    fig12_queue_stddev,
    get_preset,
    render_table,
    table1_tone_spec,
    table2_parameters,
)
from repro.metrics import network_lifetime_s

pytestmark = pytest.mark.paper

#: The decimated load sweep of the fig10/fig11/fig12 checks.
LOADS = (5.0, 15.0, 30.0)


def test_table1_tone_spec():
    """Table I: "using different pulse intervals to identify channel
    states" -- idle 1 ms every 50 ms, receive 0.5 ms every 10 ms, and a
    single collision pulse."""
    result = table1_tone_spec()
    print()
    print(result.render())

    states = result.series("state")
    durations = result.series("pulse duration (ms)")
    periods = result.series("pulse period (ms)")
    spec = dict(zip(states, zip(durations, periods)))
    assert spec["idle"] == (1.0, 50.0)
    assert spec["receive"] == (0.5, 10.0)
    assert spec["collision"][0] == 0.5 and spec["collision"][1] is None


def test_table2_parameters():
    """Table II: "Number of Nodes: 100", "Percentage of CH: 5%",
    "Transmit Power for Data Channel: 0.66 W", "Receive Power for Data
    Channel: 0.305 W", "Contention Window Size: 10", "Buffer Size: 50",
    and "The initial battery energy level is 10 Joules" -- the values
    the scan preserves unambiguously, read from the live defaults."""
    result = table2_parameters()
    print()
    print(result.render())

    rows = dict(zip(result.series("parameter"), result.series("value")))
    assert rows["Number of nodes"] == 100
    assert rows["Percentage of CH"] == "5%"
    assert rows["Transmit power (data)"] == "0.66 W"
    assert rows["Receive power (data)"] == "0.305 W"
    assert rows["Packet length"] == "2 kbit"
    assert rows["Contention window size"] == 10
    assert rows["Buffer size"] == "50 packets"
    assert rows["Initial battery energy"] == "10 J"
    assert "2 Mbps" in rows["Bandwidth (ABICM modes)"]
    assert "250 kbps" in rows["Bandwidth (ABICM modes)"]


def test_fig8_remaining_energy(preset, seeds, executor):
    """Fig. 8: "Figure 8 shows the average remaining energy in each
    sensor with elapsed time" -- the schemes "can greatly reduce" energy
    consumption.  By the end of the window pure LEACH retains the least
    energy and Scheme 2 the most, and Scheme 1 spends under 90% of what
    pure LEACH spends."""
    result = fig8_remaining_energy(preset, seeds)
    print()
    print(result.render())

    leach = np.asarray(result.series("pure LEACH"), dtype=float)
    s1 = np.asarray(result.series("Scheme 1"), dtype=float)
    s2 = np.asarray(result.series("Scheme 2"), dtype=float)

    # Everyone starts full and drains monotonically (within sampler noise).
    assert leach[0] == s1[0] == s2[0]
    for series in (leach, s1, s2):
        assert np.all(np.diff(series) <= 1e-9)

    # Shape: by the end of the window the ordering is LEACH < S1 <= S2.
    assert leach[-1] < s1[-1], "Scheme 1 must retain more energy than pure LEACH"
    assert s1[-1] <= s2[-1] * 1.02, "Scheme 2 must retain the most energy"

    # The gap must be material, not noise.
    consumed_leach = leach[0] - leach[-1]
    consumed_s1 = s1[0] - s1[-1]
    assert consumed_s1 < 0.9 * consumed_leach


def _lifetime(result, protocol, n_nodes):
    runs = [r for r in result.runs if r.protocol == protocol]
    vals = [network_lifetime_s(r.death_times_s, n_nodes, 0.8) for r in runs]
    vals = [v for v in vals if v is not None]
    return float(np.mean(vals)) if vals else None


def test_fig9_nodes_alive(preset, seeds, executor):
    """Fig. 9: "all the curves in the figure drop abruptly at some
    critical points", and network lifetime (80% of nodes exhausted)
    extends by about +40% for Scheme 1 and +130% for Scheme 2 over pure
    LEACH.  Checked: S1 > +10%, S2 > +50%, S2 > S1, and the 10%->90% dead
    window is shorter than 0.65 lifetimes."""
    result = fig9_nodes_alive(preset, seeds)
    print()
    print(result.render())

    n_nodes = result.runs[0].alive_counts[0]
    lt_leach = _lifetime(result, "pure_leach", n_nodes)
    lt_s1 = _lifetime(result, "scheme1", n_nodes)
    lt_s2 = _lifetime(result, "scheme2", n_nodes)
    assert lt_leach and lt_s1 and lt_s2, "lifetimes censored; extend horizon"

    gain_s1 = lt_s1 / lt_leach - 1.0
    gain_s2 = lt_s2 / lt_leach - 1.0
    print(f"lifetime gains vs pure LEACH: S1 {gain_s1:+.0%}, S2 {gain_s2:+.0%} "
          f"(paper: ~+40% / ~+130%)")

    # Shape: both schemes extend lifetime; S2 > S1; magnitudes in band.
    assert gain_s1 > 0.10
    assert gain_s2 > gain_s1
    assert gain_s2 > 0.5

    # Abrupt die-off: the 10%->90% dead window is short vs the lifetime.
    for proto, lifetime in (("pure_leach", lt_leach), ("scheme2", lt_s2)):
        runs = [r for r in result.runs if r.protocol == proto]
        deaths = sorted(t for t in runs[0].death_times_s if t is not None)
        if len(deaths) == n_nodes:
            k10 = deaths[int(0.1 * n_nodes)]
            k90 = deaths[int(0.9 * n_nodes) - 1]
            assert (k90 - k10) < 0.65 * lifetime


def test_fig10_lifetime_vs_load(preset, seeds, executor):
    """Fig. 10: "we further increase the traffic load until the network
    gets saturated and measure the network lifetime" -- "more packet
    transmissions speed up a sensor's energy consumption", Scheme 2
    lives longest, and the Scheme 1 / pure LEACH difference "becomes
    invisible" at saturation.  Checked: every curve falls with load
    (10% tolerance), Scheme 2 is on top, and the S1 gap is smaller at
    30 pkt/s than at 5 pkt/s."""
    result = fig10_lifetime_vs_load(preset, seeds, LOADS)
    print()
    print(result.render())

    leach = result.series("pure LEACH lifetime_s")
    s1 = result.series("Scheme 1 lifetime_s")
    s2 = result.series("Scheme 2 lifetime_s")
    assert all(v is not None for v in leach + s1 + s2), "censored lifetimes"

    # Monotone decreasing with load (small tolerance for sampler noise).
    for series in (leach, s1, s2):
        arr = np.asarray(series, dtype=float)
        assert np.all(arr[1:] <= arr[:-1] * 1.10)

    # Scheme 2 on top everywhere.
    for lt_leach, lt_s1, lt_s2 in zip(leach, s1, s2):
        assert lt_s2 >= lt_s1 * 0.95 and lt_s2 > lt_leach

    # The S1-LEACH relative gap shrinks from light load to saturation.
    gap_light = s1[0] / leach[0] - 1.0
    gap_heavy = s1[-1] / leach[-1] - 1.0
    print(f"S1 gap over LEACH: {gap_light:+.0%} at {LOADS[0]} pkt/s -> "
          f"{gap_heavy:+.0%} at {LOADS[-1]} pkt/s (paper: gap becomes invisible)")
    assert gap_heavy < gap_light


def test_fig11_energy_per_packet(preset, seeds, executor):
    """Fig. 11: "we can achieve about 30-40% [saving]" in energy per
    successfully delivered packet with Scheme 1; for pure LEACH "sending
    more packets per transmission can reduce the radio startup energy
    overhead"; and "the difference ... will decrease if we further
    increase traffic load".  Checked: the S1 saving lies in 15-70% at
    every load, and pure LEACH's energy per packet does not grow by more
    than 15% from 5 to 30 pkt/s."""
    result = fig11_energy_per_packet(preset, seeds, LOADS)
    print()
    print(result.render())

    leach = result.series("pure LEACH mJ/pkt")
    s1 = result.series("Scheme 1 mJ/pkt")
    savings = result.series("S1 saving %")
    assert all(v is not None for v in leach + s1 + savings)

    for s in savings:
        assert 15.0 < s < 70.0, f"S1 saving {s:.0f}% out of plausible band"

    # Burst/overhead amortisation pushes pure LEACH's per-packet energy
    # down with load, clearly so at the full preset.  At quick scale
    # collision waste offsets part of the effect, so the check tolerates
    # a small rise.
    assert leach[-1] < leach[0] * 1.15

    # Known fidelity gap: the saving does not narrow with load.  Pure
    # LEACH keeps paying for collisions and outage losses at high load,
    # so the saving stays roughly flat (46-49% at every load at the full
    # preset).  This only guards against it *exploding*, which would
    # indicate a regression in the baseline.
    assert savings[-1] < savings[0] + 15.0


def test_fig12_queue_stddev(preset, seeds, executor):
    """Fig. 12: "we have set the buffer size to be substantially large
    enough to accommodate all generated packets", and "Scheme 1 exhibits
    a higher level of fairness in bandwidth allocation".  Checked:
    sigma(queue) grows with load, Scheme 2 is over 1.5x less fair than
    Scheme 1 above 5 pkt/s, and Scheme 1 stays within 2.5x of pure
    LEACH."""
    result = fig12_queue_stddev(preset, seeds, LOADS)
    print()
    print(result.render())

    leach = result.series("pure LEACH σ(queue)")
    s1 = result.series("Scheme 1 σ(queue)")
    s2 = result.series("Scheme 2 σ(queue)")
    assert all(v is not None for v in leach + s1 + s2)

    # Unfairness grows with load.
    assert s2[-1] > s2[0]
    assert s1[-1] >= s1[0] * 0.8

    # Scheme 2 is the least fair at moderate+ load, by a wide margin.
    for i in range(1, len(LOADS)):
        assert s2[i] > 1.5 * s1[i], (
            f"Scheme 2 should starve nodes vs Scheme 1 at {LOADS[i]} pkt/s"
        )

    # Scheme 1 remains in the baseline's fairness ballpark.
    assert s1[-1] < 2.5 * leach[-1]


def test_ext_performance(preset, seeds, executor):
    """Section IV-A defines average packet delay, aggregate throughput
    and successful delivery rate, but the paper plots them only in its
    long version; no sentence gives their values.  Checked: the
    orderings its prose implies -- Scheme 2's gating waits for good
    channels, so it is slower than pure LEACH at light load; more
    offered load moves more bits; delivery rates lie in (0.2, 1]."""
    result = ext_performance(preset, seeds, (5.0, 20.0))
    print()
    print(result.render())

    delay_leach = result.series("pure LEACH delay_ms")
    delay_s2 = result.series("Scheme 2 delay_ms")
    tput_leach = result.series("pure LEACH tput_kbps")
    rate_leach = result.series("pure LEACH delivery")
    rate_s1 = result.series("Scheme 1 delivery")

    # Known fidelity gap: the delay ordering crosses over.  At and beyond
    # saturation pure LEACH's own queueing and collision delays overtake
    # Scheme 2's gating wait, so the ordering is only asserted at the
    # light-load point.
    assert delay_s2[0] > delay_leach[0]

    # More offered load moves more bits (below saturation collapse).
    assert tput_leach[-1] > tput_leach[0]

    # Delivery rates are proper ratios and not degenerate.
    for r in rate_leach + rate_s1:
        assert 0.2 < r <= 1.0


def _rate_run(tier, cfg):
    return simulate(cfg, RunOptions(horizon_s=tier.rate_horizon_s,
                                    sample_interval_s=tier.sample_interval_s))


def test_ablation_fading_coherence(preset, seeds):
    """The paper assumes quasi-static nodes, with a "coherence time of
    the order of [100] ms".  Coherence sets how long a gated sensor waits
    for the channel to fade up past its threshold.  Checked: Scheme 2's
    mean delay is longer at 0.5 s coherence than at 0.02 s."""
    tier = get_preset(preset)
    rows = []
    for coherence in (0.02, 0.1, 0.5):
        delays, qdrops, epps = [], [], []
        for seed in seeds:
            cfg = tier.config(Protocol.CAEM_FIXED, load_pps=5.0, seed=seed)
            cfg = cfg.with_(channel=dataclasses.replace(
                cfg.channel, fading_coherence_s=coherence))
            run = _rate_run(tier, cfg)
            delays.append(run.mean_delay_s * 1e3)
            qdrops.append(run.dropped_overflow)
            if run.energy_per_packet_j:
                epps.append(run.energy_per_packet_j * 1e3)
        n = len(seeds)
        rows.append([coherence, sum(delays) / n, sum(qdrops) / n,
                     sum(epps) / max(len(epps), 1)])
    print()
    print(render_table(
        ["coherence_s", "mean delay ms", "overflow drops", "mJ/pkt"],
        rows,
        title="ablation: fading coherence time (Scheme 2, 5 pkt/s)",
    ))
    fast, _mid, slow = rows
    assert slow[1] > fast[1], "longer coherence should increase delay"


def test_ablation_startup_time(preset, seeds):
    """Table II's scan reads "the RFM radio needs 20 [us] to switch from
    sleep mode to active mode"; the unit is lost.  The default reads
    20 us, and Schurgers et al.'s 466 us synthesizer lock is the
    alternative.  Startup is also the MAC's collision-vulnerability
    window.  Checked: 466 us gives more collisions than 20 us under pure
    LEACH at 10 pkt/s, and no better delivery (2% tolerance)."""
    tier = get_preset(preset)
    rows = []
    for startup_us in (20.0, 466.0):
        runs = []
        for seed in seeds:
            cfg = tier.config(Protocol.PURE_LEACH, load_pps=10.0, seed=seed)
            cfg = cfg.with_(energy=dataclasses.replace(
                cfg.energy, startup_time_s=startup_us * 1e-6))
            runs.append(_rate_run(tier, cfg))
        n = len(runs)
        collisions = sum(r.collisions for r in runs) / n
        aborted = sum(r.dropped_retry for r in runs) / n
        epp = sum(
            r.energy_per_packet_j for r in runs if r.energy_per_packet_j
        ) / n
        delivery = sum(r.delivery_rate for r in runs if r.delivery_rate) / n
        rows.append([startup_us, collisions, aborted, epp * 1e3, delivery])
    print()
    print(render_table(
        ["startup_us", "collisions", "retry drops", "mJ/pkt", "delivery"],
        rows,
        title="ablation: radio startup time (pure LEACH, 10 pkt/s)",
    ))
    fast, slow = rows
    # A 23x larger vulnerability window must produce more collisions ...
    assert slow[1] > fast[1]
    # ... and it costs delivery and/or energy.
    assert slow[4] <= fast[4] * 1.02


def test_ablation_tone_duty(preset, seeds):
    """Table I's tone channel is read by "using different pulse intervals
    to identify channel states"; the paper does not say how long a
    sensor listens.  Sensors that know the pulse schedule duty-cycle the
    tone receiver (default 15%).  Checked: always-on listening burns
    over 3x the tone-RX energy of the default and a larger share of the
    budget, which would erode Scheme 2's gating advantage."""
    tier = get_preset(preset)
    rows = []
    for duty in (0.15, 1.0):
        total_tx, total_tone, total = 0.0, 0.0, 0.0
        for seed in seeds:
            cfg = tier.config(Protocol.CAEM_FIXED, load_pps=5.0, seed=seed)
            cfg = cfg.with_(tone=dataclasses.replace(
                cfg.tone, monitor_duty_cycle=duty))
            run = _rate_run(tier, cfg)
            total_tx += run.energy_breakdown.get("data_tx", 0.0)
            total_tone += run.energy_breakdown.get("tone_rx", 0.0)
            total += run.total_consumed_j
        n = len(seeds)
        tx, tone, total = total_tx / n, total_tone / n, total / n
        rows.append([duty, tx, tone, total, tone / total])
    print()
    print(render_table(
        ["monitor duty", "data_tx J", "tone_rx J", "total J", "tone share"],
        rows,
        title="ablation: tone monitoring duty cycle (Scheme 2, 5 pkt/s)",
    ))
    cycled, always_on = rows
    assert always_on[2] > 3.0 * cycled[2]
    assert always_on[4] > cycled[4]
