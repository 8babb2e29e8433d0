"""Fig. 11 — Average energy consumed per delivered packet versus load.

Shape criteria (paper §IV-C): Scheme 1 spends ~30–40 % less energy per
successfully delivered packet than pure LEACH ("we can achieve about
30-40% [saving]"); pure LEACH's curve *decreases* with load ("sending
more packets per transmission can reduce the radio startup energy
overhead"); and the gap narrows as load grows ("the difference ... will
decrease if we further increase traffic load").
"""

from repro.experiments import fig11_energy_per_packet

from conftest import run_once

LOADS = (5.0, 15.0, 30.0)


def test_fig11_energy_per_packet(benchmark, preset, seeds, executor):
    result = run_once(
        benchmark, fig11_energy_per_packet, preset, seeds, LOADS
    )
    print()
    print(result.render())

    leach = result.series("pure LEACH mJ/pkt")
    s1 = result.series("Scheme 1 mJ/pkt")
    savings = result.series("S1 saving %")
    assert all(v is not None for v in leach + s1 + savings)

    # Scheme 1 saves materially at every load (paper: 30-40%).
    for s in savings:
        assert 15.0 < s < 70.0, f"S1 saving {s:.0f}% out of plausible band"

    # Pure LEACH's per-packet energy must not grow materially with load:
    # burst/overhead amortisation pushes it down (clearly decreasing at
    # the full preset); at CI scale collision waste can offset part of
    # the effect, so the check tolerates a small rise (EXPERIMENTS.md).
    assert leach[-1] < leach[0] * 1.15

    # Known fidelity gap (EXPERIMENTS.md): the paper says the S1-LEACH gap
    # narrows toward saturation; in our substrate LEACH keeps paying for
    # collisions and outage losses at high load, so the saving stays
    # roughly flat instead of shrinking.  Guard against it *exploding*,
    # which would indicate a regression in the baseline.
    assert savings[-1] < savings[0] + 15.0
