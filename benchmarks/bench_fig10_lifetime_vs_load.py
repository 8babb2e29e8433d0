"""Fig. 10 — Network lifetime versus traffic load (5–30 pkt/s).

Shape criteria (paper §IV-B): every curve decreases with load ("more
packet transmissions speed up a sensor's energy consumption"); Scheme 2
achieves the longest lifetime throughout; and the Scheme 1 vs pure LEACH
gap closes as the network saturates ("the difference ... becomes
invisible" because Scheme 1 is forced to the lowest threshold and turns
into a non-channel-adaptive protocol).
"""

import numpy as np

from repro.experiments import fig10_lifetime_vs_load

from conftest import run_once

LOADS = (5.0, 15.0, 30.0)  # decimated sweep keeps the bench affordable


def test_fig10_lifetime_vs_load(benchmark, preset, seeds, executor):
    result = run_once(
        benchmark, fig10_lifetime_vs_load, preset, seeds, LOADS
    )
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
    for l, a, b in zip(leach, s1, s2):
        assert b >= a * 0.95 and b > l

    # The S1-LEACH relative gap shrinks from light load to saturation.
    gap_light = s1[0] / leach[0] - 1.0
    gap_heavy = s1[-1] / leach[-1] - 1.0
    print(f"S1 gap over LEACH: {gap_light:+.0%} at {LOADS[0]} pkt/s -> "
          f"{gap_heavy:+.0%} at {LOADS[-1]} pkt/s (paper: gap becomes invisible)")
    assert gap_heavy < gap_light
