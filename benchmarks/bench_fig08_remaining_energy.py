"""Fig. 8 — Average remaining power versus time.

Paper setup: 100 nodes, 10 J initial energy, 5 pkt/s per node, elapsed
time 0–600 s.  Shape criterion (DESIGN.md §4): the decline rate orders
pure LEACH > Scheme 1 > Scheme 2 — channel-adaptive gating saves energy,
the adaptive threshold gives part of it back for fairness.
"""

import numpy as np

from repro.experiments import fig8_remaining_energy

from conftest import run_once


def test_fig8_remaining_energy(benchmark, preset, seeds, executor):
    result = run_once(benchmark, fig8_remaining_energy, preset, seeds)
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

    # The gap must be material, not noise (paper: 'can greatly reduce').
    consumed_leach = leach[0] - leach[-1]
    consumed_s1 = s1[0] - s1[-1]
    assert consumed_s1 < 0.9 * consumed_leach
