"""Extended — the long-version network-performance metrics.

The paper defines average packet delay, aggregate throughput and
successful delivery rate (§IV-A) but defers their plots to the long
version (unavailable).  This bench regenerates them and checks the
orderings the paper's prose implies: Scheme 2 trades the worst delay and
delivery for its energy crown; pure LEACH has the lowest delay (no
gating); throughput grows with offered load until saturation.
"""

from repro.experiments import ext_performance

from conftest import run_once

LOADS = (5.0, 20.0)


def test_ext_performance(benchmark, preset, seeds, executor):
    result = run_once(benchmark, ext_performance, preset, seeds, LOADS)
    print()
    print(result.render())

    delay_leach = result.series("pure LEACH delay_ms")
    delay_s2 = result.series("Scheme 2 delay_ms")
    tput_leach = result.series("pure LEACH tput_kbps")
    rate_leach = result.series("pure LEACH delivery")
    rate_s1 = result.series("Scheme 1 delivery")

    # Gating costs latency below saturation: Scheme 2 waits for fades,
    # LEACH never waits.  (At/-beyond saturation LEACH's own queueing and
    # collision delays can overtake — see EXPERIMENTS.md — so the ordering
    # is only asserted at the light-load point.)
    assert delay_s2[0] > delay_leach[0]

    # More offered load moves more bits (below saturation collapse).
    assert tput_leach[-1] > tput_leach[0]

    # Delivery rates are proper ratios and not degenerate.
    for r in rate_leach + rate_s1:
        assert 0.2 < r <= 1.0
