"""Fig. 12 — Standard deviation of queue length versus load.

The paper's short-term fairness metric, with buffers "substantially
large enough to accommodate all generated packets".  Shape criteria:
σ(queue) grows with load for every protocol; Scheme 2 (fixed 2 Mbps
gate) is much less fair than Scheme 1 at moderate/heavy load; Scheme 1
stays comparable to (or better than) the ungated baseline — "Scheme 1
exhibits a higher level of fairness in bandwidth allocation".
"""

from repro.experiments import fig12_queue_stddev

from conftest import run_once

LOADS = (5.0, 15.0, 30.0)


def test_fig12_queue_stddev(benchmark, preset, seeds, executor):
    result = run_once(
        benchmark, fig12_queue_stddev, preset, seeds, LOADS
    )
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
