"""A fixed reference workload that calibrates timings against machine speed.

The benchmark runs on shared hosts whose effective CPU speed drifts by up
to ~2x over minutes, as other tenants load the physical cores.  Drift
shows in every timing of a run alike, so the run also times
:func:`reference` — a fixed mix of interpreter work (a heap-driven event
loop, like the event kernel) and array work (masked updates on 10^4
elements, like the vector engine) — between its measured calls, on the
same CPU, and reports each timing as

    calibrated = wall * REFERENCE_S / (median reference time of the run)

that is, the time the call would take on a machine where the reference
takes ``REFERENCE_S``.  One factor per run: a single reference time is
too noisy to calibrate a single call, while the drift within a run is
small.  The reference is part of the benchmark, never of the program, so
a change to the program moves calibrated times exactly as it moves wall
times; only the machine's drift divides out.
"""

from __future__ import annotations

import heapq
import math
import statistics
import time

import numpy as np

#: The reference's median wall time between measured calls on the machine
#: the benchmark was tuned on (2 vCPUs of an Intel Xeon host, Python 3.11,
#: numpy 2.4), in a quiet state.
REFERENCE_S = 0.018

_HEAP_OPS = 18_000
_ARRAY_STEPS = 40
_A0 = np.random.default_rng(20050101).random(10_000)


def _interpreter_work() -> float:
    heap, acc = [], 0.0
    for i in range(_HEAP_OPS):
        heapq.heappush(heap, ((i * 7919) % 1009, i))
        if len(heap) > 64:
            t, j = heapq.heappop(heap)
            acc += math.sqrt(t + j)
    return acc


def _array_work() -> float:
    a = _A0
    for _ in range(_ARRAY_STEPS):
        low = a < 0.5
        a = np.where(low, a * 1.5, a * 0.5) + 0.01
        a = np.sort(a[np.argsort(-a, kind="stable")])
    return float(a.sum())


def reference() -> float:
    """Run the reference once; its wall time in seconds."""
    t0 = time.perf_counter()
    _interpreter_work()
    _array_work()
    return time.perf_counter() - t0


def settled_reference() -> float:
    """The reference's time once its code and data are back in cache.

    The first run after another process has had the CPU reads high, so
    it is discarded and the median of the next three is returned.
    """
    reference()
    return statistics.median(reference() for _ in range(3))


def calibration(refs) -> float:
    """The factor that scales wall times taken among ``refs`` to the
    reference machine."""
    return REFERENCE_S / statistics.median(refs)
