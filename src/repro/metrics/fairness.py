"""Short-term fairness metrics (Fig. 12).

The paper's fairness measure: "we can define 'fairness' here as the
standard deviation of queue length" across sensor nodes, sampled at
several snapshots and averaged — homogeneous Poisson sources mean equal
service shares should keep queues statistically identical, so spread in
queue length is spread in service share.  Jain's index is included as the
conventional alternative for the extended experiments.
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence

from ..errors import ExperimentError
from .summary import float_sum

__all__ = ["queue_length_std", "mean_snapshot_std", "jain_index"]


def queue_length_std(queue_lengths: Sequence[float]) -> float:
    """Population standard deviation of one queue-length snapshot.

    Bit for bit ``np.std`` (see :func:`~repro.metrics.summary.float_sum`),
    without importing numpy.
    """
    xs = [float(q) for q in queue_lengths]
    if not xs:
        raise ExperimentError("empty queue snapshot")
    m = float_sum(xs) / len(xs)
    return math.sqrt(float_sum([(x - m) * (x - m) for x in xs]) / len(xs))


def mean_snapshot_std(snapshots: Iterable[Sequence[float]]) -> float:
    """The paper's Fig. 12 statistic: std per snapshot, averaged.

    "In our simulations, we have taken several snapshots of the value
    during the observed time, [and] average them."
    """
    stds = [queue_length_std(snap) for snap in snapshots if len(snap)]
    if not stds:
        raise ExperimentError("no non-empty snapshots")
    return float_sum(stds) / len(stds)


def jain_index(shares: Sequence[float]) -> float:
    """Jain's fairness index (1 = perfectly fair, 1/n = maximally unfair)."""
    import numpy as np

    arr = np.asarray(shares, dtype=float)
    if arr.size == 0:
        raise ExperimentError("empty share vector")
    if np.any(arr < 0):
        raise ExperimentError("shares must be non-negative")
    total = arr.sum()
    if total == 0.0:
        return 1.0  # nobody got anything: degenerately fair
    return float(total ** 2 / (arr.size * (arr ** 2).sum()))
