"""Multi-seed aggregation: mean, standard deviation, confidence intervals.

Simulation papers report point estimates; we additionally aggregate across
replications (seeds) to state spread alongside means.

The statistics a figure renders (:func:`mean_of`, the fairness stds)
are computed in pure Python by :func:`float_sum`, which adds in numpy's
float64 order, so a process that only re-renders stored runs imports no
numpy and still prints the bytes ``np.mean`` would give.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, List, Optional, Sequence

from ..errors import ExperimentError

__all__ = ["Summary", "float_sum", "mean_of", "summarize"]

#: numpy's pairwise-summation block: longer runs are split in two.
_PAIRWISE_BLOCK = 128


@dataclass(frozen=True)
class Summary:
    """Point estimate + spread for one metric across replications."""

    n: int
    mean: float
    std: float
    ci_low: float
    ci_high: float

    def __str__(self) -> str:
        if self.n == 1:
            return f"{self.mean:.4g}"
        return f"{self.mean:.4g} ± {self.ci_half:.2g} (n={self.n})"

    @property
    def ci_half(self) -> float:
        """Half-width of the confidence interval."""
        return (self.ci_high - self.ci_low) / 2.0


def float_sum(values: Iterable[float]) -> float:
    """``np.asarray(values, dtype=float).sum()``, bit for bit, without numpy.

    numpy adds a contiguous float64 vector pairwise, starting from the
    identity ``0.0``: fewer than 8 terms in order; up to 128 terms in
    eight strided accumulators combined as
    ``((r0+r1)+(r2+r3))+((r4+r5)+(r6+r7))``, then the leftover terms in
    order; more than 128 terms split at ``n//2`` rounded down to a
    multiple of 8, each half recursively.  Float addition is not
    associative, so only this order reproduces numpy's last bit.
    """
    xs = [float(v) for v in values]
    return 0.0 + _pairwise(xs, 0, len(xs))


def _pairwise(xs: List[float], lo: int, n: int) -> float:
    """numpy's pairwise sum of ``xs[lo:lo + n]``."""
    if n < 8:
        acc = 0.0
        for x in xs[lo:lo + n]:
            acc += x
        return acc
    if n <= _PAIRWISE_BLOCK:
        stop = lo + n - n % 8
        r = []
        for j in range(8):
            acc = xs[lo + j]
            for x in xs[lo + 8 + j:stop:8]:
                acc += x
            r.append(acc)
        acc = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]))
        for x in xs[stop:lo + n]:
            acc += x
        return acc
    half = n // 2
    half -= half % 8
    return _pairwise(xs, lo, half) + _pairwise(xs, lo + half, n - half)


def _usable(values: Sequence[Optional[float]]) -> List[float]:
    """The replication values left after dropping None and NaN (censored)."""
    clean = [float(v) for v in values if v is not None and not math.isnan(v)]
    if not clean:
        raise ExperimentError("no usable values to summarize")
    return clean


def mean_of(values: Sequence[Optional[float]]) -> float:
    """The mean :func:`summarize` reports, without its confidence interval."""
    clean = _usable(values)
    return float_sum(clean) / len(clean)


def summarize(values: Sequence[Optional[float]], confidence: float = 0.95) -> Summary:
    """Aggregate replication values (None entries are dropped as censored).

    Uses the Student-t interval, the standard choice for small numbers of
    simulation replications.
    """
    clean = _usable(values)
    if not 0.0 < confidence < 1.0:
        raise ExperimentError("confidence must be in (0, 1)")
    n = len(clean)
    mean = float_sum(clean) / n
    if n == 1:
        return Summary(1, mean, 0.0, mean, mean)
    # Loaded only here: a single-seed render never needs the t quantile.
    import numpy as np
    from scipy import stats

    std = float(np.asarray(clean).std(ddof=1))
    sem = std / math.sqrt(n)
    t = float(stats.t.ppf(0.5 + confidence / 2.0, df=n - 1))
    return Summary(n, mean, std, mean - t * sem, mean + t * sem)
