"""Multi-seed aggregation: mean, standard deviation, confidence intervals.

Simulation papers report point estimates; we additionally aggregate across
replications (seeds) so EXPERIMENTS.md can state spread alongside means.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from ..errors import ExperimentError

__all__ = ["Summary", "mean_of", "summarize"]


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


def _usable(values: Sequence[Optional[float]]) -> np.ndarray:
    """The replication values left after dropping None and NaN (censored)."""
    clean = [v for v in values if v is not None and not math.isnan(v)]
    if not clean:
        raise ExperimentError("no usable values to summarize")
    return np.asarray(clean, dtype=float)


def mean_of(values: Sequence[Optional[float]]) -> float:
    """The mean :func:`summarize` reports, without its confidence interval."""
    return float(_usable(values).mean())


def summarize(values: Sequence[Optional[float]], confidence: float = 0.95) -> Summary:
    """Aggregate replication values (None entries are dropped as censored).

    Uses the Student-t interval, the standard choice for small numbers of
    simulation replications.
    """
    arr = _usable(values)
    if not 0.0 < confidence < 1.0:
        raise ExperimentError("confidence must be in (0, 1)")
    n = arr.size
    mean = float(arr.mean())
    if n == 1:
        return Summary(1, mean, 0.0, mean, mean)
    # Loaded only here: a single-seed render never needs the t quantile.
    from scipy import stats

    std = float(arr.std(ddof=1))
    sem = std / math.sqrt(n)
    t = float(stats.t.ppf(0.5 + confidence / 2.0, df=n - 1))
    return Summary(n, mean, std, mean - t * sem, mean + t * sem)
