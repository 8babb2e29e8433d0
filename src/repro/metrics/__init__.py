"""Metrics: the paper's evaluation quantities and extended diagnostics.

The per-run quantities (lifetime, energy per packet, delay, throughput,
delivery rate) are derived from each engine's measurements in one place,
:func:`repro.api.engine.derive`; this package holds the rules they share
and the cross-run statistics.
"""

from .collectors import TimeSeriesCollector
from .fairness import jain_index, mean_snapshot_std, queue_length_std
from .lifetime import (
    dead_threshold,
    death_spread_s,
    first_death_s,
    last_death_s,
    network_lifetime_s,
)
from .summary import Summary, mean_of, summarize

__all__ = [
    "TimeSeriesCollector",
    "queue_length_std",
    "mean_snapshot_std",
    "jain_index",
    "dead_threshold",
    "network_lifetime_s",
    "first_death_s",
    "last_death_s",
    "death_spread_s",
    "Summary",
    "mean_of",
    "summarize",
]
