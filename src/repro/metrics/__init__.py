"""Metrics: the paper's evaluation quantities and extended diagnostics."""

from .collectors import TimeSeriesCollector
from .energy import energy_per_delivered_packet_j, energy_share, mean_remaining_energy_j
from .fairness import jain_index, mean_snapshot_std, queue_length_std
from .lifetime import death_spread_s, first_death_s, last_death_s, network_lifetime_s
from .performance import (
    aggregate_throughput_bps,
    delay_percentile_s,
    delivery_rate,
    mean_delay_s,
)
from .summary import Summary, mean_of, summarize

__all__ = [
    "TimeSeriesCollector",
    "mean_remaining_energy_j",
    "energy_per_delivered_packet_j",
    "energy_share",
    "queue_length_std",
    "mean_snapshot_std",
    "jain_index",
    "network_lifetime_s",
    "first_death_s",
    "last_death_s",
    "death_spread_s",
    "mean_delay_s",
    "delay_percentile_s",
    "aggregate_throughput_bps",
    "delivery_rate",
    "Summary",
    "mean_of",
    "summarize",
]
