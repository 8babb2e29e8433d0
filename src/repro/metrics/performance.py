"""Network-performance metrics (paper §IV, long-version set).

The paper defines three performance aspects and defers their plots to the
long version: average packet delay, aggregate network throughput, and
successful packet delivery rate.  We implement and report all three in
the ``ext-perf`` experiment.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

import numpy as np

from ..errors import ExperimentError

if TYPE_CHECKING:
    from ..network import SensorNetwork

__all__ = [
    "mean_delay_s",
    "delay_percentile_s",
    "aggregate_throughput_bps",
    "delivery_rate",
]


def mean_delay_s(network: SensorNetwork) -> float:
    """"the time duration for a packet transmitted from its source to the
    sink (including queuing and [transmission] time)" — averaged."""
    return network.stats.mean_delay_s()


def delay_percentile_s(network: SensorNetwork, q: float) -> Optional[float]:
    """Delay percentile (q in [0, 100]); None before any delivery."""
    if not 0 <= q <= 100:
        raise ExperimentError("percentile must be in [0, 100]")
    delays = network.stats.delays_s
    if not delays:
        return None
    return float(np.percentile(np.asarray(delays), q))


def aggregate_throughput_bps(network: SensorNetwork, elapsed_s: float) -> float:
    """"the average number of data packets arriving at their destinations
    per second in the whole network, measured in kbps" (we return bps)."""
    if elapsed_s <= 0:
        raise ExperimentError("elapsed time must be > 0")
    return network.stats.delivered_bits / elapsed_s


def delivery_rate(network: SensorNetwork) -> Optional[float]:
    """"the ratio of the number of packets successfully received by sinks
    to the total number of packets generated"; None before any traffic."""
    generated = network.generated_packets()
    if generated == 0:
        return None
    return network.stats.total_delivered / generated
