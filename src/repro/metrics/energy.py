"""Energy metrics (Figs. 8, 11).

* Fig. 8 — "average remaining power versus time": mean battery level over
  all deployed nodes (dead nodes count 0, as in the paper's monotone
  curves).
* Fig. 11 — "average energy consumed for successfully transmitting one
  data packet": total network energy drawn divided by packets delivered
  over the air.  Local (head-to-itself) aggregation is excluded from the
  denominator by default because it costs no radio energy and would
  flatter every protocol equally.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Optional

from ..errors import ExperimentError

if TYPE_CHECKING:
    from ..network import SensorNetwork

__all__ = ["mean_remaining_energy_j", "energy_per_delivered_packet_j", "energy_share"]


def mean_remaining_energy_j(network: SensorNetwork) -> float:
    """Fig. 8's y-axis at the current instant."""
    return network.mean_remaining_j()


def energy_per_delivered_packet_j(
    network: SensorNetwork, include_local: bool = False
) -> Optional[float]:
    """Fig. 11's y-axis over the run so far (None before any delivery)."""
    delivered = network.stats.delivered
    if include_local:
        delivered += network.stats.delivered_local
    if delivered == 0:
        return None
    return network.total_consumed_j() / delivered


def energy_share(network: SensorNetwork) -> Dict[str, float]:
    """Per-cause fraction of total consumption (ablation diagnostics)."""
    breakdown = network.energy_breakdown()
    total = sum(breakdown.values())
    if total <= 0.0:
        raise ExperimentError("no energy consumed yet")
    return {cause: joules / total for cause, joules in breakdown.items()}
