"""Network-lifetime metrics (Figs. 9–10).

The paper: "we further call a network 'dead' if the percentage of nodes
exhausted exceeds [the threshold]" — the number is lost in the scan; we
default to 80 % and expose it everywhere (LEACH's rotation makes the
die-off so abrupt that the choice barely moves the metric, which the tests
verify on real runs).
"""

from __future__ import annotations

import math
from typing import Optional, Sequence

from ..errors import ExperimentError

__all__ = [
    "dead_threshold",
    "network_lifetime_s",
    "first_death_s",
    "last_death_s",
    "death_spread_s",
]


def dead_threshold(n_nodes: int, dead_fraction: float) -> int:
    """Exhausted nodes at which the network counts as dead.

    The dead fraction must *exceed* ``dead_fraction``: floor(f·n) + 1
    nodes.  With ``dead_fraction == 1`` the fraction can never exceed
    it; dying out completely is what we mean, so all ``n_nodes``.
    """
    if n_nodes <= 0:
        raise ExperimentError("n_nodes must be > 0")
    if not 0.0 < dead_fraction <= 1.0:
        raise ExperimentError("dead fraction must be in (0, 1]")
    if dead_fraction >= 1.0:
        return n_nodes
    return math.floor(dead_fraction * n_nodes) + 1


def _sorted_death_times(death_times: Sequence[Optional[float]]):
    return sorted(t for t in death_times if t is not None)


def network_lifetime_s(
    death_times: Sequence[Optional[float]],
    n_nodes: int,
    dead_fraction: float = 0.8,
) -> Optional[float]:
    """Time at which the dead fraction first *exceeds* the threshold.

    ``death_times`` holds one entry per node (None = still alive at the
    end of the run).  Returns None when the network never died (censored
    observation — the caller should extend the horizon).
    """
    needed = dead_threshold(n_nodes, dead_fraction)
    deaths = _sorted_death_times(death_times)
    if len(deaths) < needed:
        return None
    return deaths[needed - 1]


def first_death_s(death_times: Sequence[Optional[float]]) -> Optional[float]:
    """Time of the first node exhaustion (None if nobody died)."""
    deaths = _sorted_death_times(death_times)
    return deaths[0] if deaths else None


def last_death_s(death_times: Sequence[Optional[float]]) -> Optional[float]:
    """Time of the last observed exhaustion (None if nobody died)."""
    deaths = _sorted_death_times(death_times)
    return deaths[-1] if deaths else None


def death_spread_s(death_times: Sequence[Optional[float]]) -> Optional[float]:
    """Last minus first death — the paper's "quite short" die-off window."""
    deaths = _sorted_death_times(death_times)
    if len(deaths) < 2:
        return None
    return deaths[-1] - deaths[0]
