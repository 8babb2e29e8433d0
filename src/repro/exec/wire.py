"""Scenario wire format for the distributed executor.

Every scenario is fully specified by its ``(NetworkConfig, RunOptions)``
pair and the simulator is deterministic, so shipping those two dicts to
a remote worker and running ``simulate`` there produces a bit-identical
:class:`~repro.results.RunResult` to running locally — the property the
whole distributed backend leans on.  Results come back as
``RunResult.to_dict()`` payloads, which round-trip exactly through
``RunResult.from_dict``, so stored rows are byte-identical at any worker
count.

Scenario ``tags`` deliberately do not cross the wire: they may hold
non-JSON values (``Protocol`` enums, callables) and they never influence
the simulation — they are caller-side bookkeeping, re-attached by the
coordinator when results settle.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Dict

from ..api.engine import RunOptions
from ..api.scenario import Scenario
from ..config import NetworkConfig

__all__ = ["scenario_to_wire", "scenario_from_wire"]


def scenario_to_wire(scenario: Scenario) -> Dict[str, Any]:
    """JSON-safe payload a remote worker can rebuild the scenario from."""
    return {
        "config": scenario.config.to_dict(),
        "options": dataclasses.asdict(scenario.options),
        "describe": scenario.describe(),
    }


def scenario_from_wire(data: Dict[str, Any]) -> Scenario:
    return Scenario(
        config=NetworkConfig.from_dict(data["config"]),
        options=RunOptions(**data["options"]),
    )
