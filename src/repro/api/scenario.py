"""Fluent scenario builder: *what* to simulate plus *how* to observe it.

A :class:`Scenario` bundles a validated :class:`~repro.config.NetworkConfig`
with the run options (:class:`~repro.api.engine.RunOptions`) and optional
free-form tags.  Scenarios are frozen — every ``with_*`` method returns a
new object — so they are safe to fan out across processes and to reuse as
grid templates:

>>> from repro.api import Scenario
>>> from repro.config import Protocol
>>> s = (Scenario.from_preset("smoke", Protocol.CAEM_ADAPTIVE)
...      .with_load(10.0).with_seed(3).with_runtime(horizon_s=20.0))
>>> s.config.traffic.packets_per_second
10.0
>>> result = s.run()  # doctest: +SKIP
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Any, Dict, Mapping

from ..config import NetworkConfig, Protocol
from ..errors import ExperimentError
from .engine import RunOptions, simulate
from .result import RunResult

__all__ = ["Scenario"]

#: NetworkConfig sub-config sections addressable via :meth:`Scenario.with_sub`.
_SECTIONS = (
    "channel", "phy", "energy", "tone", "mac", "leach", "traffic", "policy",
    "routing", "dynamics",
)


@dataclass(frozen=True)
class Scenario:
    """One fully specified, independently executable simulation run."""

    config: NetworkConfig = field(default_factory=NetworkConfig)
    options: RunOptions = field(default_factory=RunOptions)
    #: Free-form labels (experiment name, grid coordinates, ...) carried
    #: along for bookkeeping; never consulted by the engine.
    tags: Mapping[str, Any] = field(default_factory=dict)

    # -- constructors ----------------------------------------------------------

    @classmethod
    def from_preset(
        cls,
        preset: str,
        protocol: Protocol = Protocol.CAEM_ADAPTIVE,
        load_pps: float = 5.0,
        seed: int = 1,
    ) -> "Scenario":
        """Build from an experiment tier ("full" / "quick" / "smoke").

        Run options default to the tier's fixed-window horizon and sample
        cadence; override with :meth:`with_runtime`.
        """
        from ..experiments.presets import get_preset

        tier = get_preset(preset)
        return cls(
            config=tier.config(protocol, load_pps, seed),
            options=RunOptions(
                horizon_s=tier.energy_horizon_s,
                sample_interval_s=tier.sample_interval_s,
            ),
            tags={"preset": preset},
        )

    # -- config overrides (each returns a new Scenario) ------------------------

    def with_(self, **changes: Any) -> "Scenario":
        """Replace top-level :class:`NetworkConfig` fields (n_nodes, ...)."""
        return dataclasses.replace(self, config=self.config.with_(**changes))

    def with_sub(self, section: str, **changes: Any) -> "Scenario":
        """Replace fields of one config section, e.g. ``with_sub("mac", max_retries=2)``."""
        if section not in _SECTIONS:
            raise ExperimentError(
                f"unknown config section {section!r}; have {_SECTIONS}"
            )
        current = getattr(self.config, section)
        fields = tuple(f.name for f in dataclasses.fields(current))
        for name in changes:
            if name not in fields:
                raise ExperimentError(
                    f"unknown {section} field {name!r}; have {fields}"
                )
        sub = dataclasses.replace(current, **changes)
        return dataclasses.replace(
            self, config=self.config.with_(**{section: sub})
        )

    def with_traffic(self, **changes: Any) -> "Scenario":
        """Replace traffic fields (``packets_per_second``, ``buffer_packets``, ...)."""
        return self.with_sub("traffic", **changes)

    def with_protocol(self, protocol: Protocol) -> "Scenario":
        """Run a different protocol on an otherwise identical scenario."""
        return self.with_(protocol=protocol)

    def with_dynamics(self, **changes: Any) -> "Scenario":
        """Inject network dynamics (``failure_rate_hz``,
        ``battery_jitter``, ``regime_mean_interval_s``, ...); see
        :class:`~repro.config.DynamicsConfig`."""
        return self.with_sub("dynamics", **changes)

    def with_seed(self, seed: int) -> "Scenario":
        """Re-seed the master RNG (every stream derives from this)."""
        return self.with_(seed=seed)

    def with_load(self, packets_per_second: float) -> "Scenario":
        """Set the per-node offered load."""
        return self.with_traffic(packets_per_second=packets_per_second)

    def with_runtime(self, **changes: Any) -> "Scenario":
        """Replace run options: ``horizon_s``, ``sample_interval_s``,
        ``stop_when_dead``, ``collect_queues``."""
        return dataclasses.replace(
            self, options=dataclasses.replace(self.options, **changes)
        )

    def tagged(self, **tags: Any) -> "Scenario":
        """Attach/override bookkeeping tags."""
        merged: Dict[str, Any] = {**self.tags, **tags}
        return dataclasses.replace(self, tags=merged)

    # -- execution -------------------------------------------------------------

    def run(self, tracer=None) -> RunResult:
        """Execute this scenario in-process and return its record."""
        return simulate(self.config, self.options, tracer=tracer)

    # -- introspection ---------------------------------------------------------

    def describe(self) -> str:
        """One-line human summary (used by cell events and failure reports)."""
        c = self.config
        return (
            f"{c.protocol.value} n={c.n_nodes} "
            f"load={c.traffic.packets_per_second:g}pps seed={c.seed} "
            f"horizon={self.options.horizon_s:g}s"
        )
