"""Experiment presets: paper-scale ("full") and CI-scale ("quick").

``full`` reproduces Table II exactly: 100 nodes, 10 J batteries, 20 s
rounds — each lifetime run simulates hundreds to thousands of seconds.
``quick`` keeps every protocol mechanism identical but shrinks the world
(30 nodes, 2 J, 10 s rounds) so the paper-claim tests finish in under a
minute; because all protocols shrink together, the paper's orderings and
ratios are expected to hold.  ``tests/test_paper_claims.py`` checks them
at quick (``pytest -m paper``); no test checks them at full.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

from ..config import EnergyConfig, LeachConfig, NetworkConfig, Protocol
from ..errors import ExperimentError

__all__ = ["Preset", "PRESETS", "preset_config", "get_preset"]


@dataclass(frozen=True)
class Preset:
    """Scaling knobs for one experiment tier."""

    name: str
    n_nodes: int
    initial_energy_j: float
    round_duration_s: float
    #: Horizon for fixed-window runs (fig8-style curves).
    energy_horizon_s: float
    #: Horizon cap for run-to-death experiments (fig9/fig10).
    lifetime_horizon_s: float
    #: Metric sampling cadence.
    sample_interval_s: float
    #: Steady-state window for rate metrics (fig11/fig12/ext-perf).
    rate_horizon_s: float

    def config(
        self,
        protocol: Protocol,
        load_pps: float = 5.0,
        seed: int = 1,
    ) -> NetworkConfig:
        """A NetworkConfig for this tier."""
        base = NetworkConfig(
            n_nodes=self.n_nodes,
            protocol=protocol,
            seed=seed,
            energy=dataclasses.replace(
                EnergyConfig(), initial_energy_j=self.initial_energy_j
            ),
            leach=dataclasses.replace(
                LeachConfig(), round_duration_s=self.round_duration_s
            ),
        )
        return base.with_traffic(packets_per_second=load_pps)


#: Paper scale: Table II verbatim.
FULL = Preset(
    name="full",
    n_nodes=100,
    initial_energy_j=10.0,
    round_duration_s=20.0,
    energy_horizon_s=600.0,
    lifetime_horizon_s=3000.0,
    sample_interval_s=10.0,
    rate_horizon_s=120.0,
)

#: CI scale: same mechanisms, ~25x cheaper.
QUICK = Preset(
    name="quick",
    n_nodes=30,
    initial_energy_j=2.0,
    round_duration_s=10.0,
    energy_horizon_s=120.0,
    lifetime_horizon_s=700.0,
    sample_interval_s=2.0,
    rate_horizon_s=40.0,
)

#: Smoke scale for unit tests of the harness itself.
SMOKE = Preset(
    name="smoke",
    n_nodes=12,
    initial_energy_j=0.5,
    round_duration_s=5.0,
    energy_horizon_s=30.0,
    lifetime_horizon_s=200.0,
    sample_interval_s=1.0,
    rate_horizon_s=15.0,
)

PRESETS = {p.name: p for p in (FULL, QUICK, SMOKE)}


def get_preset(name: str) -> Preset:
    """Look up a preset by name."""
    try:
        return PRESETS[name]
    except KeyError:
        raise ExperimentError(
            f"unknown preset {name!r}; have {sorted(PRESETS)}"
        ) from None


def preset_config(
    preset: str, protocol: Protocol, load_pps: float = 5.0, seed: int = 1
) -> NetworkConfig:
    """Convenience: ``get_preset(preset).config(...)``."""
    return get_preset(preset).config(protocol, load_pps, seed)
