"""Experiment harness: presets and the paper's figures/tables.

The figures and tables defined here are published through the
:mod:`repro.api` experiment registry — decorate any new study with
``@repro.api.experiment("name")`` and it immediately appears in
``repro-caem list`` / ``repro-caem run <name>`` alongside the built-ins
(fig8–fig12, table1–table2, ext-perf).  Execution goes through
:class:`repro.api.Scenario` grids and :func:`repro.api.run_scenarios`,
so every experiment runs under whatever executor the caller installed
with :func:`repro.api.use_executor` (serial when none is) and through
whatever run cache it installed; :func:`repro.service.replay` re-renders
any of them from a result store without simulating.
A single run goes through :func:`repro.api.simulate`.
"""

from .figures import (
    DEFAULT_LOADS_PPS,
    FigureResult,
    ext_performance,
    fig8_remaining_energy,
    fig9_nodes_alive,
    fig10_lifetime_vs_load,
    fig11_energy_per_packet,
    fig12_queue_stddev,
)
from .presets import PRESETS, Preset, get_preset, preset_config
from .report import render_table, write_csv
from .dynamics import ext_dynamics
from .tables import table1_tone_spec, table2_parameters
from .uplink import ext_uplink

__all__ = [
    "FigureResult",
    "fig8_remaining_energy",
    "fig9_nodes_alive",
    "fig10_lifetime_vs_load",
    "fig11_energy_per_packet",
    "fig12_queue_stddev",
    "ext_performance",
    "DEFAULT_LOADS_PPS",
    "Preset",
    "PRESETS",
    "get_preset",
    "preset_config",
    "render_table",
    "write_csv",
    "table1_tone_spec",
    "table2_parameters",
    "ext_uplink",
    "ext_dynamics",
]
