"""The paper's tables, regenerated from the live configuration objects.

* Table I — tone-channel pulse pattern per data-channel state;
* Table II — physical simulation parameters.

Regenerating them from :mod:`repro.config` (rather than hard-coding
strings) means any drift between code defaults and documented parameters
fails the table tests.
"""

from __future__ import annotations

from typing import List

from ..api import experiment
from ..config import NetworkConfig
from .figures import FigureResult

__all__ = ["table1_tone_spec", "table2_parameters"]


@experiment("table1", kind="table",
            summary="Tone-channel pulse pattern per data-channel state")
def table1_tone_spec(cfg: NetworkConfig | None = None) -> FigureResult:
    """Table I: "using different pulse intervals to identify channel states"."""
    from ..mac.tone import ToneChannelSpec

    cfg = cfg or NetworkConfig()
    spec = ToneChannelSpec(cfg.tone)
    result = FigureResult(
        figure_id="table1",
        title="Tone channel: pulse duration/period per data-channel state",
        x_label="channel state",
        headers=["state", "pulse duration (ms)", "pulse period (ms)",
                 "duty cycle"],
        notes="'transmit' (CH→BS relay) is defined but never emitted — out "
              "of the paper's scope",
    )
    for row in spec.rows():
        result.rows.append([
            row.kind.value,
            row.duration_s * 1e3,
            None if row.period_s is None else row.period_s * 1e3,
            row.duty_cycle,
        ])
    return result


@experiment("table2", kind="table",
            summary="Physical simulation parameters (live defaults)")
def table2_parameters(cfg: NetworkConfig | None = None) -> FigureResult:
    """Table II: physical simulation parameters (live defaults)."""
    cfg = cfg or NetworkConfig()
    result = FigureResult(
        figure_id="table2",
        title="Physical simulation parameters",
        x_label="parameter",
        headers=["parameter", "value"],
    )
    rows: List[List] = [
        ["Testing field", f"{cfg.field_size_m:.0f} m × {cfg.field_size_m:.0f} m"],
        ["Number of nodes", cfg.n_nodes],
        ["Bandwidth (ABICM modes)",
         " / ".join(f"{r/1e6:g} Mbps" if r >= 1e6 else f"{r/1e3:g} kbps"
                    for r in reversed(cfg.phy.rates_bps))],
        ["Percentage of CH", f"{cfg.leach.ch_fraction * 100:g}%"],
        ["Transmit power (data)", f"{cfg.energy.data_tx_power_w} W"],
        ["Receive power (data)", f"{cfg.energy.data_rx_power_w} W"],
        ["Sleep power (data)", f"{cfg.energy.sleep_power_w * 1e3:g} mW"],
        ["Transmit power (tone)", f"{cfg.energy.tone_tx_power_w * 1e3:g} mW"],
        ["Receive power (tone)", f"{cfg.energy.tone_rx_power_w * 1e3:g} mW"],
        ["Packet length", f"{cfg.phy.packet_length_bits / 1e3:g} kbit"],
        ["Sensing delay", f"{cfg.tone.sensing_delay_s * 1e3:g} ms"],
        ["Contention window size", cfg.mac.contention_window],
        ["Buffer size", f"{cfg.traffic.buffer_packets} packets"],
        ["Radio startup time", f"{cfg.energy.startup_time_s * 1e6:g} µs"],
        ["Burst size", f"{cfg.mac.min_burst_packets}–{cfg.mac.max_burst_packets} packets"],
        ["Max retransmissions", cfg.mac.max_retries],
        ["Initial battery energy", f"{cfg.energy.initial_energy_j:g} J"],
        ["LEACH round duration", f"{cfg.leach.round_duration_s:g} s"],
    ]
    result.rows = rows
    return result
