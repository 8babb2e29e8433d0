"""Radio energy model: named power draws (Table II).

Centralises the mapping from radio activity to power so the MAC and node
logic never hard-code watts.  Causes (the accounting categories used by
Fig. 11's energy-per-packet metric and the meter breakdowns):

==============  =============================================================
cause           meaning
==============  =============================================================
``data_tx``     data radio transmitting a burst
``data_rx``     data radio receiving (cluster head side)
``startup``     data radio sleep→active synthesizer lock
``tone_tx``     tone radio broadcasting pulses (cluster head)
``tone_rx``     tone radio monitoring (sensor waiting/measuring CSI)
``ch_idle``     cluster-head data radio idling between receptions
``sleep``       baseline draw of a sleeping node
``uplink_tx``   head transmitting a relay burst on the long-haul channel
``uplink_rx``   head (or relay) receiving a long-haul burst
==============  =============================================================

The two ``uplink_*`` causes draw the same power as their cluster-hop
counterparts (one data radio, retuned to the orthogonal long-haul
frequency) but are ledgered separately so the uplink energy split is
visible in breakdowns; with routing disabled they never appear.
"""

from __future__ import annotations

from ..config import EnergyConfig
from ..errors import EnergyError

__all__ = ["RadioEnergyModel", "CAUSES"]

CAUSES = (
    "data_tx",
    "data_rx",
    "startup",
    "tone_tx",
    "tone_rx",
    "ch_idle",
    "sleep",
    "uplink_tx",
    "uplink_rx",
)


class RadioEnergyModel:
    """Power lookup + simple energy helpers derived from :class:`EnergyConfig`.

    ``uplink_tx_power_w`` prices the long-haul TX cause; it defaults to
    the cluster-hop TX power and is overridden by the network layer from
    :class:`~repro.config.RoutingConfig` when the uplink tier is enabled.
    """

    __slots__ = ("cfg", "_power")

    def __init__(
        self, cfg: EnergyConfig, uplink_tx_power_w: float | None = None
    ) -> None:
        self.cfg = cfg
        self._power = {
            "data_tx": cfg.data_tx_power_w,
            "data_rx": cfg.data_rx_power_w,
            "startup": cfg.startup_power_w,
            "tone_tx": cfg.tone_tx_power_w,
            "tone_rx": cfg.tone_rx_power_w,
            "ch_idle": cfg.ch_idle_power_w,
            "sleep": cfg.sleep_power_w,
            "uplink_tx": (
                cfg.data_tx_power_w
                if uplink_tx_power_w is None
                else float(uplink_tx_power_w)
            ),
            "uplink_rx": cfg.data_rx_power_w,
        }

    def power_w(self, cause: str) -> float:
        """Power draw for an accounting cause."""
        try:
            return self._power[cause]
        except KeyError:
            raise EnergyError(
                f"unknown energy cause {cause!r}; have {sorted(self._power)}"
            ) from None

    def energy_j(self, cause: str, duration_s: float) -> float:
        """Energy for holding ``cause`` for ``duration_s`` seconds."""
        if duration_s < 0:
            raise EnergyError("duration must be >= 0")
        return self.power_w(cause) * duration_s

    @property
    def startup_energy_j(self) -> float:
        """One sleep→active transition of the data radio."""
        return self.cfg.startup_power_w * self.cfg.startup_time_s

    def tx_energy_j(self, airtime_s: float) -> float:
        """Transmit energy for a burst of the given airtime."""
        return self.energy_j("data_tx", airtime_s)
