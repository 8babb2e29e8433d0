"""Link budget: transmit power + path loss + noise floor → mean SNR.

The paper gives transmit power (Table II) but, like most simulation papers
of its era, not the receiver noise figure.  We expose the noise floor as a
single calibrated constant (``ChannelConfig.noise_floor_dbm``, default
−71 dBm) chosen so a typical intra-cluster sensor→cluster-head link
(≈20 m when 5 heads serve the 100 m × 100 m field) sees a mean SNR
around 20 dB, putting the 4 ABICM modes
all in play (DESIGN.md §2).  Helper :func:`calibrate_noise_floor` computes
the floor for any target operating point.
"""

from __future__ import annotations

from ..config import ChannelConfig
from ..errors import ChannelError
from ..units import watts_to_dbm
from .pathloss import LogDistance, PathLossModel

__all__ = ["LinkBudget", "calibrate_noise_floor"]


class LinkBudget:
    """Computes the mean (local-average) SNR of a link at distance d.

    Mean SNR excludes shadowing and fading, which are applied multiplied
    on top by :class:`repro.channel.link.Link`.
    """

    __slots__ = ("pathloss", "tx_power_dbm", "noise_floor_dbm")

    def __init__(
        self,
        pathloss: PathLossModel,
        tx_power_w: float,
        noise_floor_dbm: float,
    ) -> None:
        if tx_power_w <= 0:
            raise ChannelError("tx power must be > 0")
        self.pathloss = pathloss
        self.tx_power_dbm = watts_to_dbm(tx_power_w)
        self.noise_floor_dbm = float(noise_floor_dbm)

    @classmethod
    def from_config(cls, cfg: ChannelConfig) -> "LinkBudget":
        """Build the budget (and default path-loss model) from config."""
        model = LogDistance(
            exponent=cfg.pathloss_exponent,
            ref_loss_db=cfg.pathloss_ref_db,
            ref_distance_m=cfg.pathloss_ref_distance_m,
            min_distance_m=cfg.min_distance_m,
        )
        return cls(model, cfg.tx_power_w, cfg.noise_floor_dbm)

    def mean_snr_db(self, distance_m):
        """Mean SNR in dB at ``distance_m`` (scalar or array)."""
        return self.tx_power_dbm - self.pathloss.loss_db(distance_m) - self.noise_floor_dbm

    def rx_power_dbm(self, distance_m):
        """Mean received power in dBm at ``distance_m``."""
        return self.tx_power_dbm - self.pathloss.loss_db(distance_m)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"LinkBudget(tx={self.tx_power_dbm:.1f} dBm, "
            f"noise={self.noise_floor_dbm:.1f} dBm, {self.pathloss!r})"
        )


def calibrate_noise_floor(
    pathloss: PathLossModel,
    tx_power_w: float,
    reference_distance_m: float,
    target_mean_snr_db: float,
) -> float:
    """Noise floor (dBm) making mean SNR equal the target at a reference distance.

    Used by experiment presets to re-derive the −71 dBm default and by
    ablations that move the operating point.
    """
    tx_dbm = watts_to_dbm(tx_power_w)
    return tx_dbm - pathloss.loss_db(reference_distance_m) - target_mean_snr_db
