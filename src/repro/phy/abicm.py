"""The 4-mode ABICM adaptive physical layer (paper §II-B, §III-C).

"In our study, we use a 4-mode ABICM configuration and, thus, there are
four distinct possible throughput levels: 2 Mbps, 1 Mbps, 450 kbps, and
250 kbps, respectively (after adaptive channel coding and modulation)."

Mode composition (symbol rate fixed at 500 ksym/s so the paper's
throughputs come out exactly):

====  ==========  ============  ==========
mode  throughput  modulation    FEC
====  ==========  ============  ==========
 4    2 Mbps      16-QAM        uncoded
 3    1 Mbps      QPSK          uncoded
 2    450 kbps    QPSK          conv r=0.45
 1    250 kbps    BPSK          conv r=1/2
====  ==========  ============  ==========

Switching thresholds are **derived from the BER model** so that, at the
threshold, the post-decoding bit-error rate equals ``PhyConfig.target_ber``
(default 1e-5 ⇒ ≈2 % packet-error rate for 2 kbit packets right at the
threshold; PER falls steeply above it).  Explicit thresholds can be pinned
via ``PhyConfig.mode_thresholds_db`` for ablations.

The *transmitter-side* rule (burst-by-burst adaptation): given measured CSI
γ, use the highest mode whose threshold is ≤ γ; below the lowest threshold
the link is in outage — CAEM waits, pure LEACH transmits anyway in mode 1
and eats the resulting packet-error rate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

from ..config import PhyConfig
from ..errors import PhyError
from ..units import db_to_linear, linear_to_db
from .coding import RATE_0_45, RATE_1_2, UNCODED, ConvolutionalCode
from .modulation import BPSK, QAM16, QPSK, Modulation

__all__ = ["AbicmMode", "AbicmTable", "solve_threshold_db", "DEFAULT_SYMBOL_RATE"]

#: Symbol rate shared by all modes (makes the paper's rates exact).
DEFAULT_SYMBOL_RATE = 500e3

#: Default (modulation, code) per ascending throughput.
_DEFAULT_LADDER: Tuple[Tuple[Modulation, ConvolutionalCode], ...] = (
    (BPSK, RATE_1_2),
    (QPSK, RATE_0_45),
    (QPSK, UNCODED),
    (QAM16, UNCODED),
)


@dataclass(frozen=True)
class AbicmMode:
    """One operating point of the adaptive PHY."""

    index: int  # 1-based, ascending throughput
    throughput_bps: float
    modulation: Modulation
    code: ConvolutionalCode
    threshold_db: float  # minimum channel SNR to select this mode

    def snr_per_bit_linear(self, channel_snr_db: float) -> float:
        """Per-information-bit SNR (with coding gain) from channel SNR.

        At fixed symbol rate, energy per symbol splits over
        ``bits_per_symbol·rate`` information bits; the code's gain then
        shifts the effective SNR seen by the BER curve.
        """
        gamma_s = db_to_linear(channel_snr_db)
        per_bit = gamma_s / (self.modulation.bits_per_symbol * self.code.rate)
        return self.code.effective_snr_linear(per_bit)

    def ber(self, channel_snr_db: float) -> float:
        """Post-decoding bit error rate at the given channel SNR."""
        return self.modulation.ber(self.snr_per_bit_linear(channel_snr_db))

    def packet_error_rate(self, channel_snr_db: float, bits: int) -> float:
        """PER for a ``bits``-long packet (independent-bit abstraction)."""
        if bits <= 0:
            raise PhyError("packet bits must be > 0")
        p = self.ber(channel_snr_db)
        if p <= 0.0:
            return 0.0
        if p >= 0.5:
            return 1.0
        # log1p formulation is numerically stable for tiny p and large bits.
        return -math.expm1(bits * math.log1p(-p))

    def airtime_s(self, bits: int) -> float:
        """Radio on-time to move ``bits`` information bits in this mode."""
        if bits < 0:
            raise PhyError("bits must be >= 0")
        return bits / self.throughput_bps

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"AbicmMode({self.index}: {self.throughput_bps/1e3:.0f} kbps, "
            f"{self.modulation.name}+{self.code.name}, "
            f">= {self.threshold_db:.1f} dB)"
        )


def solve_threshold_db(
    modulation: Modulation, code: ConvolutionalCode, target_ber: float
) -> float:
    """Channel SNR (dB) at which this (modulation, code) hits ``target_ber``."""
    per_bit_needed = modulation.required_snr_per_bit(target_ber)
    raw_per_bit = per_bit_needed / db_to_linear(code.gain_db)
    gamma_s = raw_per_bit * modulation.bits_per_symbol * code.rate
    return linear_to_db(gamma_s)


class AbicmTable:
    """The ordered set of ABICM modes plus the selection staircase."""

    def __init__(self, modes: Sequence[AbicmMode]) -> None:
        if not modes:
            raise PhyError("need at least one ABICM mode")
        ordered = sorted(modes, key=lambda m: m.throughput_bps)
        thresholds = [m.threshold_db for m in ordered]
        if thresholds != sorted(thresholds):
            raise PhyError(
                "mode thresholds must increase with throughput; got "
                f"{thresholds} — check coding gains"
            )
        if len({m.index for m in ordered}) != len(ordered):
            raise PhyError("mode indices must be unique")
        self.modes: Tuple[AbicmMode, ...] = tuple(ordered)
        self._thresholds = tuple(thresholds)

    # -- construction -----------------------------------------------------------

    @classmethod
    def from_config(cls, cfg: PhyConfig) -> "AbicmTable":
        """Build the table from config, solving thresholds if not pinned."""
        n = len(cfg.rates_bps)
        if n > len(_DEFAULT_LADDER):
            raise PhyError(
                f"default modulation ladder supports up to {len(_DEFAULT_LADDER)} "
                f"modes, got {n} rates"
            )
        ladder = _DEFAULT_LADDER[:n]
        modes = []
        for i, (rate_bps, (modulation, code)) in enumerate(zip(cfg.rates_bps, ladder)):
            if cfg.mode_thresholds_db is not None:
                threshold = cfg.mode_thresholds_db[i]
            else:
                threshold = solve_threshold_db(modulation, code, cfg.target_ber)
            modes.append(
                AbicmMode(
                    index=i + 1,
                    throughput_bps=rate_bps,
                    modulation=modulation,
                    code=code,
                    threshold_db=threshold,
                )
            )
        return cls(modes)

    # -- selection ---------------------------------------------------------------

    @property
    def lowest(self) -> AbicmMode:
        """The most robust mode (mode 1)."""
        return self.modes[0]

    @property
    def highest(self) -> AbicmMode:
        """The fastest mode (mode 4 — the 2 Mbps energy-saving mode)."""
        return self.modes[-1]

    @property
    def n_modes(self) -> int:
        """Number of modes (4 in the paper)."""
        return len(self.modes)

    def mode_for_snr(self, snr_db: float) -> Optional[AbicmMode]:
        """Highest mode whose threshold is ≤ ``snr_db``; None = outage."""
        chosen: Optional[AbicmMode] = None
        for mode, threshold in zip(self.modes, self._thresholds):
            if snr_db >= threshold:
                chosen = mode
            else:
                break
        return chosen

    def mode_by_index(self, index: int) -> AbicmMode:
        """Look up a mode by its 1-based index."""
        for mode in self.modes:
            if mode.index == index:
                return mode
        raise PhyError(f"no ABICM mode with index {index}")

    def threshold_for_class(self, klass: int) -> float:
        """SNR threshold of transmission-threshold class ``klass`` (0-based).

        Class k corresponds to "transmit only if the channel supports mode
        k+1 or better" — the quantity Scheme 1 moves up and down.
        """
        if not 0 <= klass < len(self._thresholds):
            raise PhyError(f"threshold class {klass} out of range")
        return self._thresholds[klass]

    def __iter__(self):
        return iter(self.modes)

    def __len__(self) -> int:
        return len(self.modes)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        inner = ", ".join(f"{m.throughput_bps/1e3:.0f}k@{m.threshold_db:.1f}dB"
                          for m in self.modes)
        return f"AbicmTable({inner})"
