"""Modulation schemes and their AWGN bit-error-rate curves.

The ABICM physical layer (§II-B) picks "a high-order modulation (e.g.
16-QAM)" on good channels and "a lower order modulation (e.g. BPSK)" on bad
ones.  This module provides the standard erfc-based BER expressions used to
derive mode switching thresholds and packet-error rates:

* BPSK / QPSK (Gray-coded): ``BER = Q(sqrt(2·γ_b))``
* Square M-QAM (Gray, nearest-neighbour approx):
  ``BER ≈ 4/k·(1−1/√M)·Q(sqrt(3·k·γ_b/(M−1)))`` with k = log2 M.

γ_b is SNR **per bit**; conversions from per-symbol SNR are handled by the
callers (`repro.phy.abicm`), which work at fixed symbol rate.

Q comes from the standard library: :func:`qfunc` is ``0.5·math.erfc``
and :func:`qfunc_inv` is ``statistics.NormalDist().inv_cdf``, so a
simulating process never imports ``scipy.special``.  One rule keeps
scipy's (Cephes) behaviour exactly: erfc(z) is exactly 0.0 once
z² > ln(DBL_MAX) ≈ 709.78 (z > 26.6417…), where ``math.erfc`` would still
return subnormals up to z ≈ 27.2.  The zero matters more than the value:
:func:`repro.phy.frame.evaluate_burst` skips its Bernoulli draws when
the packet-error rate is exactly 0.0, so the set of SNRs that give zero
decides how far each run's random stream advances.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from statistics import NormalDist

from ..errors import PhyError

__all__ = [
    "Modulation", "BPSK", "QPSK", "QAM16", "QAM64", "by_name",
    "erfc", "qfunc", "qfunc_inv",
]


#: ln(DBL_MAX): past z² > this, erfc(z) is exactly 0.0 (2.0 for z < 0).
_ERFC_UNDERFLOW_Z2 = math.log(sys.float_info.max)

_STANDARD_NORMAL = NormalDist()


def erfc(z: float) -> float:
    """``math.erfc`` with scipy's exact underflow to 0.0 (module docstring)."""
    if z * z > _ERFC_UNDERFLOW_Z2:
        return 0.0 if z > 0.0 else 2.0
    return math.erfc(z)


def qfunc(x: float) -> float:
    """Gaussian tail function Q(x) = 0.5·erfc(x/√2)."""
    return 0.5 * erfc(x / math.sqrt(2.0))


def qfunc_inv(p: float) -> float:
    """Inverse of :func:`qfunc` for p in (0, 1)."""
    if not 0.0 < p < 1.0:
        raise PhyError(f"Q^-1 needs p in (0,1), got {p}")
    return -_STANDARD_NORMAL.inv_cdf(p)


@dataclass(frozen=True)
class Modulation:
    """A memoryless modulation with a Gray-coded BER model.

    Attributes
    ----------
    name:
        Display name.
    bits_per_symbol:
        k = log2(M).
    """

    name: str
    bits_per_symbol: int

    def ber(self, snr_per_bit_linear: float) -> float:
        """Bit error probability at the given per-bit SNR (linear)."""
        if snr_per_bit_linear < 0:
            raise PhyError("SNR must be >= 0")
        k = self.bits_per_symbol
        if k <= 2:
            # BPSK and Gray QPSK share the per-bit BER curve.
            return qfunc(math.sqrt(2.0 * snr_per_bit_linear))
        m = 2 ** k
        coeff = (4.0 / k) * (1.0 - 1.0 / math.sqrt(m))
        arg = math.sqrt(3.0 * k * snr_per_bit_linear / (m - 1.0))
        return min(0.5, coeff * qfunc(arg))

    def required_snr_per_bit(self, target_ber: float) -> float:
        """Per-bit SNR (linear) achieving ``target_ber`` (inverse of :meth:`ber`)."""
        if not 0.0 < target_ber < 0.5:
            raise PhyError(f"target BER must be in (0, 0.5), got {target_ber}")
        k = self.bits_per_symbol
        if k <= 2:
            return qfunc_inv(target_ber) ** 2 / 2.0
        m = 2 ** k
        coeff = (4.0 / k) * (1.0 - 1.0 / math.sqrt(m))
        q_target = target_ber / coeff
        if q_target >= 0.5:
            return 0.0
        return qfunc_inv(q_target) ** 2 * (m - 1.0) / (3.0 * k)


#: The constellations used by the 4-mode ABICM configuration.
BPSK = Modulation("BPSK", 1)
QPSK = Modulation("QPSK", 2)
QAM16 = Modulation("16-QAM", 4)
QAM64 = Modulation("64-QAM", 6)

_REGISTRY = {m.name: m for m in (BPSK, QPSK, QAM16, QAM64)}


def by_name(name: str) -> Modulation:
    """Look up a modulation by display name (e.g. ``"16-QAM"``)."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise PhyError(
            f"unknown modulation {name!r}; have {sorted(_REGISTRY)}"
        ) from None
