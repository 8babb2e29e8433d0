"""Microscopic (multipath) fading with lazy, exact-gap sampling.

The paper (§II-B): *"microscopic fading refers to the variation of signal
strength due to multipath propagation"*; nodes are static or slower than
1 m/s so *"the coherence time of the fading channel is of the order of
[hundreds of] ms"*, and the channel stays approximately constant over one
frame (several ms).

Model
-----
The complex channel gain is ``h(t) = x(t) + j·y(t)`` with x, y independent
zero-mean Gaussian processes of variance 1/2, giving a unit-mean
exponential power gain ``|h(t)|²`` — Rayleigh fading.  A Rician line-of-
sight component with K-factor ``k`` can be mixed in.

Temporal correlation uses the AR(1) bridge over the actual query gap Δ:

    x(t+Δ) = ρ(Δ)·x(t) + sqrt(1−ρ(Δ)²)·ξ/√2

with either

* ``exponential`` kernel ρ(Δ) = exp(−Δ/τ_c) — a Gauss-Markov process,
  exact for arbitrary query spacing (default); or
* ``jakes`` kernel ρ(Δ) = J₀(2π·f_d·Δ) with f_d = 0.423/τ_c — Clarke/Jakes
  Doppler autocorrelation.  The one-step bridge reproduces the exact
  marginal and the exact lag-Δ correlation of each step; like all
  autoregressive Jakes approximations it is not exactly consistent across
  *unequal* multi-step paths, which is irrelevant at the MAC's query rates.

J₀ is the one function here that needs scipy, so :func:`jakes_correlation`
imports ``scipy.special`` on its first call: a process that simulates the
default exponential kernel never loads scipy.
"""

from __future__ import annotations

import math
from typing import Dict, Tuple, Union

import numpy as np

from ..errors import ChannelError
from ..rng import NormalBlockCache, as_normal_cache

__all__ = ["RayleighFading", "jakes_correlation"]

_SQRT_HALF = math.sqrt(0.5)

#: Cap on the per-process ρ(Δ) memo (the MAC queries on a small set of
#: recurring gaps — tone cadence, settle cadence, frame times — so the
#: cache saturates at a few dozen entries in practice; the cap only
#: guards against pathological query patterns).
_RHO_CACHE_MAX = 4096


def jakes_correlation(doppler_hz: float, dt: float) -> float:
    """Clarke/Jakes autocorrelation ρ(Δ) = J₀(2π·f_d·Δ) at lag ``dt``.

    The one definition both engines share (the vector engine's
    :class:`repro.vector.state.ArStep` calls it too), so their ρ values
    are bit-identical.  Callers memoize per lag.
    """
    from scipy.special import j0

    return float(j0(2.0 * math.pi * doppler_hz * dt))


class RayleighFading:
    """Lazily-sampled Rayleigh/Rician fading process (unit mean power).

    Parameters
    ----------
    coherence_s:
        Coherence time τ_c of the fading process.
    rng:
        Numpy generator (one per link; see :class:`repro.rng.RngRegistry`)
        or a :class:`~repro.rng.NormalBlockCache` shared with the other
        processes consuming the same stream (how :class:`Link` builds it).
    kernel:
        ``"exponential"`` or ``"jakes"`` (see module docstring).
    rician_k:
        Rician K-factor (linear); 0 = pure Rayleigh (the paper's model).
    """

    __slots__ = (
        "coherence_s",
        "kernel",
        "rician_k",
        "_normals",
        "_time",
        "_x",
        "_y",
        "_los",
        "_scatter_scale",
        "_doppler_hz",
        "_rho_cache",
    )

    def __init__(
        self,
        coherence_s: float,
        rng: Union[np.random.Generator, NormalBlockCache],
        kernel: str = "exponential",
        rician_k: float = 0.0,
        start_time_s: float = 0.0,
    ) -> None:
        if coherence_s <= 0:
            raise ChannelError("coherence time must be > 0")
        if kernel not in ("exponential", "jakes"):
            raise ChannelError(f"unknown fading kernel {kernel!r}")
        if rician_k < 0:
            raise ChannelError("Rician K must be >= 0")
        self.coherence_s = float(coherence_s)
        self.kernel = kernel
        self.rician_k = float(rician_k)
        self._normals = as_normal_cache(rng)
        self._time = float(start_time_s)
        # Scatter component scaled so total mean power is 1 with the LOS term.
        self._los = math.sqrt(rician_k / (rician_k + 1.0))
        self._scatter_scale = math.sqrt(1.0 / (rician_k + 1.0))
        # Stationary start: x, y ~ N(0, 1/2).
        self._x = self._normals.normal(0.0, _SQRT_HALF)
        self._y = self._normals.normal(0.0, _SQRT_HALF)
        # Jakes: classic coherence-time relation T_c ~= 0.423 / f_d.
        self._doppler_hz = 0.423 / self.coherence_s
        #: Δ -> (ρ, bridge σ) memo; the sampling cadence recurs over a
        #: tiny set of gaps, so ρ(Δ) (and the j0 call for Jakes) is paid
        #: once per distinct gap instead of once per sample.
        self._rho_cache: Dict[float, Tuple[float, float]] = {}

    # -- correlation kernels -------------------------------------------------

    def correlation(self, dt: float) -> float:
        """Autocorrelation ρ(Δ) of the in-phase/quadrature components."""
        if dt < 0:
            raise ChannelError("negative lag")
        if self.kernel == "exponential":
            return math.exp(-dt / self.coherence_s)
        return jakes_correlation(self._doppler_hz, dt)

    # -- sampling --------------------------------------------------------------

    def rebind(self, start_time_s: float) -> None:
        """Restart the process as construction would, on the current cache.

        Mirrors the constructor's tail exactly — the two stationary
        in-phase/quadrature draws at ``start_time_s`` — so a pooled
        :class:`~repro.channel.link.Link` whose block cache was rebound
        to a fresh stream replays the draws of a fresh construction
        bit-for-bit.  Keep this next to ``__init__``: the two must stay
        draw-for-draw identical.
        """
        self._time = float(start_time_s)
        self._x = self._normals.normal(0.0, _SQRT_HALF)
        self._y = self._normals.normal(0.0, _SQRT_HALF)

    def _advance(self, t: float) -> None:
        if t < self._time:
            raise ChannelError(
                f"fading queried backwards in time: {t} < {self._time}"
            )
        dt = t - self._time
        if dt <= 0.0:
            return
        cached = self._rho_cache.get(dt)
        if cached is None:
            rho = self.correlation(dt)
            sigma = math.sqrt(max(0.0, 1.0 - rho * rho)) * _SQRT_HALF
            if len(self._rho_cache) < _RHO_CACHE_MAX:
                self._rho_cache[dt] = (rho, sigma)
        else:
            rho, sigma = cached
        normals = self._normals
        self._x = rho * self._x + sigma * normals.standard_normal()
        self._y = rho * self._y + sigma * normals.standard_normal()
        self._time = t

    def complex_gain(self, t: float):
        """Complex channel gain h(t) (unit mean power)."""
        self._advance(t)
        return complex(
            self._los + self._scatter_scale * self._x,
            self._scatter_scale * self._y,
        )

    def power_gain(self, t: float) -> float:
        """Linear power gain |h(t)|², mean 1; exponential for Rayleigh.

        Repeated queries at the same time return the identical value,
        implementing the paper's "channel gain remains stationary for the
        duration of a packet transmission" assumption at zero extra cost.
        """
        self._advance(t)
        re = self._los + self._scatter_scale * self._x
        im = self._scatter_scale * self._y
        return re * re + im * im

    def gain_db(self, t: float) -> float:
        """Power gain in dB (can be very negative in deep fades)."""
        g = self.power_gain(t)
        if g <= 0.0:  # pragma: no cover - numerically unreachable
            return float("-inf")
        return 10.0 * math.log10(g)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"RayleighFading(tau_c={self.coherence_s}s, kernel={self.kernel}, "
            f"K={self.rician_k}, t={self._time:.3f})"
        )
