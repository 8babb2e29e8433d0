"""Correlated log-normal shadowing (macroscopic fading).

The paper (§II-B): *"Shadowing loss refers to the change in received signal
strength due to variations in terrain structure and transmission
conditions.  These two factors fluctuate in macroscopic time scale (2-5
seconds)."*

We model the shadowing term S(t) in dB as a stationary Ornstein-Uhlenbeck
(Gauss-Markov) process with standard deviation σ and exponential
autocorrelation ``ρ(Δ) = exp(−Δ/τ)`` — the time-domain analogue of
Gudmundson's classic spatial model.  The process is sampled **lazily and
exactly**: for any query gap Δ the bridge

    S(t+Δ) = ρ(Δ)·S(t) + σ·sqrt(1−ρ(Δ)²)·ξ,   ξ ~ N(0,1)

has the exact conditional distribution, so cost scales with the number of
queries, not with any fixed sampling grid, and queries at arbitrary
(strictly non-decreasing) times are statistically consistent.
"""

from __future__ import annotations

import math
from typing import Dict, Tuple, Union

import numpy as np

from ..errors import ChannelError
from ..rng import NormalBlockCache, as_normal_cache

__all__ = ["GaussMarkovShadowing"]

#: Same recurring-gap rationale and cap as repro.channel.fading.
_RHO_CACHE_MAX = 4096


class GaussMarkovShadowing:
    """Lazily-sampled Gauss-Markov shadowing process (values in dB).

    Parameters
    ----------
    sigma_db:
        Stationary standard deviation in dB (0 disables shadowing).
    tau_s:
        Decorrelation time constant in seconds.
    rng:
        Numpy generator (from :class:`repro.rng.RngRegistry`) or a
        :class:`~repro.rng.NormalBlockCache` shared with the other
        processes consuming the same stream (how :class:`Link` builds it).
    start_time_s:
        Simulation time of the initial draw.
    """

    __slots__ = ("sigma_db", "tau_s", "_normals", "_time", "_value", "_rho_cache")

    def __init__(
        self,
        sigma_db: float,
        tau_s: float,
        rng: Union[np.random.Generator, NormalBlockCache],
        start_time_s: float = 0.0,
    ) -> None:
        if sigma_db < 0:
            raise ChannelError("shadowing sigma must be >= 0")
        if tau_s <= 0:
            raise ChannelError("shadowing tau must be > 0")
        self.sigma_db = float(sigma_db)
        self.tau_s = float(tau_s)
        self._normals = as_normal_cache(rng)
        self._time = float(start_time_s)
        #: Δ -> (ρ, σ·sqrt(1−ρ²)) memo over the recurring sampling gaps.
        self._rho_cache: Dict[float, Tuple[float, float]] = {}
        # Stationary initial draw.
        self._value = (
            self._normals.normal(0.0, self.sigma_db) if sigma_db > 0 else 0.0
        )

    def rebind(self, start_time_s: float) -> None:
        """Restart the process as construction would, on the current cache.

        Mirrors the constructor's tail exactly — one stationary initial
        draw (none when sigma is zero) at ``start_time_s`` — so a pooled
        :class:`~repro.channel.link.Link` whose block cache was rebound
        to a fresh stream replays the draws of a fresh construction
        bit-for-bit.  Keep this next to ``__init__``: the two must stay
        draw-for-draw identical.
        """
        self._time = float(start_time_s)
        self._value = (
            self._normals.normal(0.0, self.sigma_db)
            if self.sigma_db > 0
            else 0.0
        )

    def value_db(self, t: float) -> float:
        """Shadowing in dB at time ``t`` (must be >= the previous query).

        Queries at the exact same time return the cached value, which is
        what "the channel gain remains stationary for the duration of a
        packet" needs when several modules look at the link within one
        MAC transaction.
        """
        if t < self._time:
            raise ChannelError(
                f"shadowing queried backwards in time: {t} < {self._time}"
            )
        if self.sigma_db == 0.0:
            self._time = t
            return 0.0
        dt = t - self._time
        if dt > 0.0:
            cached = self._rho_cache.get(dt)
            if cached is None:
                rho = math.exp(-dt / self.tau_s)
                scaled_sigma = self.sigma_db * math.sqrt(1.0 - rho * rho)
                if len(self._rho_cache) < _RHO_CACHE_MAX:
                    self._rho_cache[dt] = (rho, scaled_sigma)
            else:
                rho, scaled_sigma = cached
            noise = self._normals.standard_normal()
            self._value = rho * self._value + scaled_sigma * noise
            self._time = t
        return self._value

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"GaussMarkovShadowing(sigma={self.sigma_db} dB, tau={self.tau_s} s, "
            f"t={self._time:.3f})"
        )
