"""Array-level building blocks for the vector backend.

Everything here is engine-agnostic numpy plumbing: AR(1) step
coefficients, PER lookup tables, the decimating series recorder (an
array-side mirror of :class:`repro.metrics.collectors.TimeSeriesCollector`),
a batched reservoir sampler, and the vectorized Scheme-1 policy update.
The stepping logic itself lives in :mod:`repro.vector.engine`.
"""

from __future__ import annotations

import math
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..channel.fading import jakes_correlation

__all__ = [
    "ArStep",
    "PerTables",
    "SeriesRecorder",
    "BatchReservoir",
]


class ArStep:
    """Memoized AR(1) step coefficients for one correlation time.

    Mirrors the per-``dt`` arithmetic of
    :class:`repro.channel.fading.RayleighFading`: the fading
    autocorrelation is ``rho = exp(-dt/tau)`` for the exponential
    (Gauss-Markov) kernel or ``rho = J0(2*pi*f_d*dt)`` with
    ``f_d = 0.423/tau`` for Jakes/Clarke Doppler, with innovation std
    scaled so the process stays stationary.  Shadowing innovations carry
    ``sigma`` (dB) and are always exponential-kernel; each fading
    quadrature carries ``sqrt(0.5)`` so the complex envelope has unit
    power.
    """

    def __init__(
        self,
        shadow_sigma_db: float,
        shadow_tau_s: float,
        fading_tau_s: float,
        fading_kernel: str = "exponential",
    ):
        self.sigma = float(shadow_sigma_db)
        self.shadow_tau = float(shadow_tau_s)
        self.fading_tau = float(fading_tau_s)
        self.kernel = fading_kernel
        # Jakes: classic coherence-time relation T_c ~= 0.423 / f_d
        # (identical constant to RayleighFading._doppler_hz).
        self._doppler_hz = 0.423 / self.fading_tau if self.fading_tau > 0.0 else 0.0
        self._cache: dict = {}

    def coeffs(self, dt: float) -> Tuple[float, float, float, float]:
        """Return ``(rho_shadow, sig_shadow, rho_fading, sig_fading)``."""
        got = self._cache.get(dt)
        if got is not None:
            return got
        if self.sigma > 0.0 and self.shadow_tau > 0.0:
            rho_s = math.exp(-dt / self.shadow_tau)
            sig_s = self.sigma * math.sqrt(max(0.0, 1.0 - rho_s * rho_s))
        else:
            rho_s, sig_s = 1.0, 0.0
        if self.fading_tau <= 0.0:
            rho_f = 0.0
        elif self.kernel == "jakes":
            rho_f = jakes_correlation(self._doppler_hz, dt)
        else:
            rho_f = math.exp(-dt / self.fading_tau)
        sig_f = math.sqrt(max(0.0, 1.0 - rho_f * rho_f)) * math.sqrt(0.5)
        out = (rho_s, sig_s, rho_f, sig_f)
        self._cache[dt] = out
        return out


class PerTables:
    """Dense PER-vs-SNR interpolation tables, one row per ABICM mode.

    ``AbicmTable.packet_error_rate`` is exact but scalar; at population
    scale we need one PER per winning transmitter per step.  A 0.25 dB
    grid over [-20, 60] dB keeps interpolation error far below the
    Bernoulli noise of the per-packet draws it feeds.
    """

    LO_DB = -20.0
    HI_DB = 60.0
    STEP_DB = 0.25

    def __init__(self, abicm, packet_length_bits: int):
        self.grid = np.arange(self.LO_DB, self.HI_DB + self.STEP_DB / 2, self.STEP_DB)
        modes = abicm.modes
        self.n_modes = len(modes)
        self.tables = np.empty((self.n_modes, self.grid.size))
        for k, mode in enumerate(modes):
            self.tables[k] = [
                mode.packet_error_rate(float(s), packet_length_bits) for s in self.grid
            ]

    def per(self, mode_idx: np.ndarray, snr_db: np.ndarray) -> np.ndarray:
        """Vectorized PER lookup for (mode, SNR) pairs."""
        out = np.empty(snr_db.shape)
        for k in range(self.n_modes):
            sel = mode_idx == k
            if sel.any():
                out[sel] = np.interp(snr_db[sel], self.grid, self.tables[k])
        return out


class SeriesRecorder:
    """Decimating time-series recorder.

    Bit-exact mirror of the bookkeeping in
    :class:`repro.metrics.collectors.TimeSeriesCollector`: append one
    sample per tick; once ``max_samples`` is exceeded on an odd count,
    drop every second sample starting from index 1 and double both the
    interval and the recorded stride.  The engine re-arms its next
    sample at ``t + interval`` after every tick, exactly as the event
    collector re-arms its timer.
    """

    def __init__(self, interval_s: float, max_samples: Optional[int]):
        self.interval = float(interval_s)
        self.max_samples = max_samples
        self.stride = 1
        self.times: List[float] = []
        self.series: List[List] = []  # parallel value tracks

    def add_track(self) -> int:
        self.series.append([])
        return len(self.series) - 1

    def tick(self, now: float, values: Sequence) -> None:
        self.times.append(now)
        for track, value in zip(self.series, values):
            track.append(value)
        cap = self.max_samples
        if cap is not None and len(self.times) > cap and len(self.times) % 2 == 1:
            del self.times[1::2]
            for track in self.series:
                del track[1::2]
            self.interval *= 2.0
            self.stride *= 2


class BatchReservoir:
    """Reservoir sampler with batched updates (Algorithm R, chunked).

    Holds an exact sum and count regardless of the cap, so means stay
    exact even when the sample set is bounded.  With ``cap=None`` every
    value is kept.

    ``add(values, sizes)`` takes several batches concatenated: the sum
    grows by each batch's ``float(batch.sum())`` in order, so the sum
    bits, count, samples and ``rng`` draws equal one ``add`` per batch
    (``Generator.random(a)`` then ``random(b)`` draws what
    ``random(a + b)`` does).
    """

    def __init__(self, cap: Optional[int], rng: Optional[np.random.Generator]):
        self.cap = cap
        self.rng = rng
        self.sum = 0.0
        self.count = 0
        if cap is None:
            self._chunks: List[np.ndarray] = []
            self._buf = None
        else:
            self._buf = np.empty(cap)
            self._chunks = []

    def add(self, values: np.ndarray, sizes: Optional[Sequence[int]] = None) -> None:
        k = values.size
        if k == 0:
            return
        seen = self.count
        if sizes is None:
            self.sum += float(values.sum())
        else:
            lo = 0
            for size in sizes:
                if size:
                    self.sum += float(values[lo : lo + size].sum())
                    lo += size
        self.count += k
        if self.cap is None:
            self._chunks.append(np.asarray(values, dtype=float).copy())
            return
        cap = self.cap
        fill = min(cap - seen, k) if seen < cap else 0
        if fill > 0:
            self._buf[seen : seen + fill] = values[:fill]
        rest = values[fill:]
        if rest.size:
            # j ~ Uniform{0..seen+i} for the i-th remaining value; keep
            # when j lands inside the reservoir — chunked Algorithm R.
            base = seen + fill
            span = base + 1 + np.arange(rest.size)
            j = (self.rng.random(rest.size) * span).astype(np.int64)
            hit = j < cap
            if hit.any():
                self._buf[j[hit]] = rest[hit]

    def samples(self) -> np.ndarray:
        if self.cap is None:
            if not self._chunks:
                return np.empty(0)
            return np.concatenate(self._chunks)
        return self._buf[: min(self.count, self.cap)].copy()
