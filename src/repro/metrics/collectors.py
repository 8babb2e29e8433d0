"""Time-series collection driven by the simulation clock.

:class:`TimeSeriesCollector` samples a callable on a fixed cadence and
stores (time, value) pairs; it is how the figure experiments obtain the
paper's "versus elapsed time" curves (Figs. 8–9) and the queue-length
snapshots behind Fig. 12 ("we have taken several snapshots of the value
during the observed time [and] average them").
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, List, Optional

from ..errors import ExperimentError

if TYPE_CHECKING:
    from ..sim import Simulator

__all__ = ["TimeSeriesCollector", "validate_max_samples"]


def validate_max_samples(value: Optional[int]) -> None:
    """Shared validity rule for series caps (collector + RunOptions).

    Even only: decimation runs at odd lengths (the newest sample must
    sit at an even index to survive), so an odd cap would let the series
    overshoot by one before shrinking.
    """
    if value is not None and (value < 2 or value % 2):
        raise ExperimentError("max_samples must be an even integer >= 2")


class TimeSeriesCollector:
    """Samples ``fn()`` every ``interval_s`` once started.

    Values may be scalars or small lists (e.g. per-node queue lengths);
    they are stored as-is and exposed as numpy arrays on demand.

    ``max_samples`` (an even integer) bounds memory for long or large
    runs (the scale tier): when the series exceeds the cap it is
    *decimated* — every second sample dropped, the sampling interval
    doubled — so the stored series stays uniformly spaced and between
    ``max_samples / 2`` and ``max_samples`` points, whatever the
    horizon.  :attr:`stride` reports the cumulative decimation factor
    (1 = exact).
    """

    def __init__(
        self,
        sim: Simulator,
        interval_s: float,
        fn: Callable[[], object],
        name: str = "series",
        sample_at_start: bool = True,
        max_samples: Optional[int] = None,
    ) -> None:
        if interval_s <= 0:
            raise ExperimentError("sample interval must be > 0")
        validate_max_samples(max_samples)
        self.sim = sim
        self.interval_s = interval_s
        self.fn = fn
        self.name = name
        self.max_samples = max_samples
        #: Cumulative decimation factor: stored samples are spaced
        #: ``stride`` original intervals apart.
        self.stride = 1
        self.times: List[float] = []
        self.values: List[object] = []
        self._handle = None
        self._sample_at_start = sample_at_start

    def start(self) -> "TimeSeriesCollector":
        """Begin sampling (first sample immediately unless disabled)."""
        if self._handle is not None:
            raise ExperimentError("collector already started")
        if self._sample_at_start:
            self._handle = self.sim.schedule_now(self._tick)
        else:
            self._handle = self.sim.call_in(self.interval_s, self._tick)
        return self

    def stop(self) -> None:
        """Cease sampling."""
        if self._handle is not None:
            self._handle.cancel()
            self._handle = None

    def _tick(self) -> None:
        self.times.append(self.sim.now)
        self.values.append(self.fn())
        n = len(self.times)
        if self.max_samples is not None and n > self.max_samples and n & 1:
            # Halving decimation: keep samples 0, 2, 4, ... and sample
            # half as often from here on.  Only at odd lengths, so the
            # newest sample (even index) survives and the doubled re-arm
            # continues the uniform spacing from it.
            del self.times[1::2]
            del self.values[1::2]
            self.interval_s *= 2.0
            self.stride *= 2
        # Strict re-arm: the sampling cadence must advance the clock even
        # when the interval underflows float resolution at large sim times.
        self._handle = self.sim.call_in_strict(self.interval_s, self._tick)

    # -- views -------------------------------------------------------------------

    @property
    def n_samples(self) -> int:
        """Samples collected so far."""
        return len(self.times)

    def as_arrays(self):
        """(times, values) as numpy arrays (values must be scalar)."""
        import numpy as np

        return np.asarray(self.times), np.asarray(self.values, dtype=float)

    def value_at(self, t: float) -> object:
        """Last sampled value at or before ``t``."""
        import numpy as np

        times = np.asarray(self.times)
        idx = int(np.searchsorted(times, t, side="right")) - 1
        if idx < 0:
            raise ExperimentError(f"no sample at or before t={t}")
        return self.values[idx]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<TimeSeriesCollector {self.name!r} n={len(self.times)}>"
