"""Scheme 1 — adaptive threshold adjustment (paper §III-C, Fig. 6).

The controller the paper contributes.  Verbatim mechanics:

* At every packet arrival the node counts arrivals; every **M = 5** of
  them it samples the queue length, producing the series
  ``V(t_0), V(t_M), V(t_2M), …``.
* The variation ``ΔV = V(t_kM) − V(t_(k−1)M)`` is the traffic predictor:
  "if ΔV ≥ 0, the queue length has an increasing tendency; otherwise ...
  likely to decrease".
* The mechanism is **armed** "once the queue length [reaches] Q_start
  ( = 15)".
* While armed, at each sample: if **ΔV ≥ 0**, *lower* the transmission
  threshold by **one class** (give the node more chances to send); if
  **ΔV < 0**, *raise it directly to the highest* class (e.g. straight
  from 250 kbps back to 2 Mbps) to save energy.

Interpretive choice (scan ambiguity, pinned by ``tests/test_policy.py::
TestAdaptiveController::test_drain_below_qstart_disarms_and_resets``): the
controller disarms — and the threshold snaps to the highest class — when
the queue drains back below Q_start; this is behaviourally equivalent to
keeping it armed (a draining queue has ΔV < 0, which forces the highest
class anyway) but makes the state machine explicit.
"""

from __future__ import annotations

from typing import Callable, Optional

from ..config import PolicyConfig
from ..errors import ConfigError
from .base import TransmissionPolicy
from .thresholds import ThresholdLadder

__all__ = ["AdaptiveThresholdPolicy"]

#: Callback signature for threshold-change observers: (now, old, new).
ChangeHook = Callable[[float, int, int], None]


class AdaptiveThresholdPolicy(TransmissionPolicy):
    """The paper's Scheme 1 controller (one instance per sensor node)."""

    name = "scheme1"

    def __init__(
        self,
        ladder: ThresholdLadder,
        cfg: Optional[PolicyConfig] = None,
        on_change: Optional[ChangeHook] = None,
    ) -> None:
        cfg = cfg or PolicyConfig()
        initial = (
            ladder.highest_class if cfg.initial_class is None else cfg.initial_class
        )
        if not 0 <= initial <= ladder.highest_class:
            raise ConfigError(
                f"initial class {initial} outside 0..{ladder.highest_class}"
            )
        self.ladder = ladder
        self.sample_interval = cfg.sample_interval_packets
        self.arm_queue_length = cfg.arm_queue_length
        self._initial_class = initial
        self._class = initial
        #: Current class's SNR gate, mirrored here so the per-pulse
        #: allows() check is one float compare (kept in sync by
        #: _set_class; the ladder is immutable).
        self._threshold_db = ladder.snr_db(initial)
        self._on_change = on_change

        # Sampling state (Fig. 6 locals).
        self._arrivals_since_sample = 0
        self._last_sample: Optional[int] = None
        self._armed = False

        # Telemetry.
        self.samples_taken = 0
        self.lowers = 0
        self.raises = 0

    # -- TransmissionPolicy ------------------------------------------------------

    def allows(self, snr_db: float) -> bool:
        """Transmit iff measured CSI clears the current class threshold."""
        return snr_db >= self._threshold_db

    def threshold_db(self) -> float:
        """Current SNR threshold."""
        return self._threshold_db

    def threshold_class(self) -> int:
        """Current 0-based class index."""
        return self._class

    @property
    def is_armed(self) -> bool:
        """True while the adjustment mechanism is active."""
        return self._armed

    def observe_arrival(self, queue_length: int, now: float) -> None:
        """Fig. 6: run at each packet arrival epoch."""
        if queue_length < 0:
            raise ConfigError("queue length cannot be negative")
        self._arrivals_since_sample += 1
        if self._arrivals_since_sample < self.sample_interval:
            return
        self._arrivals_since_sample = 0
        self._sample(queue_length, now)

    def reset(self) -> None:
        """Fresh round: back to the initial class, forget the series."""
        self._set_class(self._initial_class, now=float("nan"), silent=True)
        self._arrivals_since_sample = 0
        self._last_sample = None
        self._armed = False

    # -- controller core -----------------------------------------------------------

    def _sample(self, queue_length: int, now: float) -> None:
        self.samples_taken += 1
        previous, self._last_sample = self._last_sample, queue_length

        # Arm / disarm.
        if not self._armed:
            if queue_length >= self.arm_queue_length:
                self._armed = True
            else:
                return  # mechanism not started; threshold untouched
        elif queue_length < self.arm_queue_length:
            self._armed = False
            self._set_class(self.ladder.highest_class, now)
            return

        if previous is None:
            return  # need two samples for a ΔV
        delta_v = queue_length - previous
        if delta_v >= 0:
            # Increasing tendency: relax the gate one class.
            self._set_class(self.ladder.clamp(self._class - 1), now)
        else:
            # Draining: snap straight back to the energy-saving class.
            self._set_class(self.ladder.highest_class, now)

    def _set_class(self, new_class: int, now: float, silent: bool = False) -> None:
        old = self._class
        if new_class == old:
            return
        self._class = new_class
        self._threshold_db = self.ladder.snr_db(new_class)
        if new_class < old:
            self.lowers += 1
        else:
            self.raises += 1
        if not silent and self._on_change is not None:
            self._on_change(now, old, new_class)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"AdaptiveThresholdPolicy(class={self._class}, armed={self._armed}, "
            f"lowers={self.lowers}, raises={self.raises})"
        )
