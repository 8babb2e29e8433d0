"""The tone signalling channel (paper §III-A, Table I).

The cluster head broadcasts pulse trains on a dedicated low-power tone
frequency; the **inter-pulse interval** encodes the data-channel state:

* **idle** — 1 ms pulses every 50 ms ("the cluster head must periodically
  broadcast idle tone pulse series, with a period of 50 ms ... duration of
  1 ms");
* **receive** — 0.5 ms pulses every 10 ms while a burst is being received
  (these double as CSI pilots for the sender's burst-by-burst adaptation);
* **collision** — a single 0.5 ms pulse on detecting packet corruption;
* **transmit** — 0.5 ms every 15 ms (CH→BS relay; defined for completeness,
  never emitted here because the paper leaves the relay out of scope).

Sensors *subscribe* while their tone radio is on; every emitted pulse is
delivered to subscribers as ``on_tone_pulse(kind, time)``, which is both
the channel-state indicator and the CSI measurement opportunity.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import List, Optional, Protocol as TypingProtocol

from ..config import ToneConfig
from ..energy.meter import EnergyMeter
from ..errors import MacError
from ..sim import Simulator

__all__ = ["ToneKind", "TonePulseSpec", "ToneChannelSpec", "ToneBroadcaster", "ToneListener"]


class ToneKind(enum.Enum):
    """What a pulse train announces about the data channel."""

    IDLE = "idle"
    RECEIVE = "receive"
    TRANSMIT = "transmit"
    COLLISION = "collision"


@dataclass(frozen=True)
class TonePulseSpec:
    """Pulse duration + repetition period for one channel state."""

    kind: ToneKind
    duration_s: float
    period_s: Optional[float]  # None = emitted once, not periodic

    @property
    def duty_cycle(self) -> float:
        """Fraction of time the tone radio is keyed in this state."""
        if self.period_s is None:
            return 0.0
        return self.duration_s / self.period_s


class ToneChannelSpec:
    """Table I as an object: the pulse pattern per channel state."""

    def __init__(self, cfg: Optional[ToneConfig] = None) -> None:
        cfg = cfg or ToneConfig()
        self.cfg = cfg
        self._by_kind = {
            ToneKind.IDLE: TonePulseSpec(
                ToneKind.IDLE, cfg.idle_duration_s, cfg.idle_period_s
            ),
            ToneKind.RECEIVE: TonePulseSpec(
                ToneKind.RECEIVE, cfg.receive_duration_s, cfg.receive_period_s
            ),
            ToneKind.TRANSMIT: TonePulseSpec(
                ToneKind.TRANSMIT, cfg.transmit_duration_s, cfg.transmit_period_s
            ),
            ToneKind.COLLISION: TonePulseSpec(
                ToneKind.COLLISION, cfg.collision_duration_s, None
            ),
        }

    def pulse(self, kind: ToneKind) -> TonePulseSpec:
        """The pulse spec for a channel state."""
        return self._by_kind[kind]

    def rows(self) -> List[TonePulseSpec]:
        """All specs, in Table I order."""
        return [self._by_kind[k] for k in ToneKind]

    def classify_interval(self, interval_s: float, tolerance: float = 0.25) -> ToneKind:
        """Inverse mapping: inter-pulse interval → channel state.

        This is what a sensor's tone receiver implements in hardware; the
        simulator delivers the kind directly, but the classifier is kept
        (and tested) to show the intervals are unambiguous under the
        stated tolerance.
        """
        candidates = [
            (kind, spec.period_s)
            for kind, spec in self._by_kind.items()
            if spec.period_s is not None
        ]
        for kind, period in candidates:
            if abs(interval_s - period) <= tolerance * period:
                return kind
        raise MacError(f"inter-pulse interval {interval_s * 1e3:.2f} ms is ambiguous")


class ToneListener(TypingProtocol):
    """Anything that can hear tone pulses (sensor MACs)."""

    def on_tone_pulse(self, kind: ToneKind, time_s: float) -> None:
        """Called at each pulse start while subscribed."""
        ...


class ToneBroadcaster:
    """Cluster-head side: emits the pulse train for the current state.

    Driven by the cluster-head MAC via :meth:`set_state`; charges the CH
    meter ``tone_tx`` energy per pulse (the tone radio is duty-cycled, one
    of the three "superior features" claimed in §III-A).
    """

    def __init__(
        self,
        sim: Simulator,
        spec: ToneChannelSpec,
        meter: EnergyMeter,
        name: str = "tone",
    ) -> None:
        self.sim = sim
        self.spec = spec
        self.meter = meter
        self.name = name
        self._listeners: List[ToneListener] = []
        #: Cached delivery snapshot; rebuilt lazily after (un)subscribes
        #: so the per-pulse fan-out allocates nothing in steady state.
        self._listener_snapshot: Optional[tuple] = None
        self._kind: Optional[ToneKind] = None
        self._pulse_handle = None
        self._running = False
        #: kind -> (pulse spec, per-pulse tone_tx joules), priced once —
        #: the emit path is per-pulse-per-cluster hot.
        self._per_kind = {
            kind: (
                spec.pulse(kind),
                meter.model.power_w("tone_tx") * spec.pulse(kind).duration_s,
            )
            for kind in ToneKind
        }
        #: Total pulses emitted, by kind value (diagnostics).
        self.pulses_emitted = {k.value: 0 for k in ToneKind}

    # -- lifecycle ------------------------------------------------------------

    def start(self, kind: ToneKind = ToneKind.IDLE) -> None:
        """Begin broadcasting (CH elected); first pulse goes out now."""
        if self._running:
            raise MacError("broadcaster already running")
        self._running = True
        self._kind = None
        self.set_state(kind)

    def stop(self) -> None:
        """Cease broadcasting (CH died / round ended)."""
        self._running = False
        self._kind = None
        if self._pulse_handle is not None:
            self._pulse_handle.cancel()
            self._pulse_handle = None

    @property
    def is_running(self) -> bool:
        """True while the CH is broadcasting."""
        return self._running

    def reset(self) -> None:
        """Recycle for a new head term (head-stack reuse).

        Restores the state a freshly constructed broadcaster starts with;
        only legal while stopped, and a stale pulse handle here means a
        teardown failed to cancel — raise rather than let a zombie train
        keep pulsing into the new round.
        """
        if self._running:
            raise MacError("cannot reset a running broadcaster")
        if self._pulse_handle is not None:
            raise MacError("stale pulse handle survived stop()")
        self._listeners.clear()
        self._listener_snapshot = None
        self._kind = None
        self.pulses_emitted = {k.value: 0 for k in ToneKind}

    @property
    def current_kind(self) -> Optional[ToneKind]:
        """The state currently being announced."""
        return self._kind

    # -- state machine -----------------------------------------------------------

    def set_state(self, kind: ToneKind) -> None:
        """Switch the announced state; restarts the pulse train immediately.

        A COLLISION state emits its single pulse and then *stays* silent
        until the MAC moves the broadcaster elsewhere (the paper's CH
        "only sends out collision tone pulses once").
        """
        if not self._running:
            raise MacError("broadcaster is not running")
        if kind == self._kind:
            return
        self._kind = kind
        if self._pulse_handle is not None:
            self._pulse_handle.cancel()
            self._pulse_handle = None
        self._emit()

    def _emit(self) -> None:
        if not self._running or self._kind is None:
            return
        kind = self._kind
        pulse, pulse_energy_j = self._per_kind[kind]
        # Energy: the pulse itself.
        self.meter.charge_known("tone_tx", pulse_energy_j)
        self.pulses_emitted[kind.value] += 1
        now = self.sim.now
        # Deliver to a snapshot of listeners (they may unsubscribe inside);
        # the snapshot is cached across pulses until the roster changes.
        snapshot = self._listener_snapshot
        if snapshot is None:
            snapshot = self._listener_snapshot = tuple(self._listeners)
        for listener in snapshot:
            listener.on_tone_pulse(kind, now)
        if pulse.period_s is not None and self._kind is kind:
            # Strict re-arm: at large sim times a millisecond-scale period
            # can underflow the float clock and freeze the pulse train.
            self._pulse_handle = self.sim.call_in_strict(pulse.period_s, self._emit)

    # -- listeners ------------------------------------------------------------------

    def subscribe(self, listener: ToneListener) -> None:
        """Sensor turned its tone radio on."""
        if listener not in self._listeners:
            self._listeners.append(listener)
            self._listener_snapshot = None

    def unsubscribe(self, listener: ToneListener) -> None:
        """Sensor turned its tone radio off."""
        try:
            self._listeners.remove(listener)
        except ValueError:
            pass
        else:
            self._listener_snapshot = None
