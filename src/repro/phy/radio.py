"""Radio state machines with energy integration.

"A sensor node has two radio sets: tone radio and data radio, working at
different frequencies.  Both radios should be off to save energy if the
sensor has no packet to transmit."  (§III-B)

:class:`DataRadio` and :class:`ToneRadio` wrap an
:class:`~repro.energy.meter.EnergyMeter`, translating state residency into
per-cause charges.  The data radio enforces the sleep→STARTUP→active
sequence with its ``startup_time_s`` cost; protocol code awaits the
``ready`` moment via a scheduled callback.
"""

from __future__ import annotations

import enum
from typing import Callable, Optional

from ..energy.meter import ContinuousDraw, EnergyMeter
from ..errors import MacError
from ..sim import Simulator

__all__ = ["DataRadioState", "ToneRadioState", "DataRadio", "ToneRadio"]


class DataRadioState(enum.Enum):
    """Data radio operating states."""

    SLEEP = "sleep"
    STARTUP = "startup"
    TX = "tx"
    RX = "rx"
    IDLE = "idle"  # cluster-head: powered, listening for a burst


class ToneRadioState(enum.Enum):
    """Tone radio operating states."""

    OFF = "off"
    RX = "rx"  # sensor monitoring the tone channel
    TX = "tx"  # cluster head emitting pulses


#: Energy-cause per state.  The data radio draws Table II's 3.5 mW even in
#: SLEEP (that row is "Sleep Power for Data Channel"); the tone radio's OFF
#: state draws nothing.
_DATA_CAUSE = {
    DataRadioState.SLEEP: "sleep",
    DataRadioState.STARTUP: "startup",
    DataRadioState.TX: "data_tx",
    DataRadioState.RX: "data_rx",
    DataRadioState.IDLE: "ch_idle",
}
_TONE_CAUSE = {
    ToneRadioState.RX: "tone_rx",
    ToneRadioState.TX: "tone_tx",
}


class _EnergyStateMachine:
    """Shared mechanics: each state holds an open continuous draw.

    State transitions are the single hottest energy path (hundreds per
    node per second), so the per-state ``(cause, power)`` pair is priced
    once at construction and every ``_enter`` goes through the meter's
    allocation-free :meth:`~repro.energy.meter.EnergyMeter.open_draw_known`.
    """

    def __init__(
        self, sim: Simulator, meter: EnergyMeter, initial, cause_map,
        scale_map=None,
    ) -> None:
        self.sim = sim
        self.meter = meter
        self._cause_map = cause_map
        self._scale_map = scale_map or {}
        #: state -> (cause, power_w·scale) | None, priced up front.
        self._draw_info = {}
        for state, cause in cause_map.items():
            self._draw_info[state] = (
                cause,
                meter.model.power_w(cause) * self._scale_map.get(state, 1.0),
            )
        self._state = initial
        self._draw: Optional[ContinuousDraw] = None
        self.transitions = 0
        info = self._draw_info.get(initial)
        if info is not None:
            self._draw = meter.open_draw_known(info[0], info[1])

    @property
    def state(self):
        """Current state."""
        return self._state

    def _enter(self, state) -> None:
        draw = self._draw
        if draw is not None:
            draw.close(self.sim._now)
            self._draw = None
        self._state = state
        self.transitions += 1
        info = self._draw_info.get(state)
        if info is not None:
            self._draw = self.meter.open_draw_known(info[0], info[1])

    def settle(self) -> None:
        """Checkpoint the open draw (exact levels for metric snapshots)."""
        if self._draw is not None:
            self._draw.checkpoint(self.sim.now)


class DataRadio(_EnergyStateMachine):
    """The high-power data radio with startup latency.

    ``wake(on_ready)`` moves SLEEP→STARTUP, charges the lock time, and
    calls ``on_ready()`` after ``startup_time_s``; the callback typically
    starts the transmission.  ``sleep()`` is legal from any state and is
    how a sensor aborts/completes its involvement with the data channel.
    """

    def __init__(self, sim: Simulator, meter: EnergyMeter, startup_time_s: float) -> None:
        super().__init__(sim, meter, DataRadioState.SLEEP, _DATA_CAUSE)
        if startup_time_s < 0:
            raise MacError("startup time must be >= 0")
        self.startup_time_s = startup_time_s
        self._wake_handle = None

    def wake(self, on_ready: Callable[[], None]) -> None:
        """Begin the sleep→active transition."""
        if self._state is not DataRadioState.SLEEP:
            raise MacError(f"wake() from {self._state}, expected SLEEP")
        self._enter(DataRadioState.STARTUP)
        self._wake_handle = self.sim.call_in(self.startup_time_s, self._on_awake, on_ready)

    def _on_awake(self, on_ready: Callable[[], None]) -> None:
        self._wake_handle = None
        if self._state is DataRadioState.STARTUP:
            self._enter(DataRadioState.IDLE)
            on_ready()

    def start_tx(self) -> None:
        """Enter TX (radio must be awake: IDLE or RX)."""
        if self._state not in (DataRadioState.IDLE, DataRadioState.RX):
            raise MacError(f"start_tx() from {self._state}")
        self._enter(DataRadioState.TX)

    def start_rx(self) -> None:
        """Enter RX (cluster-head side; radio must be awake)."""
        if self._state not in (DataRadioState.IDLE, DataRadioState.TX):
            raise MacError(f"start_rx() from {self._state}")
        self._enter(DataRadioState.RX)

    def idle(self) -> None:
        """Return to powered-idle (cluster head between bursts)."""
        if self._state in (DataRadioState.SLEEP, DataRadioState.STARTUP):
            raise MacError(f"idle() from {self._state}")
        self._enter(DataRadioState.IDLE)

    def sleep(self) -> None:
        """Power the data radio down (cancels a pending wake)."""
        if self._wake_handle is not None:
            self._wake_handle.cancel()
            self._wake_handle = None
        if self._state is not DataRadioState.SLEEP:
            self._enter(DataRadioState.SLEEP)

    @property
    def is_awake(self) -> bool:
        """True in IDLE/TX/RX."""
        return self._state in (DataRadioState.IDLE, DataRadioState.TX, DataRadioState.RX)


class ToneRadio(_EnergyStateMachine):
    """The low-power tone radio (no startup latency; §III-A design goal).

    ``monitor_duty`` models synchronized duty-cycled listening: once a
    sensor has locked on to the pulse schedule it only powers the tone
    receiver in windows around the expected pulse times, so the effective
    monitoring power is ``tone_rx · monitor_duty``; the default duty is
    ``ToneConfig.monitor_duty_cycle`` (0.08, derived there from the pulse
    schedule).  ``monitor_duty=1.0`` recovers continuous listening.
    """

    def __init__(
        self, sim: Simulator, meter: EnergyMeter, monitor_duty: float = 1.0
    ) -> None:
        if not 0.0 < monitor_duty <= 1.0:
            raise MacError("monitor duty must be in (0, 1]")
        self.monitor_duty = monitor_duty
        super().__init__(
            sim, meter, ToneRadioState.OFF, _TONE_CAUSE,
            scale_map={ToneRadioState.RX: monitor_duty},
        )

    def monitor(self) -> None:
        """Sensor side: start listening to the tone channel."""
        if self._state is not ToneRadioState.RX:
            self._enter(ToneRadioState.RX)

    def transmit(self) -> None:
        """Cluster-head side: radio keyed for pulse broadcast."""
        if self._state is not ToneRadioState.TX:
            self._enter(ToneRadioState.TX)

    def off(self) -> None:
        """Power down."""
        if self._state is not ToneRadioState.OFF:
            self._enter(ToneRadioState.OFF)

    @property
    def is_on(self) -> bool:
        """True unless OFF."""
        return self._state is not ToneRadioState.OFF
