"""Energy meter: draws from a battery with per-cause accounting.

The meter is the single gateway between protocol code and the battery:
protocols charge *activities* (cause + duration, or an explicit energy),
the meter prices them via :class:`~repro.energy.model.RadioEnergyModel`,
debits the battery, and keeps the per-cause ledger that powers the paper's
Fig. 11 (energy per delivered packet) and our extended breakdowns.

It also supports *continuous* draws for long-lived states (tone monitoring,
CH idle): ``open_draw`` returns a handle that integrates power over wall
(simulation) time until closed, charging lazily on close — no periodic
tick events are needed.

Hot-path note: radio state machines transition hundreds of times per node
per second, and every transition closes one draw and opens another.  The
meter therefore keeps only *open* draws in its registry (closed handles
are removed immediately, preserving the opening-order settle sequence)
and recycles handle objects through a small free list, so steady-state
transitions allocate nothing.  All arithmetic — ``power · dt`` then a
single battery draw per settle — is unchanged, keeping every run
bit-identical to the allocating implementation.
"""

from __future__ import annotations

from typing import Dict

from ..errors import EnergyError
from ..sim import Simulator
from .battery import Battery
from .model import RadioEnergyModel

__all__ = ["EnergyMeter", "ContinuousDraw"]


class ContinuousDraw:
    """An open-ended power draw (e.g. tone radio monitoring).

    Created by :meth:`EnergyMeter.open_draw`.  Energy accrues linearly at
    the cause's power; call :meth:`close` when the state ends.
    ``checkpoint`` settles accrued energy without closing — used when a
    metric snapshot needs exact battery levels mid-state.
    """

    __slots__ = ("meter", "cause", "power_w", "start_s", "_last_settle_s", "_open")

    def __init__(
        self, meter: "EnergyMeter", cause: str, start_s: float, scale: float = 1.0
    ) -> None:
        if scale < 0:
            raise EnergyError("draw scale must be >= 0")
        self.meter = meter
        self.cause = cause
        self.power_w = meter.model.power_w(cause) * scale
        self.start_s = start_s
        self._last_settle_s = start_s
        self._open = True

    def checkpoint(self, now: float) -> float:
        """Settle energy accrued since the last settle; returns joules charged.

        The cause was validated when the draw was opened, so this charges
        the battery directly — same ``power · dt`` product and the same
        single :meth:`~repro.energy.battery.Battery.draw` call as routing
        through :meth:`EnergyMeter.charge_energy`.
        """
        if not self._open:
            return 0.0
        dt = now - self._last_settle_s
        if dt < 0:
            raise EnergyError("continuous draw settled backwards in time")
        self._last_settle_s = now
        if dt == 0.0 or self.power_w == 0.0:
            return 0.0
        meter = self.meter
        actual = meter.battery.draw(self.power_w * dt)
        if actual > 0.0:
            by_cause = meter.by_cause
            cause = self.cause
            by_cause[cause] = by_cause.get(cause, 0.0) + actual
        return actual

    def close(self, now: float) -> float:
        """Settle and close; returns the final joules charged."""
        charged = self.checkpoint(now)
        self._open = False
        self.meter._release(self)
        return charged


class EnergyMeter:
    """Per-node energy gateway and ledger."""

    __slots__ = ("sim", "model", "battery", "by_cause", "_open_draws", "_free")

    #: Free-list cap: a node has at most a handful of concurrently open
    #: draws (one per radio state machine), so a short list suffices.
    _FREE_MAX = 8

    def __init__(self, sim: Simulator, model: RadioEnergyModel, battery: Battery) -> None:
        self.sim = sim
        self.model = model
        self.battery = battery
        #: Joules actually drawn, keyed by cause.
        self.by_cause: Dict[str, float] = {}
        #: Currently *open* draws, in opening order (closed draws are
        #: removed immediately — see the module docstring).
        self._open_draws: list[ContinuousDraw] = []
        self._free: list[ContinuousDraw] = []

    # -- one-shot charges -------------------------------------------------------

    def charge(self, cause: str, duration_s: float) -> float:
        """Charge ``cause`` held for ``duration_s``; returns joules drawn."""
        return self.charge_energy(cause, self.model.energy_j(cause, duration_s))

    def charge_energy(self, cause: str, energy_j: float) -> float:
        """Charge an explicit energy amount under ``cause``."""
        if energy_j < 0:
            raise EnergyError("cannot charge negative energy")
        self.model.power_w(cause)  # validates the cause name
        actual = self.battery.draw(energy_j)
        if actual > 0.0:
            self.by_cause[cause] = self.by_cause.get(cause, 0.0) + actual
        return actual

    def charge_known(self, cause: str, energy_j: float) -> float:
        """Charge a pre-priced, pre-validated energy amount (hot paths).

        Identical ledger arithmetic to :meth:`charge_energy`; callers must
        have validated ``cause`` once up front and guarantee
        ``energy_j >= 0``.
        """
        actual = self.battery.draw(energy_j)
        if actual > 0.0:
            by_cause = self.by_cause
            by_cause[cause] = by_cause.get(cause, 0.0) + actual
        return actual

    def charge_startup(self) -> float:
        """Charge one data-radio sleep→active transition."""
        return self.charge_energy("startup", self.model.startup_energy_j)

    # -- continuous draws ----------------------------------------------------------

    def open_draw(self, cause: str, scale: float = 1.0) -> ContinuousDraw:
        """Start integrating ``cause`` power from the current time.

        ``scale`` multiplies the cause's power — used for duty-cycled
        states (e.g. synchronized tone listening wakes the receiver only
        around expected pulse times).
        """
        if scale < 0:
            raise EnergyError("draw scale must be >= 0")
        return self.open_draw_known(cause, self.model.power_w(cause) * scale)

    def open_draw_known(self, cause: str, power_w: float) -> ContinuousDraw:
        """Open a draw whose power is already priced (radio hot path).

        ``power_w`` must be ``model.power_w(cause) · scale`` — the radio
        state machines compute it once per state at construction instead
        of per transition.
        """
        free = self._free
        if free:
            draw = free.pop()
        else:
            draw = ContinuousDraw.__new__(ContinuousDraw)
        now = self.sim._now
        draw.meter = self
        draw.cause = cause
        draw.power_w = power_w
        draw.start_s = now
        draw._last_settle_s = now
        draw._open = True
        self._open_draws.append(draw)
        return draw

    def _release(self, draw: ContinuousDraw) -> None:
        """Drop a closed draw from the registry and recycle the handle."""
        try:
            self._open_draws.remove(draw)
        except ValueError:  # a hand-built draw never registered
            return
        if len(self._free) < self._FREE_MAX:
            self._free.append(draw)

    def settle_all(self) -> None:
        """Checkpoint every open draw at the current time (metric snapshots).

        Iterates a snapshot: a checkpoint can empty the battery, whose
        death cascade closes draws (mutating the registry) reentrantly.
        """
        now = self.sim.now
        for draw in tuple(self._open_draws):
            if draw._open:
                draw.checkpoint(now)

    # -- reporting ---------------------------------------------------------------

    @property
    def total_j(self) -> float:
        """Total joules drawn through this meter."""
        return sum(self.by_cause.values())

    def breakdown(self) -> Dict[str, float]:
        """Copy of the per-cause ledger."""
        return dict(self.by_cause)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<EnergyMeter total={self.total_j:.4f} J over {len(self.by_cause)} causes>"
