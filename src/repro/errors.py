"""Exception hierarchy for the CAEM reproduction library.

All library-raised exceptions derive from :class:`ReproError` so callers can
catch everything from this package with a single ``except`` clause while
still letting programming errors (``TypeError`` etc.) propagate normally.
"""

from __future__ import annotations

__all__ = [
    "ReproError",
    "ConfigError",
    "SimulationError",
    "SchedulerError",
    "ChannelError",
    "PhyError",
    "MacError",
    "EnergyError",
    "BatteryDepletedError",
    "BufferOverflowError",
    "ClusterError",
    "ExperimentError",
]


class ReproError(Exception):
    """Base class for every exception raised by :mod:`repro`."""


class ConfigError(ReproError, ValueError):
    """A configuration value is missing, malformed, or out of range."""


class SimulationError(ReproError, RuntimeError):
    """Generic failure inside the discrete-event simulation."""


class SchedulerError(SimulationError):
    """Misuse of the event scheduler (e.g. scheduling into the past)."""


class ChannelError(ReproError):
    """Invalid channel-model parameter or query."""


class PhyError(ReproError):
    """Invalid physical-layer parameter (modulation, coding, mode table)."""


class MacError(ReproError):
    """MAC state machine was driven into an invalid transition."""


class EnergyError(ReproError):
    """Invalid energy-model operation."""


class BatteryDepletedError(EnergyError):
    """An energy draw was attempted on an exhausted battery."""


class BufferOverflowError(ReproError):
    """Raised by strict buffers when a packet cannot be admitted.

    The default network stack *drops* packets instead of raising; this
    exception exists for strict-mode buffers used in tests and analyses.
    """


class ClusterError(ReproError):
    """Cluster formation / LEACH election failure."""


class ExperimentError(ReproError):
    """An experiment harness was configured or driven incorrectly."""
