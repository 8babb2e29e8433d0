"""CAEM — Channel Adaptive Energy Management in Wireless Sensor Networks.

A complete reproduction of Lin & Kwok (ICPP Workshops 2005): a
discrete-event WSN simulator with a time-varying Rayleigh/shadowing
channel, a 4-mode ABICM adaptive physical layer, the tone-signalled CAEM
MAC with collision detection, LEACH clustering, and the paper's three
protocols (pure LEACH, Scheme 1 adaptive threshold, Scheme 2 fixed
threshold), plus the full evaluation harness for Figures 8-12 and
Tables I-II.

Quickstart
----------
>>> from repro import NetworkConfig, Protocol, SensorNetwork
>>> cfg = NetworkConfig(n_nodes=20, protocol=Protocol.CAEM_ADAPTIVE, seed=1)
>>> net = SensorNetwork(cfg)
>>> net.run_until(30.0)
>>> net.stats.delivered > 0
True

See ``examples/`` for richer scenarios and ``repro.experiments`` for the
paper's figures.
"""

from ._lazy import lazy_exports
from .config import (
    ChannelConfig,
    EnergyConfig,
    LeachConfig,
    MacConfig,
    NetworkConfig,
    PhyConfig,
    PolicyConfig,
    Protocol,
    ToneConfig,
    TrafficConfig,
)

__version__ = "1.0.0"

__all__ = [
    "NetworkConfig",
    "ChannelConfig",
    "PhyConfig",
    "EnergyConfig",
    "ToneConfig",
    "MacConfig",
    "LeachConfig",
    "TrafficConfig",
    "PolicyConfig",
    "Protocol",
    "SensorNetwork",
    "NetworkStats",
    "Simulator",
    "__version__",
]

#: Resolved on first access, so that importing the package (every CLI
#: call does) does not load the event kernel.
__getattr__ = lazy_exports(
    __name__,
    {
        "SensorNetwork": ".network",
        "NetworkStats": ".network",
        "Simulator": ".sim",
    },
)
