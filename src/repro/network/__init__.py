"""Network glue: nodes, role rotation, the runnable SensorNetwork, and the
event engine's :func:`measure` that runs it for :func:`repro.api.simulate`."""

from .engine import measure
from .network import SensorNetwork
from .node import NodeRole, SensorNode
from .stats import NetworkStats

__all__ = ["SensorNetwork", "SensorNode", "NodeRole", "NetworkStats", "measure"]
