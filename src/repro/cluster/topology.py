"""Field topology: node placement and distance geometry.

The paper deploys 100 static nodes in a square testing field (Table II;
edge length scan-damaged, 100 m assumed as in standard LEACH —
:data:`repro.constants.FIELD_SIZE_M`).  Placement is
uniform-random (the usual LEACH setting); a deterministic grid is provided
for tests and worked examples.
"""

from __future__ import annotations

import math
from typing import Tuple

import numpy as np

from ..errors import ClusterError

__all__ = ["Topology"]


class Topology:
    """Static node positions in a square field, with distance queries.

    Distances are computed on demand as ``sqrt(dx*dx + dy*dy)``, the
    arithmetic :class:`repro.topology.GridIndex` uses for nearest-head
    searches, so a pairwise matrix is never built (at 5000 nodes it
    would take ~200 MB).
    """

    def __init__(self, positions: np.ndarray, field_size_m: float) -> None:
        positions = np.asarray(positions, dtype=float)
        if positions.ndim != 2 or positions.shape[1] != 2:
            raise ClusterError("positions must be an (n, 2) array")
        if positions.shape[0] < 1:
            raise ClusterError("need at least one node")
        if field_size_m <= 0:
            raise ClusterError("field size must be > 0")
        if np.any(positions < 0) or np.any(positions > field_size_m):
            raise ClusterError("positions must lie inside the field")
        self.positions = positions
        self.field_size_m = float(field_size_m)
        # Data sink (uplink tier); unset until place_sink() is called.
        self._sink_pos: Tuple[float, float] | None = None
        self._sink_dist: np.ndarray | None = None

    # -- constructors -------------------------------------------------------------

    @classmethod
    def uniform(
        cls, n_nodes: int, field_size_m: float, rng: np.random.Generator
    ) -> "Topology":
        """Uniform-random placement (the paper's deployment model)."""
        if n_nodes < 1:
            raise ClusterError("need at least one node")
        pos = rng.uniform(0.0, field_size_m, size=(n_nodes, 2))
        return cls(pos, field_size_m)

    @classmethod
    def grid(cls, n_nodes: int, field_size_m: float) -> "Topology":
        """Deterministic near-square grid (tests/examples)."""
        if n_nodes < 1:
            raise ClusterError("need at least one node")
        cols = int(math.ceil(math.sqrt(n_nodes)))
        rows = int(math.ceil(n_nodes / cols))
        xs = np.linspace(field_size_m * 0.05, field_size_m * 0.95, cols)
        ys = np.linspace(field_size_m * 0.05, field_size_m * 0.95, rows)
        pts = [(x, y) for y in ys for x in xs][:n_nodes]
        return cls(np.array(pts), field_size_m)

    # -- queries ---------------------------------------------------------------------

    @property
    def n_nodes(self) -> int:
        """Number of nodes placed."""
        return self.positions.shape[0]

    def distance(self, a: int, b: int) -> float:
        """Euclidean distance between nodes ``a`` and ``b``."""
        pos = self.positions
        dx = pos[a, 0] - pos[b, 0]
        dy = pos[a, 1] - pos[b, 1]
        return math.sqrt(dx * dx + dy * dy)

    def distances_from(self, node: int) -> np.ndarray:
        """Vector of distances from ``node`` to every node."""
        diff = self.positions - self.positions[node]
        return np.sqrt((diff ** 2).sum(axis=1))

    # -- sink placement (uplink/routing tier) -----------------------------------

    def place_sink(self, position: Tuple[float, float] | None = None) -> None:
        """Place the network data sink; ``None`` uses the field centre.

        The sink is the terminus of the head→sink uplink tier
        (:mod:`repro.routing`); it may lie outside the field (sink-distance
        sweeps).  Placement is idempotent and precomputes every node's
        sink distance.
        """
        if position is None:
            half = self.field_size_m / 2.0
            position = (half, half)
        x, y = float(position[0]), float(position[1])
        if not (math.isfinite(x) and math.isfinite(y)):
            raise ClusterError("sink position must be finite")
        self._sink_pos = (x, y)
        delta = self.positions - np.array([x, y])
        self._sink_dist = np.sqrt((delta ** 2).sum(axis=1))

    @property
    def sink_position(self) -> Tuple[float, float] | None:
        """The sink coordinates, or None before :meth:`place_sink`."""
        return self._sink_pos

    def sink_distance(self, node: int) -> float:
        """Euclidean distance from ``node`` to the sink."""
        if self._sink_dist is None:
            raise ClusterError("no sink placed (call place_sink first)")
        return float(self._sink_dist[node])

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Topology(n={self.n_nodes}, field={self.field_size_m} m)"
