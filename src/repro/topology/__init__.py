"""Spatial indexing for scale-tier networks.

The paper's evaluation runs ~100 nodes, where brute-force distance scans
are free.  At 1000–10⁵ nodes the per-round O(alive x heads) nearest-head
scan and the O(N^2) pairwise distance matrix stop being free, so this
package provides a deterministic spatial grid index whose answers are
**bit-identical** to the brute-force scan (including tie order) —
pinned by the property tests in ``tests/test_topology_index.py``.

:class:`~repro.topology.grid.GridIndex` is the index itself: one batched
exact query, :meth:`~repro.topology.grid.GridIndex.nearest_many`, is the
nearest-head search of both engines.  The vector engine calls it once
per round over its members; :class:`~repro.topology.grid.GridNearest`
adapts it to the ``nearest(node, candidates)`` callable the event
kernel's LEACH election consumes, answering a whole round from one
batched call.
"""

from .grid import GridIndex, GridNearest

__all__ = ["GridIndex", "GridNearest"]
