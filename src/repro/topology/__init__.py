"""Spatial indexing for nearest-head searches.

The paper's evaluation runs ~100 nodes, where brute-force distance scans
are free.  At 1000–10⁵ nodes the per-round O(alive x heads) nearest-head
scan stops being free, so this package provides a deterministic spatial
grid index whose answers are **bit-identical** to the brute-force scan
(including tie order) — pinned by the property tests in
``tests/test_topology_index.py``.

:class:`~repro.topology.grid.GridIndex` is the index itself: one batched
exact query, :meth:`~repro.topology.grid.GridIndex.nearest_many`, is the
nearest-head search of both engines, at every head count.  Each engine
calls it once per round over its members: the event kernel through
:meth:`repro.cluster.leach.LeachElection.form_clusters`, the vector
engine in its round start.
"""

from .grid import GridIndex

__all__ = ["GridIndex"]
