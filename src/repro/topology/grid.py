"""Uniform-cell spatial grid with brute-force-identical nearest queries.

The index buckets candidate points into square cells of roughly one
candidate each and answers a whole batch of nearest-neighbour queries by
expanding ring search in numpy.  Two properties make it a drop-in
replacement for the brute-force distance row (``np.argmin`` over
``sqrt((diff**2).sum())``, the nearest-head rule of LEACH membership):

* **identical arithmetic** — candidate distances are evaluated as
  ``sqrt(dx*dx + dy*dy)`` in double precision, the exact float sequence
  the vectorised pairwise matrix produces, so comparisons see the same
  (possibly rounded) values;
* **identical tie order** — among equal distances the candidate earliest
  in the *candidate sequence* wins, matching ``np.argmin``'s
  first-occurrence rule.  A query keeps the candidate with the lowest
  ``(distance, index)`` pair it has seen, and ring expansion only stops
  once a strictly closer ring is impossible (``ring_min > best``), so an
  equal-distance candidate in a farther ring is still found and resolved
  by order.

Queries may lie outside the indexed field: a query's cell coordinates
are unclamped (only table lookups are, onto empty margin cells), so the
ring lower bound ``(r - 1) * cell`` holds for any query position; a
query's cost grows with its ring distance from the candidates.
"""

from __future__ import annotations

import math
from typing import Sequence, Tuple

import numpy as np

from ..errors import ClusterError

__all__ = ["GridIndex"]


class GridIndex:
    """Spatial hash over a fixed set of candidate points.

    Parameters
    ----------
    points:
        ``(k, 2)`` array of candidate coordinates, in *candidate order*
        (the order ties resolve to — for cluster formation, the elected
        head sequence).
    field_size_m:
        Extent used to pick the cell size, ``field / sqrt(k)`` (about one
        candidate per cell for uniform deployments).  Points may lie
        anywhere; if they spread wider than the field, their spread sets
        the cell size instead, which bounds the table at ~k cells.
    """

    __slots__ = ("n", "_xs", "_ys", "_cell", "_x0", "_y0", "_nx", "_ny",
                 "_order", "_count", "_start")

    def __init__(self, points: np.ndarray, field_size_m: float) -> None:
        points = np.asarray(points, dtype=float)
        if points.ndim != 2 or points.shape[1] != 2:
            raise ClusterError("grid index needs an (k, 2) point array")
        k = points.shape[0]
        if k < 1:
            raise ClusterError("grid index needs at least one point")
        if not field_size_m > 0:
            raise ClusterError("field size must be > 0")
        if not np.isfinite(points).all():
            raise ClusterError("grid points must be finite")
        self.n = k
        xs = self._xs = np.ascontiguousarray(points[:, 0])
        ys = self._ys = np.ascontiguousarray(points[:, 1])
        extent = max(field_size_m, float(np.ptp(xs)), float(np.ptp(ys)))
        cell = self._cell = extent / max(1.0, math.sqrt(k))
        gx = np.floor_divide(xs, cell).astype(np.int64)
        gy = np.floor_divide(ys, cell).astype(np.int64)
        # The table spans the occupied cells plus one empty cell of margin
        # on every side, so a clamped lookup off the table reads empty.
        self._x0 = int(gx.min()) - 1
        self._y0 = int(gy.min()) - 1
        gx -= self._x0
        gy -= self._y0
        self._nx = int(gx.max()) + 2
        self._ny = int(gy.max()) + 2
        # CSR buckets: candidates sorted by cell (stably, so candidate
        # order holds within a cell), then each cell's count and start.
        key = gx * self._ny + gy
        self._order = np.argsort(key, kind="stable")
        self._count = np.bincount(key, minlength=self._nx * self._ny)
        self._start = np.cumsum(self._count) - self._count

    def nearest_many(self, queries: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Nearest candidate for every row of ``queries``.

        Returns ``(index, distance)``: the candidate-order index of each
        query's nearest point and its distance, equal bit for bit to
        ``argmin`` over the candidate distance row and the row's value
        there — the strictly nearest candidate, ties broken by candidate
        order.
        """
        q = np.asarray(queries, dtype=float)
        if not np.isfinite(q).all():
            raise ClusterError("queries must be finite")
        qx = np.ascontiguousarray(q[:, 0])
        qy = np.ascontiguousarray(q[:, 1])
        cell, nx, ny = self._cell, self._nx, self._ny
        xs, ys = self._xs, self._ys
        order, count, start = self._order, self._count, self._start
        cx = np.floor_divide(qx, cell).astype(np.int64) - self._x0
        cy = np.floor_divide(qy, cell).astype(np.int64) - self._y0
        # All occupied cells lie within this Chebyshev radius of the query.
        max_ring = np.maximum(
            np.maximum(cx - 1, nx - 2 - cx), np.maximum(cy - 1, ny - 2 - cy)
        )
        best_d = np.full(q.shape[0], math.inf)
        best_i = np.full(q.shape[0], self.n, dtype=np.int64)
        active = np.arange(q.shape[0])
        r = 0
        while active.size:
            # Clamped row and column keys per ring offset, shared by the
            # ring's cells that sit on the same row or column.
            kxs = {}
            kys = {}
            acx = cx[active]
            acy = cy[active]
            for ox, oy in _ring_offsets(r):
                kx = kxs.get(ox)
                if kx is None:
                    kx = kxs[ox] = np.minimum(np.maximum(acx + ox, 0), nx - 1) * ny
                ky = kys.get(oy)
                if ky is None:
                    ky = kys[oy] = np.minimum(np.maximum(acy + oy, 0), ny - 1)
                key = kx + ky
                cnt = count[key]
                sel = np.flatnonzero(cnt)
                if not sel.size:
                    continue
                cnt = cnt[sel]
                slot = start[key[sel]]
                qs = active[sel]
                # Slot j holds each cell's j-th candidate: one candidate per
                # query per pass, so every update is elementwise.
                while True:
                    cand = order[slot]
                    dx = xs[cand] - qx[qs]
                    dy = ys[cand] - qy[qs]
                    d = np.sqrt(dx * dx + dy * dy)
                    bd = best_d[qs]
                    take = (d < bd) | ((d == bd) & (cand < best_i[qs]))
                    won = qs[take]
                    best_d[won] = d[take]
                    best_i[won] = cand[take]
                    more = np.flatnonzero(cnt > 1)
                    if not more.size:
                        break
                    qs = qs[more]
                    slot = slot[more] + 1
                    cnt = cnt[more] - 1
            # Ring r+1 is at least r*cell away; < keeps expanding while an
            # exact-distance tie (with a lower candidate order) is possible.
            done = (best_d[active] < r * cell) | (max_ring[active] <= r)
            active = active[~done]
            r += 1
        return best_i, best_d

    def nearest(self, x: float, y: float) -> int:
        """Candidate-order index of the point nearest ``(x, y)``.

        The one-query form of :meth:`nearest_many`.
        """
        return int(self.nearest_many(np.array([[x, y]]))[0][0])


def _ring_offsets(r: int) -> Sequence[Tuple[int, int]]:
    """Cell offsets at Chebyshev distance exactly ``r``."""
    if r == 0:
        return ((0, 0),)
    span = range(-r, r + 1)
    side = range(-r + 1, r)
    return (
        [(ox, oy) for ox in span for oy in (-r, r)]
        + [(ox, oy) for ox in (-r, r) for oy in side]
    )

