"""LEACH cluster-head election and round bookkeeping (paper §IV).

The election rule, verbatim from the paper: node *n* generates a uniform
random number in [0, 1] and becomes cluster head for round *r* iff the
number is below

              P
    T(n) = ─────────────────        if n ∈ G,    else 0
           1 − P·(r mod 1/P)

where P is the desired CH fraction (5 %) and **G** is the set of nodes
that have *not* served as CH in the current epoch of ``1/P`` rounds.  At
the start of each epoch every (alive) node re-enters G, so over an epoch
everyone serves roughly once — the rotation that "realizes a graceful
energy consumption evenly distributed in the whole network".

Edge case the formula leaves open: a round can elect zero heads.  The
standard fix, used here, is to fall back to one uniformly-chosen eligible
node so the network never idles a whole round (pinned by
``tests/test_cluster.py::TestLeachElection::test_at_least_one_head_always``).

Membership: every other alive node joins its nearest head.  One
:meth:`repro.topology.GridIndex.nearest_many` call answers the whole
round, the same search the vector engine makes, at every head count.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Set

import numpy as np

from ..config import LeachConfig
from ..errors import ClusterError
from ..topology import GridIndex
from .topology import Topology

__all__ = ["LeachElection", "ClusterAssignment"]


@dataclass(frozen=True)
class ClusterAssignment:
    """Result of one round's clustering."""

    round_index: int
    heads: tuple
    #: node id -> head id (heads map to themselves).
    membership: Dict[int, int] = field(default_factory=dict)

    def members_of(self, head: int) -> List[int]:
        """Sensor ids (excluding the head itself) served by ``head``."""
        return [n for n, h in self.membership.items() if h == head and n != head]

    @property
    def n_clusters(self) -> int:
        """Number of clusters formed."""
        return len(self.heads)


class LeachElection:
    """Stateful LEACH election across rounds."""

    def __init__(self, cfg: LeachConfig, rng: np.random.Generator) -> None:
        self.cfg = cfg
        self._rng = rng
        self.epoch_rounds = int(round(1.0 / cfg.ch_fraction))
        #: Nodes that already served as CH in the current epoch.
        self._served: Set[int] = set()
        self.rounds_run = 0
        #: head id -> times served (diagnostics / fairness tests).
        self.service_counts: Dict[int, int] = {}

    def threshold(self, round_index: int) -> float:
        """T(n) for an eligible node in the given round."""
        p = self.cfg.ch_fraction
        denom = 1.0 - p * (round_index % self.epoch_rounds)
        if denom <= 0.0:  # pragma: no cover - unreachable for valid P
            return 1.0
        return min(1.0, p / denom)

    def elect(self, round_index: int, alive: Sequence[int]) -> List[int]:
        """Pick this round's cluster heads from the alive nodes."""
        alive = list(alive)
        if not alive:
            raise ClusterError("cannot elect from an empty network")
        if round_index % self.epoch_rounds == 0:
            self._served.clear()  # new epoch: everyone eligible again
        eligible = [n for n in alive if n not in self._served]
        if not eligible:
            # All alive nodes served this epoch (deaths shrank the pool):
            # start the epoch over early.
            self._served.clear()
            eligible = alive
        t = self.threshold(round_index)
        draws = self._rng.random(len(eligible))
        heads = [n for n, u in zip(eligible, draws) if u < t]
        if not heads:
            heads = [eligible[int(self._rng.integers(len(eligible)))]]
        for h in heads:
            self._served.add(h)
            self.service_counts[h] = self.service_counts.get(h, 0) + 1
        self.rounds_run += 1
        return heads

    def form_clusters(
        self,
        round_index: int,
        alive: Sequence[int],
        topology: Topology,
    ) -> ClusterAssignment:
        """Elect heads and attach every sensor to its nearest head.

        One :meth:`~repro.topology.GridIndex.nearest_many` call over the
        head positions answers the whole round.  With a distance-monotone
        path loss the nearest head is also the strongest-signal one,
        which is how LEACH sensors pick their cluster; equal distances go
        to the head elected first.
        """
        heads = self.elect(round_index, alive)
        membership: Dict[int, int] = {h: h for h in heads}
        members = [n for n in alive if n not in membership]
        pos = topology.positions
        index = GridIndex(pos[heads], topology.field_size_m)
        picks, _ = index.nearest_many(pos[members])
        for node, pick in zip(members, picks.tolist()):
            membership[node] = heads[pick]
        return ClusterAssignment(round_index, tuple(heads), membership)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"LeachElection(P={self.cfg.ch_fraction}, rounds={self.rounds_run}, "
            f"served_this_epoch={len(self._served)})"
        )
