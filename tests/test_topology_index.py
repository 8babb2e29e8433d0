"""Spatial-index equivalence: the grid must answer exactly like brute force.

The grid index is the nearest-head search of both engines, and it is
only admissible because every query returns the *same node* the
brute-force distance row returns, at the same distance bits — including
exact-distance ties, which must resolve to the candidate earliest in the
candidate sequence (``np.argmin`` first-occurrence semantics).  These
property tests drive randomized topologies, duplicated, collinear and
coincident positions, grid placements (systematic ties), candidates
outside the queries' box and out-of-field query points at both
implementations and require equality everywhere; they also pin
Topology's on-demand distances to the pairwise matrix bit for bit, and
the vectorised multihop route planner to the original nested scan.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.topology import Topology
from repro.config import NetworkConfig
from repro.errors import ClusterError
from repro.network import SensorNetwork
from repro.routing import plan_routes
from repro.topology import GridIndex


def _random_topology(rng, n=None, field=None):
    n = int(rng.integers(2, 150)) if n is None else n
    field = float(rng.uniform(5.0, 400.0)) if field is None else field
    return Topology(rng.uniform(0.0, field, size=(n, 2)), field)


def _assert_topology_matches_brute(topo, cands):
    """Every node's nearest candidate, grid against the brute row."""
    pos = topo.positions
    _assert_matches_brute(pos, pos[cands], topo.field_size_m)


class TestGridNearestEquivalence:
    """Whole topologies, as a LEACH round queries them: every node
    against a head subset given in election (not id) order."""

    def test_matches_brute_force_on_random_topologies(self):
        rng = np.random.default_rng(1234)
        for _ in range(60):
            topo = _random_topology(rng)
            n = topo.n_nodes
            k = int(rng.integers(1, n + 1))
            _assert_topology_matches_brute(
                topo, rng.choice(n, size=k, replace=False)
            )

    def test_ties_resolve_to_first_candidate_in_sequence(self):
        # A grid placement puts many nodes at identical distances; the
        # winner must be whichever tied head appears first in the
        # candidate sequence, not the lower id.
        topo = Topology.grid(36, 120.0)
        rng = np.random.default_rng(7)
        for _ in range(40):
            k = int(rng.integers(1, 37))
            _assert_topology_matches_brute(topo, rng.permutation(36)[:k])

    def test_duplicate_positions_tie_exactly(self):
        # Nodes stacked on the same point: distances are bit-equal, so
        # candidate order is the only discriminator.
        pts = np.array([[10.0, 10.0]] * 5 + [[30.0, 30.0]] * 5)
        topo = Topology(pts, 50.0)
        for cands in ([3, 1, 8, 6], [8, 6, 3, 1], [4, 2], [9, 0]):
            _assert_topology_matches_brute(topo, cands)

    def test_query_point_outside_field(self):
        # Queries may lie far outside the indexed field.
        rng = np.random.default_rng(11)
        pts = rng.uniform(0.0, 100.0, size=(50, 2))
        index = GridIndex(pts, 100.0)
        queries = [(-80.0, -80.0), (250.0, 40.0), (50.0, -1.0), (99.9, 99.9)]
        picks, _ = index.nearest_many(np.asarray(queries))
        for q, pick in zip(queries, picks):
            d = np.sqrt(((pts - np.asarray(q)) ** 2).sum(axis=1))
            assert pick == int(np.argmin(d))

    def test_single_candidate(self):
        topo = _random_topology(np.random.default_rng(2), n=20)
        index = GridIndex(topo.positions[[13]], topo.field_size_m)
        picks, _ = index.nearest_many(topo.positions)
        assert (picks == 0).all()

    def test_rejects_degenerate_inputs(self):
        with pytest.raises(ClusterError):
            GridIndex(np.empty((0, 2)), 10.0)
        with pytest.raises(ClusterError):
            GridIndex(np.zeros((3, 3)), 10.0)
        with pytest.raises(ClusterError):
            GridIndex(np.zeros((3, 2)), 0.0)
        with pytest.raises(ClusterError):
            GridIndex(np.array([[1.0, np.nan]]), 10.0)
        with pytest.raises(ClusterError):
            GridIndex(np.zeros((3, 2)), 10.0).nearest_many(
                np.array([[np.inf, 0.0]])
            )


def _brute(mem_pos, head_pos):
    """The reference: argmin over each query's full distance row."""
    diff = head_pos[None, :, :] - mem_pos[:, None, :]
    row = np.sqrt((diff ** 2).sum(axis=2))
    pick = np.argmin(row, axis=1)
    return pick.astype(np.int64), row[np.arange(mem_pos.shape[0]), pick]


def _assert_matches_brute(mem_pos, head_pos, field=100.0):
    picks, dist = GridIndex(head_pos, field).nearest_many(mem_pos)
    ref_picks, ref_dist = _brute(mem_pos, head_pos)
    assert (picks == ref_picks).all()
    # Bit-equal distances: the grid evaluates the brute row's arithmetic.
    assert (dist.view(np.int64) == ref_dist.view(np.int64)).all()


def _points(coords, min_size=1, max_size=40):
    return st.lists(
        st.tuples(coords, coords), min_size=min_size, max_size=max_size
    ).map(lambda pts: np.array(pts, dtype=float).reshape(-1, 2))


_FIELD = st.floats(0.0, 100.0, allow_nan=False, exclude_max=True)
_FAR = st.floats(-1000.0, 1000.0, allow_nan=False)
_FIXED = settings(derandomize=True, deadline=None, max_examples=150)


class TestNearestMany:
    """``GridIndex.nearest_many`` equals the brute row bit for bit."""

    def test_uniform_placement_matches_brute(self):
        rng = np.random.default_rng(11)
        head_pos = rng.uniform(0.0, 500.0, size=(300, 2))
        mem_pos = rng.uniform(0.0, 500.0, size=(4000, 2))
        _assert_matches_brute(mem_pos, head_pos, field=500.0)

    def test_lattice_ties_match_brute(self):
        # Grid placements produce exact float ties (a member at a cell
        # centre is equidistant to four heads; distance 0 when it sits
        # on one) — the search must keep first-occurrence tie order.
        rng = np.random.default_rng(5)
        gx, gy = np.meshgrid(
            np.arange(15, dtype=float), np.arange(15, dtype=float)
        )
        head_pos = np.column_stack([gx.ravel(), gy.ravel()])
        rng.shuffle(head_pos)
        mem_pos = np.concatenate([
            head_pos[:60] + 0.5,   # 4-way ties at cell centres
            head_pos[:30],         # distance-0 ties
            rng.uniform(0.0, 14.0, size=(200, 2)),
        ])
        _assert_matches_brute(mem_pos, head_pos, field=15.0)

    def test_rounded_tie_in_the_next_ring(self):
        # Cell 1.0 (field sqrt(2), two heads).  Head 1 sits in ring 1 at
        # exactly 1.0; head 0 sits in ring 2, 1 + 2**-53 away, which
        # rounds to 1.0 too.  Only a search that keeps expanding while
        # best == ring bound finds the lower-order tie.
        q = 1.0 - 2.0 ** -53
        head_pos = np.array([[2.0, 0.0], [q, 1.0]])
        index = GridIndex(head_pos, math.sqrt(2.0))
        picks, dist = index.nearest_many(np.array([[q, 0.0]]))
        assert picks.tolist() == [0] and dist.tolist() == [1.0]
        _assert_matches_brute(np.array([[q, 0.0]]), head_pos, math.sqrt(2.0))

    @_FIXED
    @given(
        xs=st.lists(_FIELD, min_size=1, max_size=4),
        ys=st.lists(_FIELD, min_size=1, max_size=4),
        heads=st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3)),
                       min_size=1, max_size=40),
        members=st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3)),
                         max_size=40),
    )
    def test_duplicate_collinear_and_coincident_points(
        self, xs, ys, heads, members
    ):
        # Every point takes its x from one short list and its y from
        # another: heads repeat, share rows and columns, and members
        # sit exactly on heads.
        def place(picks):
            return np.array(
                [(xs[i % len(xs)], ys[j % len(ys)]) for i, j in picks],
                dtype=float,
            ).reshape(-1, 2)

        _assert_matches_brute(place(members), place(heads))

    @_FIXED
    @given(head=_points(_FAR, max_size=1), members=_points(_FAR))
    def test_single_head(self, head, members):
        picks, _ = GridIndex(head, 100.0).nearest_many(members)
        assert (picks == 0).all()
        _assert_matches_brute(members, head)

    @_FIXED
    @given(
        heads=_points(st.floats(100.0, 900.0, allow_nan=False)),
        members=_points(_FIELD),
        flip=st.booleans(),
    )
    def test_heads_outside_member_box(self, heads, members, flip):
        # Heads beyond the members' box (and beyond the field), so every
        # query starts in an empty region of the table.
        if flip:
            heads = -heads
        _assert_matches_brute(members, heads)

    @_FIXED
    @given(heads=_points(_FIELD), queries=_points(_FAR))
    def test_out_of_field_queries(self, heads, queries):
        _assert_matches_brute(queries, heads)


class TestLazyTopologyEquivalence:
    """On-demand distances must be bit-identical to the pairwise matrix
    (``sqrt((diff ** 2).sum())`` over all pairs at once)."""

    def _pair(self, seed, n=80, field=120.0):
        rng = np.random.default_rng(seed)
        pos = rng.uniform(0.0, field, size=(n, 2))
        diff = pos[:, None, :] - pos[None, :, :]
        return np.sqrt((diff ** 2).sum(axis=2)), Topology(pos, field)

    def test_distance_bitwise_equal(self):
        dense, lazy = self._pair(21)
        for a in range(0, 80, 7):
            for b in range(80):
                assert float(dense[a, b]) == lazy.distance(a, b)

    def test_distances_from_bitwise_equal(self):
        dense, lazy = self._pair(22)
        for node in range(0, 80, 11):
            assert (dense[node] == lazy.distances_from(node)).all()


class TestPlanRoutesEquivalence:
    """The vectorised multihop planner equals the original nested scan."""

    @staticmethod
    def _reference_plan(heads, topology):
        routes = {}
        ordered = sorted(heads)
        for h in ordered:
            d_sink = topology.sink_distance(h)
            best, best_d = None, d_sink
            for g in ordered:
                if g == h:
                    continue
                d_g = topology.sink_distance(g)
                if d_g < best_d and topology.distance(h, g) < d_sink:
                    best, best_d = g, d_g
            routes[h] = best
        return routes

    def test_matches_reference_on_random_head_sets(self):
        rng = np.random.default_rng(31)
        for _ in range(40):
            topo = _random_topology(rng, n=int(rng.integers(5, 60)))
            topo.place_sink(
                (float(rng.uniform(-50, topo.field_size_m + 50)),
                 float(rng.uniform(-50, topo.field_size_m + 50)))
            )
            k = int(rng.integers(1, topo.n_nodes + 1))
            heads = list(rng.choice(topo.n_nodes, size=k, replace=False))
            assert plan_routes("multihop", heads, topo) == \
                self._reference_plan(heads, topo)

    def test_direct_mode_unchanged(self):
        topo = _random_topology(np.random.default_rng(32), n=10)
        topo.place_sink(None)
        assert plan_routes("direct", [3, 7], topo) == {3: None, 7: None}


class TestNetworkUsesGrid:
    def test_brute_and_grid_networks_form_identical_clusters(self):
        # Every round of a running network joins each member to the head
        # the brute distance row picks, and attaches it there.
        for seed in (1, 5):
            net = SensorNetwork(NetworkConfig(n_nodes=60, seed=seed))
            rounds = []
            form_clusters = net.election.form_clusters

            def recording(*args):
                rounds.append(form_clusters(*args))
                return rounds[-1]

            net.election.form_clusters = recording
            net.run_until(25.0)
            assert len(rounds) == 2
            pos = net.topology.positions
            for assignment in rounds:
                heads = list(assignment.heads)
                members = [n for n in assignment.membership if n not in heads]
                ref_picks, _ = _brute(pos[members], pos[heads])
                assert [assignment.membership[n] for n in members] == \
                       [heads[i] for i in ref_picks]
            last = rounds[-1]
            assert {h: sorted(m.id for m in ms)
                    for h, ms in net._members_of.items()} == \
                   {h: sorted(last.members_of(h)) for h in last.heads}
