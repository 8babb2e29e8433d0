"""Topology and LEACH election."""

import numpy as np
import pytest

from repro.cluster import ClusterAssignment, LeachElection, Topology
from repro.config import LeachConfig
from repro.errors import ClusterError
from repro.rng import RngRegistry


class TestTopology:
    def test_uniform_placement_in_field(self):
        topo = Topology.uniform(100, 100.0, RngRegistry(1).stream("topo"))
        assert topo.n_nodes == 100
        assert np.all(topo.positions >= 0) and np.all(topo.positions <= 100)

    def test_grid_placement_deterministic(self):
        a = Topology.grid(25, 100.0)
        b = Topology.grid(25, 100.0)
        np.testing.assert_array_equal(a.positions, b.positions)

    def test_grid_holds_n_nodes(self):
        for n in (1, 7, 100):
            assert Topology.grid(n, 50.0).n_nodes == n

    def test_distance_symmetric_and_zero_diag(self):
        topo = Topology.uniform(20, 100.0, RngRegistry(2).stream("t"))
        for a in (0, 5, 19):
            assert topo.distance(a, a) == 0.0
            for b in (1, 7):
                assert topo.distance(a, b) == pytest.approx(topo.distance(b, a))

    def test_distance_matches_euclid(self):
        topo = Topology(np.array([[0.0, 0.0], [3.0, 4.0]]), 10.0)
        assert topo.distance(0, 1) == pytest.approx(5.0)

    def test_invalid_positions(self):
        with pytest.raises(ClusterError):
            Topology(np.array([[0.0, 200.0]]), 100.0)
        with pytest.raises(ClusterError):
            Topology(np.zeros((0, 2)), 100.0)

    def test_distances_from_vector(self):
        topo = Topology.grid(9, 30.0)
        row = topo.distances_from(4)
        assert row.shape == (9,)
        assert row[4] == 0.0


class TestLeachElection:
    def _election(self, seed=1, **kw):
        return LeachElection(LeachConfig(**kw), RngRegistry(seed).stream("leach"))

    def test_threshold_formula(self):
        e = self._election()
        p = 0.05
        # Round 0: T = P; late in the epoch the threshold grows.
        assert e.threshold(0) == pytest.approx(p)
        assert e.threshold(10) == pytest.approx(p / (1 - p * 10))
        assert e.threshold(19) == pytest.approx(p / (1 - p * 19))

    def test_threshold_capped_at_one(self):
        e = self._election()
        assert e.threshold(19) <= 1.0

    def test_ch_fraction_over_epoch(self):
        # Over one epoch every node serves ~once -> fraction P per round.
        e = self._election(seed=7)
        alive = list(range(100))
        counts = []
        for r in range(20):
            counts.append(len(e.elect(r, alive)))
        assert sum(counts) == pytest.approx(100, abs=20)

    def test_no_node_serves_twice_per_epoch(self):
        e = self._election(seed=3)
        alive = list(range(100))
        served = []
        for r in range(20):
            served.extend(e.elect(r, alive))
        assert len(served) == len(set(served))

    def test_everyone_eligible_again_next_epoch(self):
        e = self._election(seed=5)
        alive = list(range(20))
        first_epoch = set()
        for r in range(20):
            first_epoch.update(e.elect(r, alive))
        second = e.elect(20, alive)  # new epoch
        assert set(second) <= set(alive)

    def test_at_least_one_head_always(self):
        e = self._election(seed=11)
        for r in range(50):
            assert len(e.elect(r, list(range(10)))) >= 1

    def test_dead_nodes_never_elected(self):
        e = self._election(seed=2)
        alive = [1, 3, 5]
        for r in range(10):
            assert set(e.elect(r, alive)) <= set(alive)

    def test_empty_network_rejected(self):
        with pytest.raises(ClusterError):
            self._election().elect(0, [])

    def test_shrinking_pool_restarts_epoch(self):
        e = self._election(ch_fraction=0.5, seed=4)  # epoch = 2 rounds
        alive = [0, 1]
        heads = [e.elect(r, alive) for r in range(6)]
        assert all(len(h) >= 1 for h in heads)

    def test_service_counts_balanced(self):
        e = self._election(seed=9)
        alive = list(range(50))
        for r in range(100):  # 5 epochs
            e.elect(r, alive)
        counts = np.array([e.service_counts.get(n, 0) for n in alive])
        # LEACH rotation: everyone served, spread is tight.
        assert counts.min() >= 1
        assert counts.max() - counts.min() <= 4


class TestClusterFormation:
    def test_membership_covers_alive(self):
        topo = Topology.uniform(30, 100.0, RngRegistry(6).stream("t"))
        e = LeachElection(LeachConfig(), RngRegistry(6).stream("e"))
        alive = list(range(30))
        asg = e.form_clusters(0, alive, topo)
        assert set(asg.membership) == set(alive)
        assert all(h in asg.heads for h in set(asg.membership.values()))

    def test_heads_map_to_themselves(self):
        topo = Topology.uniform(30, 100.0, RngRegistry(8).stream("t"))
        e = LeachElection(LeachConfig(), RngRegistry(8).stream("e"))
        asg = e.form_clusters(0, list(range(30)), topo)
        for h in asg.heads:
            assert asg.membership[h] == h

    def test_members_of(self):
        topo = Topology.grid(9, 30.0)
        e = LeachElection(LeachConfig(ch_fraction=0.34), RngRegistry(1).stream("e"))
        asg = e.form_clusters(0, list(range(9)), topo)
        total = sum(len(asg.members_of(h)) for h in asg.heads) + len(asg.heads)
        assert total == 9
        assert asg.n_clusters == len(asg.heads)

    def test_sensors_join_nearest_head(self):
        asg = ClusterAssignment(0, (0, 1), {0: 0, 1: 1, 2: 0})
        assert asg.members_of(0) == [2]
