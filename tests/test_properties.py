"""Property-based tests (hypothesis) on core data structures and invariants."""

import dataclasses
import math

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.api import RunOptions
from repro.channel import GaussMarkovShadowing, RayleighFading
from repro.config import MacConfig, NetworkConfig, PhyConfig, Protocol
from repro.energy import Battery
from repro.experiments.figures import _mean_over_seeds
from repro.mac import BackoffPolicy
from repro.metrics import jain_index, mean_of, network_lifetime_s, queue_length_std
from repro.phy import AbicmTable, BPSK, QAM16, QPSK
from repro.policy import AdaptiveThresholdPolicy, ThresholdLadder
from repro.config import PolicyConfig
from repro.rng import RngRegistry
from repro.sim import EventQueue, Simulator
from repro.traffic import Packet, PacketBuffer
from repro.units import db_to_linear, linear_to_db
from repro.vector.engine import VectorNetwork
from repro.vector.state import BatchReservoir

_TABLE = AbicmTable.from_config(PhyConfig())
_LADDER = ThresholdLadder(_TABLE)


class TestUnitProperties:
    @given(st.floats(min_value=-150, max_value=150))
    def test_db_roundtrip(self, db):
        assert linear_to_db(db_to_linear(db)) - db < 1e-9

    @given(st.floats(min_value=1e-12, max_value=1e12))
    def test_linear_roundtrip(self, x):
        assert math.isclose(db_to_linear(linear_to_db(x)), x, rel_tol=1e-9)

    @given(st.floats(min_value=-100, max_value=100),
           st.floats(min_value=-100, max_value=100))
    def test_db_addition_is_linear_multiplication(self, a, b):
        assert math.isclose(
            db_to_linear(a + b), db_to_linear(a) * db_to_linear(b), rel_tol=1e-9
        )


class TestSchedulerProperties:
    @given(st.lists(st.floats(min_value=0, max_value=1e6), min_size=1,
                    max_size=60))
    def test_events_pop_in_time_order(self, times):
        q = EventQueue()
        for t in times:
            q.push(t, lambda: None)
        popped = []
        while (call := q.pop()) is not None:
            popped.append(call.time)
        assert popped == sorted(times)

    @given(st.lists(st.floats(min_value=0, max_value=100), min_size=1,
                    max_size=40),
           st.data())
    def test_cancellation_never_loses_live_events(self, times, data):
        q = EventQueue()
        handles = [q.push(t, lambda: None) for t in times]
        to_cancel = data.draw(st.sets(
            st.integers(min_value=0, max_value=len(handles) - 1)))
        for i in to_cancel:
            handles[i].cancel()
        live = len(times) - len(to_cancel)
        assert len(q) == live
        popped = 0
        while q.pop() is not None:
            popped += 1
        assert popped == live

    @given(st.lists(st.floats(min_value=0.0, max_value=50.0), min_size=1,
                    max_size=30))
    def test_simulator_clock_is_monotone(self, delays):
        sim = Simulator()
        observed = []
        for d in delays:
            sim.call_in(d, lambda: observed.append(sim.now))
        sim.run()
        assert observed == sorted(observed)
        assert sim.now == max(delays)


class TestBerProperties:
    @given(st.floats(min_value=0.0, max_value=1e4))
    def test_ber_is_probability(self, snr):
        for mod in (BPSK, QPSK, QAM16):
            p = mod.ber(snr)
            assert 0.0 <= p <= 0.5

    @given(st.floats(min_value=0.01, max_value=100.0),
           st.floats(min_value=1.01, max_value=3.0))
    def test_ber_monotone_in_snr(self, snr, factor):
        for mod in (BPSK, QAM16):
            assert mod.ber(snr * factor) <= mod.ber(snr) + 1e-15

    @given(st.floats(min_value=0.0, max_value=60.0),
           st.integers(min_value=1, max_value=10_000))
    def test_per_is_probability_and_monotone_in_bits(self, snr_db, bits):
        mode = _TABLE.highest
        per1 = mode.packet_error_rate(snr_db, bits)
        per2 = mode.packet_error_rate(snr_db, bits + 100)
        assert 0.0 <= per1 <= 1.0
        assert per2 >= per1 - 1e-12

    @given(st.floats(min_value=-20.0, max_value=60.0))
    def test_mode_selection_respects_thresholds(self, snr_db):
        mode = _TABLE.mode_for_snr(snr_db)
        if mode is None:
            assert snr_db < _TABLE.lowest.threshold_db
        else:
            assert snr_db >= mode.threshold_db
            # And no faster mode would be admissible.
            for other in _TABLE:
                if other.throughput_bps > mode.throughput_bps:
                    assert snr_db < other.threshold_db


class TestChannelProperties:
    @given(st.integers(min_value=0, max_value=2**31 - 1),
           st.lists(st.floats(min_value=1e-4, max_value=5.0), min_size=1,
                    max_size=25))
    def test_fading_gain_positive_any_schedule(self, seed, gaps):
        fading = RayleighFading(0.1, RngRegistry(seed).stream("prop"))
        t = 0.0
        for gap in gaps:
            t += gap
            assert fading.power_gain(t) > 0.0

    @given(st.integers(min_value=0, max_value=2**31 - 1),
           st.lists(st.floats(min_value=1e-4, max_value=10.0), min_size=1,
                    max_size=25))
    def test_shadowing_finite_any_schedule(self, seed, gaps):
        shadow = GaussMarkovShadowing(6.0, 3.0, RngRegistry(seed).stream("p"))
        t = 0.0
        for gap in gaps:
            t += gap
            v = shadow.value_db(t)
            assert math.isfinite(v)


class TestBatteryProperties:
    @given(st.floats(min_value=0.01, max_value=100.0),
           st.lists(st.floats(min_value=0.0, max_value=10.0), max_size=50))
    def test_battery_never_negative_and_conserves(self, capacity, draws):
        b = Battery(capacity)
        total = 0.0
        for d in draws:
            total += b.draw(d)
        assert b.level_j >= 0.0
        assert math.isclose(b.level_j + total, capacity, rel_tol=1e-9)
        assert total <= capacity + 1e-9

    @given(st.floats(min_value=0.01, max_value=10.0))
    def test_depletion_flag_iff_empty(self, capacity):
        b = Battery(capacity)
        b.draw(capacity * 0.999)
        assert not b.is_depleted
        b.draw(capacity)
        assert b.is_depleted and b.level_j == 0.0


class TestBufferProperties:
    @given(st.integers(min_value=1, max_value=40),
           st.lists(st.integers(min_value=0, max_value=10), max_size=60))
    def test_fifo_order_and_conservation(self, capacity, take_sizes):
        buf = PacketBuffer(capacity=capacity)
        fed = []
        uid = 0
        taken = []
        for n in take_sizes:
            # Interleave: feed one, take n.
            p = Packet(0, float(uid), 100)
            uid += 1
            if buf.offer(p):
                fed.append(p.uid)
            taken.extend(x.uid for x in buf.take(n))
        taken.extend(x.uid for x in buf.take(len(buf)))
        assert taken == fed  # FIFO, nothing lost or duplicated
        assert buf.arrived == uid
        assert buf.arrived - buf.dropped == len(taken)

    @given(st.integers(min_value=1, max_value=10),
           st.integers(min_value=0, max_value=30))
    def test_never_exceeds_capacity(self, capacity, arrivals):
        buf = PacketBuffer(capacity=capacity)
        for i in range(arrivals):
            buf.offer(Packet(0, float(i), 100))
        assert len(buf) <= capacity


class TestBackoffProperties:
    @given(st.integers(min_value=0, max_value=20),
           st.integers(min_value=0, max_value=2**31 - 1))
    def test_backoff_within_bounds(self, retry, seed):
        policy = BackoffPolicy(MacConfig(), RngRegistry(seed).stream("b"))
        d = policy.delay_s(retry)
        assert 0.0 <= d <= policy.max_delay_s(retry)

    @given(st.integers(min_value=0, max_value=5))
    def test_max_delay_doubles(self, retry):
        policy = BackoffPolicy(MacConfig(), RngRegistry(0).stream("b"))
        assert math.isclose(
            policy.max_delay_s(retry + 1), 2 * policy.max_delay_s(retry)
        ) or policy.max_delay_s(retry + 1) == policy.max_delay_s(retry)


class TestPolicyProperties:
    @given(st.lists(st.integers(min_value=0, max_value=200), min_size=1,
                    max_size=120))
    def test_class_always_in_range(self, queue_lengths):
        policy = AdaptiveThresholdPolicy(_LADDER, PolicyConfig())
        t = 0.0
        for q in queue_lengths:
            t += 0.01
            policy.observe_arrival(q, t)
            assert 0 <= policy.threshold_class() <= _LADDER.highest_class

    @given(st.lists(st.integers(min_value=0, max_value=200), min_size=1,
                    max_size=120))
    def test_allows_iff_snr_clears_threshold(self, queue_lengths):
        policy = AdaptiveThresholdPolicy(_LADDER, PolicyConfig())
        t = 0.0
        for q in queue_lengths:
            t += 0.01
            policy.observe_arrival(q, t)
            th = policy.threshold_db()
            assert policy.allows(th + 0.1)
            assert not policy.allows(th - 0.1)


class TestMetricProperties:
    @given(st.lists(st.floats(min_value=0, max_value=1e4), min_size=1,
                    max_size=50))
    def test_queue_std_nonnegative(self, queues):
        assert queue_length_std(queues) >= 0.0

    @given(st.lists(st.floats(min_value=1e-6, max_value=1e3), min_size=1,
                    max_size=50))
    def test_jain_bounds(self, shares):
        j = jain_index(shares)
        assert 1.0 / len(shares) - 1e-9 <= j <= 1.0 + 1e-9

    @given(st.lists(st.one_of(st.none(),
                              st.floats(min_value=0.1, max_value=1e4)),
                    min_size=1, max_size=80),
           st.floats(min_value=0.05, max_value=0.99))
    def test_lifetime_is_an_observed_death_or_none(self, deaths, frac):
        n = len(deaths)
        lt = network_lifetime_s(deaths, n, frac)
        observed = [d for d in deaths if d is not None]
        if lt is not None:
            assert lt in observed
            # At lt, the dead fraction strictly exceeds frac.
            dead_at = sum(1 for d in observed if d <= lt)
            assert dead_at / n > frac


_FINITE = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def _finite_lists(draw):
    # Lengths drawn uniformly, so lists cross numpy's pairwise lengths
    # (8, 128 and the 256 split) as often as short ones.
    n = draw(st.integers(min_value=1, max_value=400))
    return draw(st.lists(_FINITE, min_size=n, max_size=n))


@st.composite
def _seed_series(draw):
    # seeds x samples; one sample per seed is numpy's pairwise case.
    samples = draw(st.sampled_from([1, 1, 2, 3, 7]))
    seeds = draw(st.integers(min_value=1, max_value=300 if samples == 1 else 40))
    flat = draw(st.lists(_FINITE, min_size=seeds * samples,
                         max_size=seeds * samples))
    return [flat[i:i + samples] for i in range(0, len(flat), samples)]


def _numpy(fn):
    with np.errstate(all="ignore"):  # overflow to inf is part of the contract
        return fn()


class TestNumpyExactStatistics:
    """The statistics a render computes without numpy equal numpy's bit for
    bit (``repr`` tells ``-0.0`` from ``0.0`` and matches any nan), so a
    re-rendered figure prints the bytes a numpy mean would."""

    @given(_finite_lists())
    @example([1e16] + [1.0] * 8)  # pairwise and in-order sums differ here
    @example([-0.0] * 8)  # the reduction starts from +0.0
    def test_mean_of_matches_numpy(self, xs):
        expected = _numpy(lambda: float(np.asarray(xs, dtype=float).mean()))
        assert repr(mean_of(xs)) == repr(expected)

    @given(_finite_lists())
    @example([1e16] + [1.0] * 8)
    def test_population_std_matches_numpy(self, xs):
        expected = _numpy(lambda: float(np.asarray(xs, dtype=float).std()))
        assert repr(queue_length_std(xs)) == repr(expected)

    @given(_seed_series())
    @example([[1e16]] + [[1.0]] * 8)  # one column: numpy sums it pairwise
    @example([[1e16, 1e16]] + [[1.0, 1.0]] * 8)  # columns: in seed order
    def test_mean_over_seeds_matches_numpy(self, per_seed):
        expected = _numpy(lambda: np.asarray(per_seed, dtype=float).mean(axis=0))
        assert [repr(v) for v in _mean_over_seeds(per_seed)] == [
            repr(float(v)) for v in expected
        ]


#: Energy charges as the vector engine books them: node ids with repeats
#: and joule values across the ledger's span.
_JOULES = st.floats(min_value=1e-12, max_value=1e3)
#: Contention delays with ties: a few exact repeats, some one blind
#: window (1e-3) apart, mixed with arbitrary values.
_TIED = st.one_of(st.sampled_from([0.0, 1e-3, 0.25, 0.5]), st.floats(0.0, 1.0))


@st.composite
def _charges(draw):
    n = draw(st.integers(min_value=1, max_value=30))
    ids = st.lists(st.integers(min_value=0, max_value=n - 1), max_size=20)
    charges = []
    for node_ids in draw(st.lists(ids, min_size=1, max_size=12)):
        vals = draw(st.lists(_JOULES, min_size=len(node_ids),
                             max_size=len(node_ids)))
        charges.append((np.asarray(node_ids, dtype=np.int64),
                        np.asarray(vals, dtype=float)))
    return n, charges


@st.composite
def _race(draw):
    h = draw(st.integers(min_value=1, max_value=6))
    k = draw(st.integers(min_value=1, max_value=30))
    cl = draw(st.lists(st.integers(0, h - 1), min_size=k, max_size=k))
    vals = draw(st.lists(_TIED, min_size=k, max_size=k))
    return h, np.asarray(cl, dtype=np.int64), np.asarray(vals, dtype=float)


_SEGMENTS = st.lists(
    st.lists(st.floats(min_value=-1.0, max_value=10.0), max_size=40),
    min_size=1, max_size=8,
)


def _bits(a):
    return np.asarray(a, dtype=float).tobytes()


class TestVectorExactReductions:
    """The vector engine's batched reductions equal the per-call ones they
    replaced, bit for bit, so one pass per step keeps every output byte."""

    @given(_charges())
    def test_bincount_demand_equals_add_at_sequence(self, drawn):
        n, charges = drawn
        expected = np.zeros(n)
        for ids, vals in charges:
            np.add.at(expected, ids, vals)
        got = np.bincount(
            np.concatenate([ids for ids, _vals in charges]),
            weights=np.concatenate([vals for _ids, vals in charges]),
            minlength=n,
        )
        assert _bits(got) == _bits(expected)

    @given(_charges(), st.sampled_from([1.0, 1.5]))
    def test_unit_ratio_ledger_skips_the_multiply(self, drawn, headroom):
        # No node over its level: every pro-rating ratio is exactly 1.0.
        n, charges = drawn
        demand = np.zeros(n)
        for ids, vals in charges:
            np.add.at(demand, ids, vals)
        spend = np.minimum(demand, demand * headroom)
        ratio = np.ones(n)
        pos = demand > 0
        ratio[pos] = spend[pos] / demand[pos]
        assert (ratio == 1.0).all()
        for ids, vals in charges:
            assert repr(float(vals.sum())) == repr(float((vals * ratio[ids]).sum()))

    @given(_race())
    def test_sort_free_race_equals_argsort_last_write(self, race):
        # The engine's race resolution against the stable descending
        # argsort it replaced: same winner (the last tied candidate in
        # cidx order), smallest and runner-up delays, window counts.
        h, cl, dly = race
        cidx = np.cumsum(np.arange(1, cl.size + 1) % 3 + 1)  # ascending rows
        order = np.argsort(-dly, kind="stable")
        want_w = np.full(h, -1, dtype=np.int64)
        want_w[cl[order]] = cidx[order]
        want_d1 = np.full(h, np.inf)
        want_d1[cl[order]] = dly[order]
        loser = want_w[cl] != cidx
        want_d2 = np.full(h, np.inf)
        np.minimum.at(want_d2, cl[loser], dly[loser])
        in_window = dly < want_d1[cl] + 1e-3
        want_count = np.zeros(h, dtype=np.int64)
        np.add.at(want_count, cl[in_window], 1)

        d1 = np.full(h, np.inf)
        np.minimum.at(d1, cl, dly)
        tie = dly == d1[cl]
        winner = np.full(h, -1, dtype=np.int64)
        winner[cl[tie]] = cidx[tie]
        sub = winner[cl] != cidx
        d2 = np.full(h, np.inf)
        np.minimum.at(d2, cl[sub], dly[sub])
        count = np.bincount(cl[dly < d1[cl] + 1e-3], minlength=h)
        assert winner.tolist() == want_w.tolist()
        assert _bits(d1) == _bits(want_d1)
        assert _bits(d2) == _bits(want_d2)
        assert count.tolist() == want_count.tolist()

    @given(_SEGMENTS, st.sampled_from(["none", "unreached", "crossed", "full"]),
           st.data())
    def test_segmented_reservoir_add_equals_one_add_per_segment(
        self, segments, case, data
    ):
        sizes = [len(seg) for seg in segments]
        total = sum(sizes)
        prefill = []
        cap = None
        if case == "unreached":
            cap = total + data.draw(st.integers(min_value=1, max_value=50))
        elif case == "crossed":
            inside = [i for i, size in enumerate(sizes) if size >= 2]
            if not inside:
                inside = [len(sizes)]
                segments, sizes = segments + [[0.5, 1.5]], sizes + [2]
            i = data.draw(st.sampled_from(inside))
            cap = sum(sizes[:i]) + data.draw(st.integers(1, sizes[i] - 1))
        elif case == "full":
            cap = data.draw(st.integers(min_value=1, max_value=20))
            prefill = [float(v) for v in range(cap + data.draw(st.integers(0, 5)))]
        seed = data.draw(st.integers(min_value=0, max_value=2**32 - 1))
        one = BatchReservoir(cap, np.random.default_rng(seed))
        batched = BatchReservoir(cap, np.random.default_rng(seed))
        for res in (one, batched):
            res.add(np.asarray(prefill))
        for seg in segments:
            one.add(np.asarray(seg, dtype=float))
        batched.add(
            np.asarray([v for seg in segments for v in seg], dtype=float), sizes
        )
        assert repr(batched.sum) == repr(one.sum)
        assert batched.count == one.count
        assert _bits(batched.samples()) == _bits(one.samples())
        assert batched.rng.random() == one.rng.random()


def _vector_net(cfg: NetworkConfig) -> VectorNetwork:
    return VectorNetwork(
        cfg.with_scale(backend="vector"),
        RunOptions(horizon_s=5.0, sample_interval_s=1.0),
    )


def _twin(rng: np.random.Generator) -> np.random.Generator:
    """A generator that continues exactly where ``rng`` stands."""
    twin = np.random.Generator(np.random.PCG64())
    twin.bit_generator.state = rng.bit_generator.state
    return twin


@st.composite
def _sources(draw):
    """A fresh network's traffic state: who is up, who is bursty and ON.

    Rates reach past 100 pkt/s so that a step's mean crosses 10, where
    numpy's Poisson sampler switches algorithm.
    """
    n = draw(st.integers(min_value=2, max_value=40))
    rate = draw(st.sampled_from([0.3, 5.0, 150.0]))
    onoff = draw(st.booleans())
    cfg = NetworkConfig(n_nodes=n, seed=draw(st.integers(1, 2**31))).with_traffic(
        packets_per_second=rate,
        buffer_packets=10_000,
        source_model="onoff" if onoff else "poisson",
    )
    if not onoff:
        cfg = cfg.with_dynamics(bursty_fraction=draw(st.sampled_from([0.0, 0.5])))
    net = _vector_net(cfg)
    mask = st.lists(st.booleans(), min_size=n, max_size=n)
    net.alive[:] = draw(mask)
    net.failed[:] = draw(mask)
    # Some sources switch phase inside the step, some more than once.
    switch = st.one_of(st.just(np.inf), st.floats(0.0, 0.12))
    net._on_switch[:] = draw(st.lists(switch, min_size=n, max_size=n))
    net._on_state[:] = draw(mask)
    sdt = draw(st.sampled_from([0.1, 0.05]))
    return net, sdt


def _full_pass_arrivals(net: VectorNetwork, sdt: float, rng) -> np.ndarray:
    """A step's arrivals at t=0 as one Poisson draw over every node (zeros
    where a node cannot send), then the ON/OFF chain node by node and one
    draw over every ON/OFF source."""
    up = net.up
    traffic = net.cfg.traffic
    k = rng.poisson(np.where(up & ~net._bursty, traffic.packets_per_second, 0.0) * sdt)
    ids = net._onoff_nodes
    if ids.size:
        on_frac = np.where(net._on_state[ids], sdt, 0.0)
        on_mean = traffic.onoff_on_s
        off_mean = traffic.onoff_off_s if traffic.onoff_off_s > 0 else on_mean
        for i, node in enumerate(ids):
            sw, on, on_time, seg = net._on_switch[node], net._on_state[node], 0.0, 0.0
            if sw > sdt:
                continue
            while sw <= sdt:
                if on:
                    on_time += sw - seg
                seg, on = max(sw, 0.0), not on
                sw += float(rng.exponential(on_mean if on else off_mean))
            on_frac[i] = on_time + (sdt - seg if on else 0.0)
        k[ids] = rng.poisson(np.where(up[ids], net._onoff_rate, 0.0) * on_frac)
    return k


@st.composite
def _rings(draw):
    """Ring buffers mid-run: wrapped starts, empty to full rings, heads."""
    n = draw(st.integers(min_value=2, max_value=30))
    B = draw(st.integers(min_value=1, max_value=8))

    def per_node(elems, dtype):
        return np.asarray(draw(st.lists(elems, min_size=n, max_size=n)), dtype=dtype)

    qstart = per_node(st.integers(0, B - 1), np.int64)
    qlen = per_node(st.sampled_from([0, B - 1, B]) | st.integers(0, B), np.int64)
    k = per_node(st.integers(0, B + 2), np.int64)
    is_head = per_node(st.booleans(), bool)
    return n, B, qstart, qlen, k, is_head


class TestVectorActiveNodes:
    """A step that touches only the nodes that act in it gives the bytes
    of the pass over every node it replaced."""

    @given(_sources())
    @settings(max_examples=60, deadline=None)
    def test_steady_poisson_over_live_sources_equals_full_draw(self, case):
        # (a) One scalar rate with a size, drawn over the up non-bursty
        # nodes, against an array of rates with zeros elsewhere.  Every
        # ON/OFF source stays OFF, so only the steady draw runs.
        net, sdt = case
        net._on_state[:] = False
        net._on_switch[:] = np.inf
        ref = _twin(net._traf_rng)
        k = _full_pass_arrivals(net, sdt, ref)
        nodes, counts = net._traffic_step(0.0, sdt, net.up)
        assert nodes.tolist() == np.flatnonzero(k).tolist()
        assert counts.tolist() == k[k > 0].tolist()
        assert net.generated == int(k.sum())
        assert net._traf_rng.random() == ref.random()

    @given(_sources())
    @settings(max_examples=60, deadline=None)
    def test_onoff_poisson_over_positive_rates_equals_full_draw(self, case):
        # (b) An array of rates restricted to its positive entries (the
        # up sources that were ON for part of the step) against the
        # whole array.
        net, sdt = case
        ref = _twin(net._traf_rng)
        k = _full_pass_arrivals(net, sdt, ref)
        nodes, counts = net._traffic_step(0.0, sdt, net.up)
        assert nodes.tolist() == np.flatnonzero(k).tolist()
        assert counts.tolist() == k[k > 0].tolist()
        assert net._traf_rng.random() == ref.random()

    @given(_rings(), st.integers(0, 2**31))
    @settings(max_examples=200, deadline=None)
    def test_one_scatter_enqueue_equals_per_packet_loop(self, rings, seed):
        # (c) The engine's enqueue against the loop it replaced: one
        # vector write per packet index j, over every node.
        n, B, qstart, qlen, k, is_head = rings
        net = _vector_net(NetworkConfig(n_nodes=n).with_traffic(buffer_packets=B))
        fill = np.random.default_rng(seed)
        net.qbirth[:] = fill.random((n, B))
        net.qsrc[:] = fill.integers(0, n, (n, B))
        net.qstart[:], net.qlen[:], net.is_head[:] = qstart, qlen, is_head
        want_birth, want_src = net.qbirth.copy(), net.qsrc.copy()
        want_len = qlen.copy()

        kk = np.where(is_head, 0, k)
        acc = np.minimum(kk, B - want_len)
        for j in range(int(acc.max())):
            sel = np.flatnonzero(acc > j)
            flat = sel * B + (qstart[sel] + want_len[sel] + j) % B
            want_birth.ravel()[flat] = 7.25
            want_src.ravel()[flat] = sel
        want_len += acc

        nodes, counts = net._enqueue(k, np.flatnonzero(k), 7.25)
        assert nodes.tolist() == np.flatnonzero(acc).tolist()
        assert counts.tolist() == acc[acc > 0].tolist()
        assert net.dropped_overflow == int((kk - acc).sum())
        assert net.qlen.tolist() == want_len.tolist()
        assert _bits(net.qbirth) == _bits(want_birth)
        assert net.qsrc.tolist() == want_src.tolist()

    @given(
        st.integers(1, 2**31),
        st.integers(min_value=15, max_value=80),
        st.sampled_from([2.0, 10.0, 40.0]),
        st.sampled_from(list(Protocol)),
        st.sampled_from([0, 1, 3]),
    )
    @settings(max_examples=25, deadline=None)
    def test_fixed_up_member_pass_equals_fresh_qualification(
        self, seed, n, load, protocol, max_retries
    ):
        # (d) The MAC's one member pass, re-qualified on the rows that
        # raced, against the access rule run afresh on every member
        # once the races are over.
        steps = []

        class Checked(VectorNetwork):
            def _mac_step(self, t0, t1):
                got = super()._mac_step(t0, t1)
                ids = self.m_ids
                live = self.attached[ids] & self.up[ids]
                assert got.tolist() == ids[self._qualifies(ids, t1) & live].tolist()
                steps.append(t1)
                return got

        cfg = NetworkConfig(n_nodes=n, seed=seed).with_traffic(
            packets_per_second=load
        ).with_protocol(protocol).with_dynamics(
            failure_rate_hz=0.05, mean_downtime_s=1.0
        )
        cfg = dataclasses.replace(
            cfg, mac=dataclasses.replace(cfg.mac, max_retries=max_retries)
        ).with_scale(backend="vector")
        Checked(cfg, RunOptions(horizon_s=4.0, sample_interval_s=1.0)).run()
        assert steps  # the MAC ran
