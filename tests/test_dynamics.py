"""The network-dynamics subsystem: churn, regime shifts, adversity.

Four contracts are pinned here:

* **inertness** — the all-default dynamics block builds nothing and the
  static simulation is bit-identical (the golden SHA-256 render hashes
  in test_perf_golden.py are the byte-level proof; this module pins the
  structural side);
* **conservation** — every generated packet is accounted exactly once
  across delivered / lost / dropped / orphaned / still-queued, even when
  its source churn-fails mid-flight;
* **determinism** — scripted and stochastic timelines are bit-identical
  across same-seed runs, and ``ext-dynamics`` renders identically under
  any executor and through a store round-trip;
* **semantics** — failed nodes go dark and sit out clustering, recovered
  nodes re-enter at the next round, regime shifts move every active
  link's mean SNR at once.
"""

import dataclasses
import json

import pytest

from repro.api import (
    RunOptions,
    Scenario,
    get_experiment,
    simulate,
    use_executor,
)
from repro.api.store import ResultStore
from repro.channel import LinkBudget
from repro.config import DynamicsConfig, NetworkConfig, Protocol
from repro.dynamics import EventTimeline
from repro.errors import ConfigError
from repro.network import NodeRole, SensorNetwork
from repro.rng import RngRegistry
from repro.service import replay
from repro.sim import Simulator, Tracer
from repro.traffic.sources import OnOffSource, PoissonSource


def _cfg(**dyn):
    cfg = NetworkConfig(n_nodes=12, protocol=Protocol.PURE_LEACH, seed=7)
    return cfg.with_dynamics(**dyn) if dyn else cfg


# ---------------------------------------------------------------------------
# Config block
# ---------------------------------------------------------------------------


class TestDynamicsConfig:
    def test_default_block_is_inert(self):
        cfg = NetworkConfig()
        assert cfg.dynamics == DynamicsConfig()
        assert not cfg.dynamics.enabled
        assert not cfg.dynamics.churn_enabled

    def test_each_knob_enables(self):
        assert DynamicsConfig(failure_rate_hz=0.1).enabled
        assert DynamicsConfig(scripted_failures=((1.0, 0),)).enabled
        assert DynamicsConfig(scripted_recoveries=((1.0, 0),)).enabled
        assert DynamicsConfig(battery_jitter=0.2).enabled
        assert DynamicsConfig(bursty_fraction=0.5).enabled
        assert DynamicsConfig(
            regime_mean_interval_s=5.0, regime_sigma_db=3.0
        ).enabled

    def test_regime_needs_interval_and_sigma(self):
        assert not DynamicsConfig(regime_mean_interval_s=5.0,
                                  regime_sigma_db=0.0).enabled
        assert not DynamicsConfig(regime_mean_interval_s=0.0).enabled

    @pytest.mark.parametrize("bad", [
        dict(failure_rate_hz=-1.0),
        dict(mean_downtime_s=-1.0),
        dict(battery_jitter=1.0),
        dict(battery_jitter=-0.1),
        dict(regime_mean_interval_s=-1.0),
        dict(regime_sigma_db=-1.0),
        dict(bursty_fraction=1.5),
        dict(scripted_failures=((-1.0, 0),)),
        dict(scripted_failures=((1.0, -2),)),
        dict(scripted_failures=((1.0, 1.5),)),
    ])
    def test_validation(self, bad):
        with pytest.raises(ConfigError):
            DynamicsConfig(**bad)

    def test_dict_round_trip_with_scripted_events(self):
        cfg = _cfg(
            failure_rate_hz=0.01,
            scripted_failures=((2.0, 3), (4.5, 0)),
            scripted_recoveries=((6.0, 3),),
            battery_jitter=0.25,
            regime_mean_interval_s=10.0,
            bursty_fraction=0.5,
        )
        # Through JSON: tuples become nested lists and must come back.
        data = json.loads(json.dumps(cfg.to_dict()))
        assert NetworkConfig.from_dict(data) == cfg

    def test_scenario_with_dynamics(self):
        s = Scenario().with_dynamics(failure_rate_hz=0.02)
        assert s.config.dynamics.failure_rate_hz == 0.02
        assert s.with_sub("dynamics", bursty_fraction=0.1) \
                .config.dynamics.bursty_fraction == 0.1


# ---------------------------------------------------------------------------
# Structural inertness when disabled
# ---------------------------------------------------------------------------


class TestDisabledIsInert:
    def test_no_timeline_no_tracking(self):
        net = SensorNetwork(_cfg())
        assert net.timeline is None
        assert net.stats.delivered_bits_by_source is None

    def test_homogeneous_batteries_and_sources(self):
        net = SensorNetwork(_cfg())
        base = net.cfg.energy.initial_energy_j
        assert all(n.battery.capacity_j == base for n in net.nodes)
        assert all(isinstance(n.source, PoissonSource) for n in net.nodes)

    def test_no_dynamics_streams_created(self):
        net = SensorNetwork(_cfg())
        net.run_until(15.0)
        assert not any(name.startswith("dynamics/")
                       for name in net.rngs.names())

    def test_run_result_dynamics_fields_inert(self):
        run = simulate(_cfg(), RunOptions(horizon_s=12.0, sample_interval_s=4.0))
        assert run.churn_failures == 0 and run.churn_recoveries == 0
        assert run.regime_shifts == 0 and run.orphaned == 0
        assert run.first_failure_s is None
        assert run.up_counts == []
        assert run.lifetime_effective_s == run.lifetime_s
        assert run.survivor_throughput_bps == 0.0
        if run.delivery_rate is not None:
            assert run.delivery_rate_offered == run.delivery_rate


# ---------------------------------------------------------------------------
# Scripted churn
# ---------------------------------------------------------------------------


class TestScriptedChurn:
    def test_fail_and_recover_apply_at_times(self):
        net = SensorNetwork(_cfg(scripted_failures=((3.0, 2),),
                                 scripted_recoveries=((9.0, 2),)))
        net.run_until(4.0)
        node = net.nodes[2]
        assert node.failed and not node.is_up and node.alive
        assert not node.source.is_running
        assert node.last_failure_s == 3.0
        assert net.up_count == 11 and net.alive_count == 12
        net.run_until(10.0)
        assert node.is_up and node.source.is_running
        assert net.stats.churn_failures == 1
        assert net.stats.churn_recoveries == 1
        assert net.stats.first_failure_s == 3.0

    def test_failed_node_sits_out_clustering(self):
        cfg = _cfg(scripted_failures=((3.0, 2),))
        net = SensorNetwork(cfg)
        # Across several rounds the down node must never attach nor head.
        round_s = cfg.leach.round_duration_s
        for k in range(1, 4):
            net.run_until(3.0 + k * round_s)
            node = net.nodes[2]
            assert not node.mac.is_attached
            assert node.role is not NodeRole.HEAD

    def test_recovered_node_rejoins_next_round(self):
        cfg = _cfg(scripted_failures=((3.0, 2),),
                   scripted_recoveries=((12.0, 2),))
        net = SensorNetwork(cfg)
        net.run_until(12.5)
        generated_down = net.nodes[2].source.generated
        # Next round boundary re-clusters the recovered node.
        net.run_until(45.0)
        node = net.nodes[2]
        assert node.is_up
        assert node.source.generated > generated_down
        assert node.mac.is_attached or node.role is NodeRole.HEAD

    def test_recovery_of_battery_dead_node_is_noop(self):
        net = SensorNetwork(_cfg(scripted_failures=((3.0, 2),),
                                 scripted_recoveries=((9.0, 2),)))
        net.run_until(4.0)
        net.nodes[2].battery.draw(1e9)
        assert not net.nodes[2].alive
        net.run_until(10.0)
        assert not net.nodes[2].is_up
        assert net.stats.churn_recoveries == 0

    def test_double_failure_counts_once(self):
        net = SensorNetwork(_cfg(scripted_failures=((3.0, 2), (4.0, 2))))
        net.run_until(5.0)
        assert net.stats.churn_failures == 1

    def test_scripted_kill_outranks_stochastic_repair(self):
        """A node on the kill list stays down until its scripted
        recovery, even when the Poisson repair chain fires meanwhile."""
        cfg = NetworkConfig(
            n_nodes=10, protocol=Protocol.PURE_LEACH, seed=11
        ).with_dynamics(
            failure_rate_hz=0.02,
            mean_downtime_s=8.0,
            scripted_failures=((5.0, 4),),
        )
        net = SensorNetwork(cfg)
        net.run_until(200.0)
        node = net.nodes[4]
        assert not node.alive or node.failed  # never revived

    def test_scripted_id_out_of_range_rejected(self):
        cfg = _cfg(scripted_failures=((1.0, 99),))
        with pytest.raises(ConfigError, match="node 99"):
            SensorNetwork(cfg)

    def test_head_failure_detaches_members(self):
        net = SensorNetwork(_cfg(scripted_failures=()))
        net.run_until(5.0)
        head = next(n for n in net.nodes if n.role is NodeRole.HEAD)
        members = [n for n in net.nodes
                   if n.mac.is_attached and n is not head]
        net._fail_node(head.id)
        assert head.failed and head.role is NodeRole.SENSOR
        for m in members:
            assert not m.mac.is_attached
        # The network keeps running and re-clusters next round.
        net.run_until(45.0)
        assert net.sim.now == 45.0


# ---------------------------------------------------------------------------
# Stochastic churn determinism
# ---------------------------------------------------------------------------


def _churn_trace(seed: int):
    cfg = NetworkConfig(
        n_nodes=10, protocol=Protocol.PURE_LEACH, seed=seed
    ).with_dynamics(failure_rate_hz=0.02, mean_downtime_s=8.0)
    tracer = Tracer()
    net = SensorNetwork(cfg, tracer=tracer)
    net.run_until(80.0)
    return net, [
        (a.time, a.kind, a.data.get("node"))
        for a in tracer.annotations
        if a.kind in ("node.fail", "node.recover")
    ]


class TestStochasticChurn:
    def test_same_seed_same_timeline(self):
        net_a, trace_a = _churn_trace(11)
        net_b, trace_b = _churn_trace(11)
        assert trace_a == trace_b
        assert net_a.stats.churn_failures == net_b.stats.churn_failures
        assert net_a.stats.orphaned == net_b.stats.orphaned

    def test_different_seed_different_timeline(self):
        _, trace_a = _churn_trace(11)
        _, trace_b = _churn_trace(12)
        assert trace_a != trace_b

    def test_failures_do_happen_and_recover(self):
        net, trace = _churn_trace(11)
        kinds = [kind for _, kind, _ in trace]
        assert "node.fail" in kinds and "node.recover" in kinds
        assert net.stats.first_failure_s == min(
            t for t, kind, _ in trace if kind == "node.fail"
        )

    def test_zero_downtime_means_permanent(self):
        cfg = NetworkConfig(
            n_nodes=10, protocol=Protocol.PURE_LEACH, seed=11
        ).with_dynamics(failure_rate_hz=0.05, mean_downtime_s=0.0)
        net = SensorNetwork(cfg)
        net.run_until(60.0)
        assert net.stats.churn_failures > 0
        assert net.stats.churn_recoveries == 0
        assert all(n.failed for n in net.nodes
                   if n.alive and n.last_failure_s is not None)


# ---------------------------------------------------------------------------
# Conservation: every packet accounted exactly once under churn
# ---------------------------------------------------------------------------


def _conservation_totals(net: SensorNetwork):
    """(generated, accounted) after quiescing in-flight bursts."""
    # Detach every MAC: an in-flight burst aborts on the ledger and its
    # packets requeue, so afterwards every undelivered packet the nodes
    # still own is sitting in a buffer.
    for node in net.nodes:
        if node.mac.is_attached:
            node.mac.detach()
    queued = sum(len(n.buffer) for n in net.nodes)
    s = net.stats
    accounted = (
        s.total_delivered
        + s.lost_channel
        + net.dropped_overflow()
        + net.dropped_retry()
        + s.orphaned
        + s.uplink_undelivered
        + queued
    )
    return net.generated_packets(), accounted


class TestChurnConservation:
    def test_counts_conserved_under_scripted_midround_churn(self):
        # Failures dropped mid-round at staggered instants: queues are
        # non-empty and bursts are frequently on the air at load 20.
        cfg = NetworkConfig(
            n_nodes=12, protocol=Protocol.CAEM_ADAPTIVE, seed=3
        ).with_traffic(packets_per_second=20.0).with_dynamics(
            scripted_failures=((5.03, 1), (5.07, 4), (11.31, 7), (26.2, 1)),
            scripted_recoveries=((15.0, 1), (30.0, 4)),
        )
        tracer = Tracer()
        net = SensorNetwork(cfg, tracer=tracer)
        net.run_until(35.0)
        assert net.stats.orphaned > 0, "churn must have orphaned packets"
        generated, accounted = _conservation_totals(net)
        assert generated == accounted
        # uid-level: nothing orphaned was also delivered (exactly-once).
        orphan_uids = set()
        for a in tracer.of_kind("node.fail"):
            orphan_uids.update(a.data["uids"])
        assert len(orphan_uids) == net.stats.orphaned

    def test_counts_conserved_under_stochastic_churn(self):
        cfg = NetworkConfig(
            n_nodes=12, protocol=Protocol.PURE_LEACH, seed=5
        ).with_traffic(packets_per_second=15.0).with_dynamics(
            failure_rate_hz=0.02, mean_downtime_s=10.0
        )
        net = SensorNetwork(cfg)
        net.run_until(60.0)
        generated, accounted = _conservation_totals(net)
        assert generated == accounted

    def test_counts_conserved_with_uplink_tier(self):
        # Churn + routed uplink: a failing head must strand its relay
        # cargo exactly once (uplink_stranded), not lose or double it.
        cfg = NetworkConfig(
            n_nodes=12, protocol=Protocol.CAEM_ADAPTIVE, seed=9
        ).with_traffic(packets_per_second=15.0).with_routing(
            mode="multihop"
        ).with_dynamics(failure_rate_hz=0.03, mean_downtime_s=10.0)
        net = SensorNetwork(cfg)
        net.run_until(60.0)
        # Quiesce relays too: leftovers return to up heads' buffers or
        # strand (the round-teardown path).
        net._teardown_round()
        generated, accounted = _conservation_totals(net)
        assert generated == accounted

    def test_delivered_and_orphaned_disjoint(self):
        cfg = NetworkConfig(
            n_nodes=12, protocol=Protocol.PURE_LEACH, seed=3
        ).with_traffic(packets_per_second=20.0).with_dynamics(
            scripted_failures=((5.03, 1), (11.31, 7),),
        )
        tracer = Tracer()
        net = SensorNetwork(cfg, tracer=tracer)
        delivered_uids = set()
        original = net.stats.on_delivered

        def spy(packets, sender_id, now):
            delivered_uids.update(p.uid for p in packets)
            original(packets, sender_id, now)

        net.stats.on_delivered = spy
        net.run_until(30.0)
        orphan_uids = set()
        for a in tracer.of_kind("node.fail"):
            orphan_uids.update(a.data["uids"])
        assert orphan_uids
        assert not (orphan_uids & delivered_uids)


# ---------------------------------------------------------------------------
# Regime shifts
# ---------------------------------------------------------------------------


class TestRegimeShifts:
    def _running_net(self, **dyn):
        net = SensorNetwork(_cfg(**dyn))
        net.run_until(2.0)
        return net

    def test_shift_moves_every_active_link(self):
        net = self._running_net()
        links = [n.mac.link for n in net.nodes if n.mac.link is not None]
        assert links
        before = [link.mean_snr_db for link in links]
        net._apply_regime_shift(5.0)
        for link, b in zip(links, before):
            assert link.mean_snr_db == pytest.approx(b + 5.0)
        # A second shift applies the delta, not the sum.
        net._apply_regime_shift(2.0)
        for link, b in zip(links, before):
            assert link.mean_snr_db == pytest.approx(b + 2.0)
        assert net.stats.regime_shifts == 2

    def test_links_born_under_regime_inherit_offset(self):
        net = self._running_net()
        net._apply_regime_shift(-6.0)
        net.run_until(25.0)  # at least one round boundary passed
        budget = LinkBudget.from_config(net.cfg.channel)
        fresh = [n for n in net.nodes if n.mac.link is not None]
        assert fresh
        for node in fresh:
            link = node.mac.link
            assert link.mean_snr_db == pytest.approx(
                budget.mean_snr_db(link.distance_m) - 6.0
            )

    def test_stochastic_regime_stream_determinism(self):
        def shifts(seed):
            cfg = NetworkConfig(
                n_nodes=10, protocol=Protocol.PURE_LEACH, seed=seed
            ).with_dynamics(regime_mean_interval_s=5.0, regime_sigma_db=4.0)
            tracer = Tracer()
            net = SensorNetwork(cfg, tracer=tracer)
            net.run_until(60.0)
            return [(a.time, a.data["offset_db"])
                    for a in tracer.of_kind("regime.shift")]

        a, b = shifts(21), shifts(21)
        assert a and a == b
        assert shifts(22) != a

    def test_shift_does_not_touch_channel_streams(self):
        """Shifting a link's mean must not consume link-stream draws:
        the shifted link keeps sampling the identical shadowing/fading
        noise, so same-time queries differ by exactly the offset."""
        from repro.channel import Link
        from repro.config import ChannelConfig

        cfg = ChannelConfig()
        budget = LinkBudget.from_config(cfg)
        plain = Link(35.0, budget, cfg, RngRegistry(5).stream("l"))
        shifted = Link(35.0, budget, cfg, RngRegistry(5).stream("l"))
        shifted.shift_mean_snr_db(10.0)
        for k in range(1, 40):
            t = 0.03 * k
            assert shifted.snr_db(t) - plain.snr_db(t) == pytest.approx(10.0)


# ---------------------------------------------------------------------------
# Heterogeneous batteries and bursty sources
# ---------------------------------------------------------------------------


class TestConstructionAdversity:
    def test_battery_jitter_bounds_and_determinism(self):
        cfg = _cfg(battery_jitter=0.4)
        base = cfg.energy.initial_energy_j
        caps_a = [n.battery.capacity_j for n in SensorNetwork(cfg).nodes]
        caps_b = [n.battery.capacity_j for n in SensorNetwork(cfg).nodes]
        assert caps_a == caps_b
        assert len(set(caps_a)) > 1
        assert all(0.6 * base <= c <= 1.4 * base for c in caps_a)

    def test_bursty_fraction_extremes(self):
        all_bursty = SensorNetwork(_cfg(bursty_fraction=1.0))
        assert all(isinstance(n.source, OnOffSource)
                   for n in all_bursty.nodes)
        # jitter-only dynamics keeps sources Poisson.
        none_bursty = SensorNetwork(_cfg(battery_jitter=0.1))
        assert all(isinstance(n.source, PoissonSource)
                   for n in none_bursty.nodes)

    def test_bursty_pick_is_deterministic(self):
        cfg = _cfg(bursty_fraction=0.5)
        picks_a = [isinstance(n.source, OnOffSource)
                   for n in SensorNetwork(cfg).nodes]
        picks_b = [isinstance(n.source, OnOffSource)
                   for n in SensorNetwork(cfg).nodes]
        assert picks_a == picks_b
        assert any(picks_a) and not all(picks_a)


# ---------------------------------------------------------------------------
# Engine harvest: churn-aware metrics
# ---------------------------------------------------------------------------


class TestEngineHarvest:
    def _run(self, **dyn):
        cfg = NetworkConfig(
            n_nodes=12, protocol=Protocol.PURE_LEACH, seed=3
        ).with_traffic(packets_per_second=15.0).with_dynamics(**dyn)
        return simulate(
            cfg, RunOptions(horizon_s=40.0, sample_interval_s=5.0)
        )

    def test_churn_fields_populated(self):
        run = self._run(failure_rate_hz=0.02, mean_downtime_s=10.0)
        assert run.churn_failures > 0
        assert run.first_failure_s is not None
        assert run.up_counts and len(run.up_counts) == len(run.alive_counts)
        # At some sample, churn had nodes down while batteries held.
        assert any(u < a for u, a in zip(run.up_counts, run.alive_counts))
        assert run.survivor_throughput_bps > 0

    def test_offered_denominator_excludes_orphans(self):
        run = self._run(
            scripted_failures=((5.03, 1), (11.31, 7)),
        )
        assert run.orphaned > 0
        assert run.delivery_rate_offered > run.delivery_rate
        expected = run.total_delivered / (run.generated - run.orphaned)
        assert run.delivery_rate_offered == pytest.approx(expected)

    def test_effective_lifetime_counts_permanent_failures(self):
        # Permanently fail most of the field early: the battery-based
        # lifetime never triggers, the churn-aware one must.
        kills = tuple((4.0 + 0.1 * i, i) for i in range(11))
        run = self._run(scripted_failures=kills)
        assert run.lifetime_s is None
        assert run.lifetime_effective_s is not None
        assert 4.0 <= run.lifetime_effective_s <= 5.2

    def test_survivor_throughput_excludes_down_sources(self):
        run = self._run(scripted_failures=((8.0, 1), (8.0, 2), (8.0, 3)))
        full = self._run()
        assert run.survivor_throughput_bps < full.throughput_bps
        assert full.survivor_throughput_bps == 0.0  # dynamics off: unset


# ---------------------------------------------------------------------------
# The ext-dynamics experiment
# ---------------------------------------------------------------------------


class TestExtDynamicsExperiment:
    def test_registered(self):
        spec = get_experiment("ext-dynamics")
        assert spec.kind == "extension"

    def test_smoke_render_and_store_round_trip(self, tmp_path):
        spec = get_experiment("ext-dynamics")
        fig = spec.run(
            preset="smoke", seeds=(1,), churn_rates_hz=(0.0, 0.01)
        )
        assert len(fig.rows) == 6  # 3 protocols x 2 churn rates
        text = fig.render()
        assert "churn_hz" in text and "survivor_kbps" in text
        store = ResultStore(tmp_path / "runs.jsonl")
        store.extend(fig.runs)
        with replay(store):
            refig = spec.run(
                preset="smoke", seeds=(1,), churn_rates_hz=(0.0, 0.01)
            )
        assert refig.render() == text

    @pytest.mark.slow
    def test_bit_identical_across_jobs(self):
        spec = get_experiment("ext-dynamics")
        serial = spec.run(preset="smoke", seeds=(1, 2))
        with use_executor("pool:4"):
            parallel = spec.run(preset="smoke", seeds=(1, 2))
        assert serial.render() == parallel.render()
        for a, b in zip(serial.runs, parallel.runs):
            da, db = dataclasses.asdict(a), dataclasses.asdict(b)
            da.pop("wall_time_s"), db.pop("wall_time_s")
            assert da == db


# ---------------------------------------------------------------------------
# Timeline unit behaviour
# ---------------------------------------------------------------------------


class TestEventTimeline:
    def _timeline(self, cfg_kwargs, n_nodes=4):
        sim = Simulator()
        applied = []
        tl = EventTimeline(
            sim,
            DynamicsConfig(**cfg_kwargs),
            RngRegistry(1),
            n_nodes,
            fail=lambda i: applied.append(("fail", sim.now, i)),
            recover=lambda i: applied.append(("recover", sim.now, i)),
            regime_shift=lambda o: applied.append(("regime", sim.now, o)),
        )
        return sim, tl, applied

    def test_scripted_order(self):
        sim, tl, applied = self._timeline(dict(
            scripted_failures=((2.0, 1), (1.0, 0)),
            scripted_recoveries=((3.0, 0),),
        ))
        tl.start()
        sim.run()
        assert applied == [
            ("fail", 1.0, 0), ("fail", 2.0, 1), ("recover", 3.0, 0),
        ]

    def test_start_is_idempotent(self):
        sim, tl, applied = self._timeline(dict(
            scripted_failures=((1.0, 0),),
        ))
        tl.start()
        tl.start()
        sim.run()
        assert len(applied) == 1

    def test_disabled_schedules_nothing(self):
        sim, tl, applied = self._timeline({})
        tl.start()
        sim.run()
        assert applied == [] and sim.now == 0.0

    def test_stochastic_chain_alternates_per_node(self):
        sim, tl, applied = self._timeline(dict(
            failure_rate_hz=0.05, mean_downtime_s=5.0
        ))
        tl.start()
        sim.run_until(400.0)
        for node in range(4):
            kinds = [k for k, _, i in applied if i == node]
            assert kinds, "every node's chain fires eventually"
            # Strict fail/recover alternation, starting with a failure.
            assert kinds == ["fail", "recover"] * (len(kinds) // 2) + (
                ["fail"] if len(kinds) % 2 else []
            )
