"""Scale-tier guardrails: pools, bounded stats, the ext-scale experiment.

Three contracts are pinned here:

* **byte-identity** — the link/MAC reuse pools and the spatial index
  change zero output bytes: the fig8-style static smoke scenario, the
  ext-dynamics adversity smoke scenario and a multihop uplink run are
  pinned as sha256 fingerprints of the whole ``RunResult`` (the
  ``tests/test_harvest.py`` recipe), the bytes the brute-force,
  fresh-allocation path also produced; a rebound ``Link`` and cache
  equal fresh ones draw for draw;
* **bounded memory** — series decimation and the delay reservoir hold
  their caps, keep exact means, and stay deterministic;
* **no stale callbacks** — round teardown leaves nothing of a recycled
  head stack armed in the event queue, including at t ≥ 1e9 where a
  same-instant zombie would freeze the clock (the ``strictly_after``
  regression discipline).
"""

import dataclasses
import hashlib
import json
import math

import numpy as np
import pytest

from repro.api import ResultStore, RunOptions, get_experiment, use_executor
from repro.api.engine import simulate
from repro.channel import Link, LinkBudget
from repro.config import ChannelConfig, NetworkConfig, Protocol, ScaleConfig
from repro.errors import ConfigError, ExperimentError, MacError
from repro.experiments.scale import scale_config
from repro.mac.tone import ToneBroadcaster
from repro.metrics import TimeSeriesCollector
from repro.network import SensorNetwork
from repro.network.stats import NetworkStats
from repro.rng import NormalBlockCache, RngRegistry
from repro.service import replay
from repro.sim import Simulator


def _fingerprint(cfg, options):
    data = simulate(cfg, options).to_dict()
    data.pop("wall_time_s")
    return hashlib.sha256(json.dumps(data, sort_keys=True).encode()).hexdigest()


class TestPoolByteIdentity:
    """The pooled, grid-indexed round path to the last field, on the smoke
    goldens' scenarios (fig8-style static run, the ext-dynamics adversity
    run) and a multihop uplink run."""

    def test_fig8_smoke_scenario_identical(self):
        cfg = NetworkConfig(n_nodes=12, seed=1).with_traffic(
            packets_per_second=5.0
        )
        opts = RunOptions(horizon_s=30.0, sample_interval_s=1.0)
        assert _fingerprint(cfg, opts) == (
            "92ffb15db4538fe93818393ea52e21d6"
            "7144599bc30ee138638aaef3ff207356"
        )

    def test_ext_dynamics_smoke_scenario_identical(self):
        cfg = NetworkConfig(n_nodes=12, seed=1).with_dynamics(
            failure_rate_hz=0.01,
            mean_downtime_s=10.0,
            battery_jitter=0.3,
            regime_mean_interval_s=10.0,
            regime_sigma_db=3.0,
            bursty_fraction=0.5,
        )
        opts = RunOptions(
            horizon_s=40.0, sample_interval_s=1.0, stop_when_dead=True
        )
        assert _fingerprint(cfg, opts) == (
            "b2b541dd6f372f0a4c10cc83e095d6b6"
            "ebf2f5bfa66f3ef1d088dc424ad029d8"
        )

    def test_uplink_scenario_identical(self):
        cfg = NetworkConfig(n_nodes=12, seed=2).with_routing(mode="multihop")
        opts = RunOptions(horizon_s=30.0, sample_interval_s=1.0)
        assert _fingerprint(cfg, opts) == (
            "44dc5cda7ba1085ffb07d11cf7428fd8"
            "af513b364f9781140db6c606ba31bae6"
        )

    @pytest.mark.parametrize("channel_cfg", [
        ChannelConfig(),                                    # fused path
        ChannelConfig(fading_kernel="jakes"),               # composed path
        ChannelConfig(rician_k=2.0),                        # composed path
        ChannelConfig(shadowing_sigma_db=0.0),              # no-draw shadowing
    ], ids=["fused", "jakes", "rician", "sigma0"])
    def test_rebound_link_equals_fresh_link(self, channel_cfg):
        budget = LinkBudget.from_config(channel_cfg)
        recycled = Link(20.0, budget, channel_cfg,
                        RngRegistry(9).stream("old"), "old", start_time_s=0.0)
        # Age the recycled link so its state is thoroughly non-initial.
        for i in range(1, 200):
            recycled.snr_db(0.05 * i)
        recycled.rebind(35.0, budget, RngRegistry(9).stream("new"), "new", 40.0)
        fresh = Link(35.0, budget, channel_cfg, RngRegistry(9).stream("new"),
                     "new", start_time_s=40.0)
        times = [40.0 + 0.03 * i for i in range(1, 400)]
        assert [recycled.snr_db(t) for t in times] == \
               [fresh.snr_db(t) for t in times]

    def test_rebound_cache_equals_fresh_cache(self):
        a = NormalBlockCache(np.random.default_rng(1), block_size=8)
        for _ in range(13):
            a.standard_normal()
        a.rebind(np.random.Generator(np.random.PCG64(77)))
        b = NormalBlockCache(np.random.Generator(np.random.PCG64(77)),
                             block_size=8)
        assert [a.standard_normal() for _ in range(30)] == \
               [b.standard_normal() for _ in range(30)]

    def test_registry_derive_matches_stream_without_caching(self):
        reg = RngRegistry(5)
        derived = reg.derive("once/only")
        assert "once/only" not in reg
        cached = RngRegistry(5).stream("once/only")
        assert derived.standard_normal(16).tolist() == \
               cached.standard_normal(16).tolist()

    def test_pools_actually_recycle(self):
        cfg = NetworkConfig(n_nodes=30, seed=1)
        net = SensorNetwork(cfg)
        net.run_until(45.0)  # several 20 s rounds... two boundaries
        assert net._link_pool  # members got pooled links
        pooled = set(map(id, net._link_pool.values()))
        attached = {
            id(n.mac.link) for n in net.nodes if n.mac.link is not None
        }
        assert attached <= pooled  # every live link came from the pool
        assert any(n._head_stack is not None for n in net.nodes)


class TestBoundedSeries:
    def _collector(self, cap):
        sim = Simulator()
        ticks = iter(range(10_000))
        col = TimeSeriesCollector(
            sim, 1.0, lambda: next(ticks), max_samples=cap
        )
        return sim, col

    def test_decimation_bounds_length_and_doubles_interval(self):
        sim, col = self._collector(8)
        col.start()
        sim.run_until(100.0)
        assert len(col.times) <= 9
        assert col.stride >= 8  # 101 samples needed several halvings
        # Uniform spacing at stride * base interval.
        gaps = {round(b - a, 6) for a, b in zip(col.times, col.times[1:])}
        assert gaps == {float(col.stride)}

    def test_decimated_series_is_subsample_of_exact(self):
        # The probe reads time-dependent state (like the real alive /
        # energy samplers), so a decimated series must equal the exact
        # series evaluated at the surviving sample times.
        sim_a = Simulator()
        exact = TimeSeriesCollector(sim_a, 1.0, lambda: sim_a.now * 2.0)
        exact.start()
        sim_a.run_until(60.0)
        sim_b = Simulator()
        bounded = TimeSeriesCollector(
            sim_b, 1.0, lambda: sim_b.now * 2.0, max_samples=8
        )
        bounded.start()
        sim_b.run_until(60.0)
        assert set(bounded.times) <= set(exact.times)
        assert bounded.values == [exact.values[exact.times.index(t)]
                                  for t in bounded.times]

    def test_exact_mode_untouched(self):
        sim, col = self._collector(None)
        col.max_samples = None
        col.start()
        sim.run_until(50.0)
        assert len(col.times) == 51 and col.stride == 1

    def test_rejects_tiny_or_odd_cap(self):
        sim = Simulator()
        with pytest.raises(ExperimentError):
            TimeSeriesCollector(sim, 1.0, lambda: 0, max_samples=1)
        with pytest.raises(ExperimentError):
            # Odd caps would overshoot by one sample before shrinking.
            TimeSeriesCollector(sim, 1.0, lambda: 0, max_samples=7)
        with pytest.raises(ExperimentError):
            RunOptions(horizon_s=10.0, max_series_samples=9)

    def test_engine_reports_stride(self):
        cfg = NetworkConfig(n_nodes=8, seed=1)
        res = simulate(cfg, RunOptions(horizon_s=40.0, sample_interval_s=0.5,
                                       max_series_samples=16))
        assert res.series_stride > 1
        assert len(res.sample_times_s) <= 17
        exact = simulate(cfg, RunOptions(horizon_s=40.0, sample_interval_s=0.5))
        assert exact.series_stride == 1
        # The bounded series is a subsample of the exact one.
        assert set(res.sample_times_s) <= set(exact.sample_times_s)


class TestDelayReservoir:
    def _stats(self, cap, seed=3):
        return NetworkStats(
            max_delay_samples=cap,
            reservoir_rng=RngRegistry(seed).stream("stats/reservoir"),
        )

    @staticmethod
    def _feed(stats, n, seed=0):
        from repro.traffic.packet import Packet

        rng = np.random.default_rng(seed)
        for i in range(n):
            p = Packet(source_id=i % 7, birth_s=0.0, size_bits=2048)
            stats.on_delivered([p], sender_id=0, now=float(rng.uniform(0, 9)))

    def test_cap_respected_and_mean_exact(self):
        bounded = self._stats(50)
        exact = NetworkStats()
        self._feed(bounded, 1000)
        self._feed(exact, 1000)
        assert len(bounded.delays_s) == 50
        assert bounded.delay_count == exact.delay_count == 1000
        assert bounded.mean_delay_s() == exact.mean_delay_s()
        # The reservoir is a subset of the true delays.
        assert set(bounded.delays_s) <= set(exact.delays_s)

    def test_reservoir_deterministic(self):
        a, b = self._stats(20), self._stats(20)
        self._feed(a, 500)
        self._feed(b, 500)
        assert a.delays_s == b.delays_s

    def test_exact_mode_is_default(self):
        stats = NetworkStats()
        self._feed(stats, 300)
        assert len(stats.delays_s) == 300

    def test_requires_rng(self):
        with pytest.raises(ValueError):
            NetworkStats(max_delay_samples=10)

    def test_hop_reservoir_bounded(self):
        from repro.traffic.packet import Packet

        stats = self._stats(10)
        for i in range(200):
            p = Packet(source_id=0, birth_s=0.0, size_bits=2048)
            stats.on_sink_delivered([p], [1 + i % 3], sender_id=0, now=1.0)
        assert len(stats.hop_counts) == 10
        assert stats.hop_count_n == 200
        assert stats.mean_hop_count() == pytest.approx(
            sum(1 + i % 3 for i in range(200)) / 200
        )

    def test_config_knob_reaches_stats(self):
        cfg = NetworkConfig(n_nodes=8, seed=1).with_scale(max_delay_samples=25)
        net = SensorNetwork(cfg)
        assert net.stats.max_delay_samples == 25
        net.run_until(30.0)
        assert len(net.stats.delays_s) <= 25
        assert net.stats.delay_count >= len(net.stats.delays_s)


class TestTeardownAudit:
    """No stale callbacks may survive head-stack recycling — including at
    t >= 1e9, where a same-instant zombie would freeze the clock."""

    @staticmethod
    def _stale_tone_events(net):
        stale = []
        for entry in net.sim._queue._heap:
            call = entry[3]
            if call.cancelled or call.fn is None:
                continue
            owner = getattr(call.fn, "__self__", None)
            if isinstance(owner, ToneBroadcaster) and not owner.is_running:
                stale.append(call)
        return stale

    def test_no_stale_tone_callbacks_across_rounds(self):
        cfg = NetworkConfig(n_nodes=20, seed=1)
        net = SensorNetwork(cfg)
        for t in (20.0, 40.0, 60.0):  # cross several round boundaries
            net.run_until(t + 0.001)
            assert self._stale_tone_events(net) == []

    def test_recycled_stack_quiescent_at_large_times(self):
        cfg = NetworkConfig(n_nodes=16, seed=2)
        net = SensorNetwork(cfg)
        net.sim._now = 1e9  # strictly_after regime: sub-ulp delays exist
        start = net.sim.now
        net.run_until(start + 41.0)  # two full rounds + re-formation
        assert net.sim.now > start
        assert self._stale_tone_events(net) == []
        recycled = [n for n in net.nodes if n._head_stack is not None]
        assert recycled  # rounds elected heads, stacks were pooled
        for node in recycled:
            channel, broadcaster, head_mac = node._head_stack
            if node.role.value != "head":
                assert not broadcaster.is_running
                assert broadcaster._pulse_handle is None
                assert not channel._active

    def test_broadcaster_reset_guards(self):
        sim = Simulator()
        cfg = NetworkConfig(n_nodes=4, seed=1)
        net = SensorNetwork(cfg)
        net.run_until(1.0)
        heads = [n for n in net.nodes if n.head_mac is not None]
        assert heads
        bc = heads[0].head_mac.broadcaster
        with pytest.raises(MacError):
            bc.reset()  # still running mid-round
        assert sim is not None

    def test_channel_reset_refuses_active_traffic(self):
        from repro.channel.medium import DataChannel

        chan = DataChannel(Simulator())
        chan.begin(1, 0.5)
        with pytest.raises(MacError):
            chan.reset()


class TestScaleConfig:
    def test_defaults_and_validation(self):
        cfg = ScaleConfig()
        # Two settable values: everything else on the round path is fixed.
        assert [f.name for f in dataclasses.fields(cfg)] == [
            "backend", "max_delay_samples"
        ]
        assert cfg.backend == "event"
        assert cfg.max_delay_samples is None
        with pytest.raises(ConfigError):
            ScaleConfig(backend="quantum")
        with pytest.raises(ConfigError):
            ScaleConfig(max_delay_samples=0)

    def test_dict_round_trip(self):
        cfg = NetworkConfig().with_scale(backend="vector", max_delay_samples=100)
        data = cfg.to_dict()
        assert data["scale"] == {"backend": "vector", "max_delay_samples": 100}
        again = NetworkConfig.from_dict(data)
        assert again == cfg
        assert again.scale.max_delay_samples == 100


class TestExtScaleExperiment:
    def test_scale_config_constant_density(self):
        a = scale_config(100, Protocol.CAEM_ADAPTIVE)
        b = scale_config(400, Protocol.CAEM_ADAPTIVE)
        assert a.field_size_m == 100.0
        assert b.field_size_m == pytest.approx(200.0)
        # Equal density ==> equal nodes per unit area.
        assert (100 / a.field_size_m ** 2) == pytest.approx(
            400 / b.field_size_m ** 2
        )
        assert a.scale.max_delay_samples is not None

    @staticmethod
    def _stored(tmp_path, fig):
        store = ResultStore(tmp_path / "runs.jsonl")
        store.extend(fig.runs)
        return store

    def test_smoke_run_and_store_round_trip(self, tmp_path):
        spec = get_experiment("ext-scale")
        fig = spec.run(preset="smoke", seeds=(1,))
        assert len(fig.rows) == 6  # 3 protocols x 2 sizes
        assert fig.headers[:2] == ["protocol", "nodes"]
        # Re-render from the recorded runs without re-simulating.
        with replay(self._stored(tmp_path, fig)):
            again = spec.run(preset="smoke", seeds=(1,))
        assert again.render() == fig.render()

    def test_cross_size_store_refused_not_mispaired(self, tmp_path):
        # Every ext-scale cell shares (protocol, load, seed, horizon), so
        # the store-resolution key must also carry the config digest:
        # re-rendering a store at different sizes has to fail loudly,
        # never silently pair the wrong network size to a row.
        spec = get_experiment("ext-scale")
        fig = spec.run(preset="smoke", seeds=(1,), node_counts=(30, 60))
        with replay(self._stored(tmp_path, fig)):
            with pytest.raises(ExperimentError, match="missing"):
                spec.run(preset="smoke", seeds=(1,), node_counts=(24, 48))

    def test_cross_churn_store_refused_not_mispaired(self, tmp_path):
        # Same latent mis-pair class for ext-dynamics: its cells differ
        # only in the dynamics sub-config, so without the digest a
        # churn-rate subset re-render would silently show the wrong
        # rows.  The digest refuses it.
        spec = get_experiment("ext-dynamics")
        fig = spec.run(preset="smoke", seeds=(1,),
                       churn_rates_hz=(0.0, 0.01))
        with replay(self._stored(tmp_path, fig)):
            with pytest.raises(ExperimentError, match="missing"):
                spec.run(preset="smoke", seeds=(1,), churn_rates_hz=(0.005,))
            # Matching grids still round-trip.
            again = spec.run(preset="smoke", seeds=(1,),
                             churn_rates_hz=(0.0, 0.01))
        assert again.render() == fig.render()

    def test_runs_are_stamped_with_network_size(self):
        spec = get_experiment("ext-scale")
        fig = spec.run(preset="smoke", seeds=(1,), node_counts=(30,))
        assert {r.n_nodes for r in fig.runs} == {30}

    def test_deterministic_fields_jobs_parity(self):
        spec = get_experiment("ext-scale")
        serial = spec.run(preset="smoke", seeds=(1,))
        with use_executor("pool:2"):
            twice = spec.run(preset="smoke", seeds=(1,))
        for a, b in zip(serial.runs, twice.runs):
            da, db = a.to_dict(), b.to_dict()
            da.pop("wall_time_s"), db.pop("wall_time_s")
            assert da == db

    def test_unknown_preset_rejected(self):
        with pytest.raises(ExperimentError):
            get_experiment("ext-scale").run(preset="galactic")

    def test_bench_scale_workload_matches_baseline_manifest(self):
        # BENCH_scale.json documents the workload bench_scale.py times;
        # keep the two in lockstep so speedups stay apples-to-apples.
        import json
        from pathlib import Path

        doc = json.loads(
            (Path(__file__).parent.parent / "benchmarks" / "BENCH_scale.json")
            .read_text()
        )
        assert doc["workload"]["horizon_s"] == 40.0
        cfg = scale_config(1000, Protocol.CAEM_ADAPTIVE, seed=1)
        assert cfg.seed == doc["workload"]["seed"]
        assert cfg.traffic.packets_per_second == doc["workload"]["load_pps"]
        assert cfg.field_size_m == pytest.approx(100.0 * math.sqrt(10.0))
        assert set(doc["baseline"]) == {"100", "300", "1000"}
