"""Backend equivalence: the vector engine against the event kernel.

The contract under test is the one :mod:`repro.vector.equivalence`
formalises — golden ``RunResult`` fields (run identity, sampling
timeline, RNG-driven placement/election/dynamics replay, death
bookkeeping on death-free runs) are *equal*; per-packet statistics agree
within calibrated bands.  Tier-1 covers N in {50, 200} across all five
canonical scenarios (static/uplink/dynamics plus the Jakes-Doppler and
Rician K=4 fading kernels); the N=1000 golden sweep and the N=5000
statistical check run under ``-m slow``.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math

import pytest

from repro.config import NetworkConfig, Protocol
from repro.errors import ExperimentError
from repro.vector.equivalence import (
    SCENARIOS,
    STAT_BANDS,
    compare_backends,
    default_options,
    scenario_config,
)


def _assert_clean(report: dict, stats_strict: bool = True) -> None:
    assert not report["golden_mismatches"], (
        f"golden mismatch in {report['scenario']} "
        f"N={report['n_nodes']} seed={report['seed']}: "
        f"{report['golden_mismatches']}"
    )
    if stats_strict:
        detail = {
            f: report["stats"][f] for f in report["stat_failures"]
        }
        assert not report["stat_failures"], (
            f"statistical band miss in {report['scenario']} "
            f"N={report['n_nodes']} seed={report['seed']}: {detail}"
        )


class TestGoldenEquivalence:
    @pytest.mark.parametrize("scenario", SCENARIOS)
    def test_n50(self, scenario):
        _assert_clean(compare_backends(scenario, 50, seed=3))

    @pytest.mark.parametrize("scenario", SCENARIOS)
    def test_n200(self, scenario):
        _assert_clean(compare_backends(scenario, 200, seed=3))

    @pytest.mark.slow
    @pytest.mark.parametrize("scenario", SCENARIOS)
    def test_n1000(self, scenario):
        _assert_clean(compare_backends(scenario, 1000, seed=3))

    @pytest.mark.slow
    def test_statistical_n5000(self):
        # Population scale: golden still exact, every band still holds
        # (delivery, throughput, energy, delay, generated volume).
        _assert_clean(compare_backends("static", 5000, seed=3))


class TestBackendSelection:
    def test_default_backend_unchanged(self):
        cfg = NetworkConfig(n_nodes=10, seed=1)
        assert cfg.scale.backend == "event"
        # Sparse serialisation: selecting the default never moves any
        # digest, so every pre-vector stored run stays addressable.
        assert cfg.digest() == cfg.with_scale(backend="event").digest()
        assert cfg.digest() != cfg.with_scale(backend="vector").digest()

    def test_dispatch_routes_to_vector(self):
        from repro.api import RunOptions, simulate

        cfg = scenario_config("static", 20, seed=3)
        opts = RunOptions(horizon_s=5.0, sample_interval_s=2.5)
        ev = simulate(cfg, opts)
        vec = simulate(cfg.with_scale(backend="vector"), opts)
        # Distinct engines, same run identity and timeline.
        assert vec.config_digest != ev.config_digest
        assert vec.sample_times_s == ev.sample_times_s
        assert vec.n_nodes == ev.n_nodes == 20

    def test_result_round_trips_through_store(self, tmp_path):
        from repro.api import RunOptions, simulate
        from repro.service import open_store

        cfg = scenario_config("static", 20, seed=3).with_scale(
            backend="vector"
        )
        run = simulate(cfg, RunOptions(horizon_s=5.0, sample_interval_s=2.5))
        store = open_store(tmp_path / "runs.sqlite")
        store.append(run)
        (back,) = store.load()
        assert back.to_dict() == run.to_dict()

    def test_full_channel_envelope_accepted(self):
        # Jakes and Rician K>0 run on the vector engine directly (they
        # used to raise ConfigError).
        from repro.api import RunOptions, simulate

        base = NetworkConfig(n_nodes=10, seed=1).with_scale(backend="vector")
        jakes = dataclasses.replace(
            base, channel=dataclasses.replace(
                base.channel, fading_kernel="jakes"
            )
        )
        rician = dataclasses.replace(
            base, channel=dataclasses.replace(base.channel, rician_k=4.0)
        )
        opts = RunOptions(horizon_s=1.0, sample_interval_s=0.5)
        for cfg in (jakes, rician):
            run = simulate(cfg, opts)
            assert run.n_nodes == 10
            assert run.generated > 0

    def test_ext_scale_rejects_unknown_backend(self):
        from repro.api import get_experiment

        with pytest.raises(ExperimentError):
            get_experiment("ext-scale").run(
                preset="smoke", backend="quantum"
            )

    def test_ext_scale_runs_on_vector(self):
        from repro.api import get_experiment

        figure = get_experiment("ext-scale").run(
            preset="smoke", seeds=(1,), node_counts=(30,),
            backend="vector",
        )
        assert "backend=vector" in figure.notes
        assert all(row[3] is not None for row in figure.rows)  # delivery


class TestGridMembership:
    """The engine's nearest-head grid answers exactly like the brute row."""

    def test_engine_paths_agree_end_to_end(self, monkeypatch):
        # Swap the engine's grid for the brute distance row through a
        # full run: the RunResult is identical either way.
        import numpy as np

        import repro.vector.engine as eng
        from repro.api import RunOptions, simulate

        head_counts = []

        class BruteIndex:
            def __init__(self, points, field_size_m):
                self.points = points
                head_counts.append(len(points))

            def nearest_many(self, queries):
                diff = self.points[None, :, :] - queries[:, None, :]
                row = np.sqrt((diff ** 2).sum(axis=2))
                pick = np.argmin(row, axis=1)
                return pick, row[np.arange(queries.shape[0]), pick]

        cfg = scenario_config("static", 400, seed=4).with_scale(
            backend="vector"
        )
        opts = RunOptions(horizon_s=10.0, sample_interval_s=5.0)
        grid = simulate(cfg, opts).to_dict()
        monkeypatch.setattr(eng, "GridIndex", BruteIndex)
        brute = simulate(cfg, opts).to_dict()
        assert head_counts and min(head_counts) > 1  # the brute row ran
        grid.pop("wall_time_s")
        brute.pop("wall_time_s")
        assert grid == brute


class TestRoundProfiling:
    def test_profile_rounds_writes_timeline(self, tmp_path):
        from repro.api import RunOptions, simulate

        path = tmp_path / "rounds.json"
        cfg = scenario_config("static", 60, seed=3).with_scale(
            backend="vector"
        )
        opts = RunOptions(
            horizon_s=40.0, sample_interval_s=5.0,
            profile_rounds=str(path),
        )
        run = simulate(cfg, opts)
        doc = json.loads(path.read_text())
        assert doc["schema"] == "profile_rounds/v1"
        assert doc["n_nodes"] == 60
        assert doc["steps"] == run.events_processed
        assert doc["rounds"] == len(doc["timeline"])
        # Every per-step phase shows up in the totals, and the timeline
        # rows carry the same keys.
        for phase in ("membership", "channel", "traffic", "mac", "energy"):
            assert phase in doc["phase_totals_s"]
        # A round that forms exactly at the horizon records its
        # membership cost with zero steps; every earlier round stepped.
        assert all(r["steps"] > 0 for r in doc["timeline"][:-1])

    def test_profiling_is_observational(self, tmp_path):
        from repro.api import RunOptions, simulate

        cfg = scenario_config("static", 60, seed=3).with_scale(
            backend="vector"
        )
        plain = simulate(
            cfg, RunOptions(horizon_s=10.0, sample_interval_s=5.0)
        ).to_dict()
        profiled = simulate(
            cfg,
            RunOptions(
                horizon_s=10.0, sample_interval_s=5.0,
                profile_rounds=str(tmp_path / "p.json"),
            ),
        ).to_dict()
        plain.pop("wall_time_s")
        profiled.pop("wall_time_s")
        assert plain == profiled


class TestHarnessCli:
    def test_parity_gate_exit_code(self, capsys):
        from repro.vector.equivalence import main

        assert main(["--nodes", "50", "--scenarios", "static"]) == 0
        out = capsys.readouterr().out
        assert "ok: golden" in out

    def test_band_table_covers_core_metrics(self):
        for field in ("delivery_rate", "throughput_bps",
                      "total_consumed_j", "mean_delay_s"):
            assert field in STAT_BANDS

    def test_default_options_match_ext_scale_window(self):
        opts = default_options()
        assert opts.horizon_s == 40.0
        assert opts.sample_interval_s == 5.0


#: Node churn shared by the pinned cases: the ``churn-vector`` benchmark
#: workload's failure rate and mean downtime.
_PIN_CHURN = dict(failure_rate_hz=0.005, mean_downtime_s=40.0)


def _pin_config(case: str) -> NetworkConfig:
    """One pinned vector-engine scenario (constant density, see ext-scale)."""
    n = 300 if case == "multihop_churn" else 1500
    seed = 2**40 + 7 if case == "seed_above_2_32" else 1
    cfg = NetworkConfig(
        n_nodes=n, field_size_m=100.0 * (n / 100.0) ** 0.5, seed=seed
    ).with_scale(backend="vector")
    if case == "churn_jitter_regime_bursty":
        # Regime shifts every ~10 s, so some land inside the 25 s window.
        return cfg.with_dynamics(
            **_PIN_CHURN,
            battery_jitter=0.3,
            regime_mean_interval_s=10.0,
            regime_sigma_db=3.0,
            bursty_fraction=0.5,
        )
    if case == "onoff":
        return cfg.with_traffic(source_model="onoff")
    if case == "cbr_bursty":
        # The CBR accumulator on the steady half, ON/OFF on the rest.
        return cfg.with_traffic(source_model="cbr").with_dynamics(
            **_PIN_CHURN, bursty_fraction=0.5
        )
    if case == "multihop_churn":
        # At N=300 packets reach the sink; at N=1500 the shared uplink
        # overflows so far that the sink receives none.
        return (
            cfg.with_routing(mode="multihop")
            .with_traffic(packets_per_second=2.0)
            .with_dynamics(**_PIN_CHURN)
        )
    if case == "pure_leach_churn":
        return cfg.with_protocol(Protocol.PURE_LEACH).with_dynamics(**_PIN_CHURN)
    if case == "jakes_rician_churn":
        channel = dataclasses.replace(
            cfg.channel, fading_kernel="jakes", rician_k=4.0
        )
        return dataclasses.replace(cfg, channel=channel).with_dynamics(
            **_PIN_CHURN
        )
    if case == "permanent_scripted":
        return cfg.with_dynamics(
            failure_rate_hz=0.005,
            mean_downtime_s=0.0,
            scripted_failures=((3.0, 7),),
            scripted_recoveries=((12.0, 7),),
        )
    if case == "seed_above_2_32":
        return cfg.with_dynamics(**_PIN_CHURN)
    if case == "battery_deaths":
        # A 10 mJ battery (jittered by 30%) empties mid-run: ~450 nodes
        # die, so the energy settle pro-rates the charges of dying nodes.
        energy = dataclasses.replace(cfg.energy, initial_energy_j=0.01)
        return dataclasses.replace(cfg, energy=energy).with_dynamics(
            **_PIN_CHURN, battery_jitter=0.3
        )
    if case == "capped_delay_reservoir":
        # ~158k delays against a 20k cap: the one pin whose delay
        # reservoir fills and then replaces samples.
        return _pin_config("churn_jitter_regime_bursty").with_scale(
            backend="vector", max_delay_samples=20_000
        )
    raise ValueError(case)


#: sha256 of ``RunResult.to_dict()`` without ``wall_time_s`` (the
#: ``perfbench/workloads.py::fingerprint`` recipe) for each case, over a
#: 25 s horizon: one round boundary (20 s) and its teardown.
_PINS = {
    "churn_jitter_regime_bursty": (
        "bfc4e0aedccd20f0aabc40c22c3d1f9b"
        "e4873efedc3141a23a1028338115d517"
    ),
    "onoff": (
        "37caa9281a1a031403703de76b90af1a"
        "546f85c9a956fbd4fc53e684124381fd"
    ),
    "cbr_bursty": (
        "3057162a5de17b75f1e4577875b6b9dc"
        "d6466bc99114f391fedecb84e161b40b"
    ),
    "multihop_churn": (
        "be080604bfdac5a6e2c766f3483c0a1a"
        "ead841de0b08828095ed98d051ba8601"
    ),
    "pure_leach_churn": (
        "2e61fc2f763c1c74ec4685d25d91eda5"
        "313094c865b3462596ab7f2213a2b6af"
    ),
    "jakes_rician_churn": (
        "6aa30898d4ecf1e76a583071a2e78dfc"
        "f5ab42dee215446dad2500729711282c"
    ),
    "permanent_scripted": (
        "956e287372e1666bf79690073033bca7"
        "c8594adc6edb6b10f2b7a389980e8bda"
    ),
    "seed_above_2_32": (
        "31b3a20028723695f315b68593d2c40e"
        "4fb4e1828367049e4ff362d81fc1a713"
    ),
    "battery_deaths": (
        "bdcf82facfbe4dbbbf69a3c9c7faf58f"
        "3840b110774d770b014b94b9f9ea2e70"
    ),
    "capped_delay_reservoir": (
        "99198f18dca23486342a51cc66ee5d09"
        "4f88121e324ac537a924d02c150dacc4"
    ),
}


@pytest.fixture(scope="module", params=sorted(_PINS))
def pinned_run(request):
    """(case, RunResult, the VectorNetwork that produced it), run once."""
    import repro.vector.engine as eng
    from repro.api import RunOptions, simulate

    nets = []

    class _Kept(eng.VectorNetwork):
        def run(self):
            nets.append(self)
            return super().run()

    opts = RunOptions(horizon_s=25.0, sample_interval_s=5.0, max_series_samples=64)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(eng, "VectorNetwork", _Kept)
        result = simulate(_pin_config(request.param), opts)
    (net,) = nets
    return request.param, result, net


class TestPinnedOutputs:
    """Every output byte of the vector engine, pinned per scenario.

    A change that moves any ``RunResult`` field — one RNG draw reordered,
    one race resolved differently — fails here.  Re-pin only with a
    stated modelling fix.
    """

    def test_fingerprint(self, pinned_run):
        case, result, _net = pinned_run
        data = result.to_dict()
        data.pop("wall_time_s")
        digest = hashlib.sha256(
            json.dumps(data, sort_keys=True).encode()
        ).hexdigest()
        assert digest == _PINS[case]


class TestConservation:
    """Every generated packet and every drawn joule is accounted for."""

    def test_packets(self, pinned_run):
        _case, result, net = pinned_run
        accounted = (
            net.delivered
            + net.delivered_local
            + net.lost_channel
            + net.dropped_overflow
            + net.dropped_retry
            + net.orphaned
            + net.uplink_lost_channel
            + net.uplink_dropped_retry
            + net.uplink_dropped_overflow
            + net.uplink_stranded
            + int(net.qlen.sum())
            + sum(len(q) for q in net.relay_q)
        )
        assert net.generated == result.generated == accounted

    def test_energy_ledger(self, pinned_run):
        _case, _result, net = pinned_run
        assert math.isclose(
            float(net.drawn.sum()), sum(net.breakdown.values()), rel_tol=1e-9
        )
