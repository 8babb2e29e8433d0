"""The harvest: what each engine measured, and the fields derived from it.

:func:`repro.api.simulate` turns what an engine measured into a
:class:`~repro.api.RunResult`, and :func:`repro.api.engine.derive`
computes every derived field, once for both engines.

* The pins hold the whole record — series, counters, derived metrics,
  delay percentiles, the energy ledger — as the sha256 of
  ``RunResult.to_dict()`` without ``wall_time_s`` (the
  ``TestPinnedOutputs`` recipe in ``tests/test_vector.py``), so a harvest
  that moves any field of any case fails here.  Every horizon and sample
  interval is a whole number of seconds: each run ends on the event
  kernel's 1-s meter-settle tick.
* :class:`TestDerive` drives the derivation's edge cases with hand-built
  records, without simulating.
* :class:`TestFinalSettle` runs off that tick, where the event kernel's
  last settle can empty a battery.
"""

from __future__ import annotations

import hashlib
import json

import numpy as np
import pytest

import repro.network.engine
from repro.api import RunOptions, RunResult, simulate
from repro.api.engine import derive
from repro.api.result import RunTotals
from repro.config import EnergyConfig, NetworkConfig, Protocol
from repro.network import SensorNetwork


def _fingerprint(result) -> str:
    data = result.to_dict()
    data.pop("wall_time_s")
    return hashlib.sha256(json.dumps(data, sort_keys=True).encode()).hexdigest()


_CHURN = dict(failure_rate_hz=0.01, mean_downtime_s=8.0)


def _event_case(case: str):
    """(config, options) of one pinned event-kernel run."""
    cfg = NetworkConfig(n_nodes=20, seed=3)
    opts = RunOptions(horizon_s=25.0, sample_interval_s=5.0)
    if case == "static_queues":
        return cfg, RunOptions(
            horizon_s=25.0, sample_interval_s=5.0, collect_queues=True
        )
    if case == "pure_leach":
        return cfg.with_protocol(Protocol.PURE_LEACH), opts
    if case == "scheme2_capped_series":
        return cfg.with_protocol(Protocol.CAEM_FIXED), RunOptions(
            horizon_s=24.0, sample_interval_s=1.0, max_series_samples=6
        )
    if case == "deaths_stop_when_dead":
        return (
            cfg.with_(energy=EnergyConfig(initial_energy_j=0.02), dead_fraction=0.2),
            RunOptions(horizon_s=60.0, sample_interval_s=2.0, stop_when_dead=True),
        )
    if case == "churn_jitter_regime_bursty":
        return cfg.with_dynamics(
            **_CHURN,
            battery_jitter=0.3,
            regime_mean_interval_s=8.0,
            regime_sigma_db=3.0,
            bursty_fraction=0.5,
        ), opts
    if case == "permanent_churn":
        return (
            cfg.with_(dead_fraction=0.5).with_dynamics(
                failure_rate_hz=0.05, mean_downtime_s=0.0
            ),
            opts,
        )
    if case == "multihop_churn":
        return (
            NetworkConfig(n_nodes=40, seed=5)
            .with_routing(mode="multihop")
            .with_dynamics(**_CHURN),
            opts,
        )
    if case == "direct_onoff":
        return (
            cfg.with_routing(mode="direct").with_traffic(source_model="onoff"),
            opts,
        )
    if case == "delay_reservoir":
        return cfg.with_scale(max_delay_samples=7), opts
    if case == "deaths_churn":
        return (
            cfg.with_(energy=EnergyConfig(initial_energy_j=0.02)).with_dynamics(
                failure_rate_hz=0.05, mean_downtime_s=4.0
            ),
            RunOptions(horizon_s=30.0, sample_interval_s=3.0),
        )
    raise ValueError(case)


_EVENT_PINS = {
    "churn_jitter_regime_bursty": (
        "761dd077e9f5c71ae77945ff0348a75e"
        "559dcb57372a8878e87e4ef0ee56c4ef"
    ),
    "deaths_churn": (
        "9ccf13cb4f7bb832055a05289fa82d11"
        "01480c84027c55d7f778ae04c183fea3"
    ),
    "deaths_stop_when_dead": (
        "dd22e83c04e6de905f7429bb87e86904"
        "f8f65a41d42827bd422d2bca30080e0b"
    ),
    "delay_reservoir": (
        "a6d1800d0cffd9448e5ee52530451cfb"
        "28f7a6219f42348edab0f8252e85edbe"
    ),
    "direct_onoff": (
        "320ee15286497789069f7ef12c682eed"
        "acd7e9d935fb364b1acb701870eb15c1"
    ),
    "multihop_churn": (
        "9c39570f8fc0f695d7ef13cce4344a6f"
        "d3818565c1149bd6f3c80026681a6bc6"
    ),
    "permanent_churn": (
        "fb1d28cf810926a0038c66e73faaf333"
        "54a9d8d6592c11c33792bb7d1d92c4ff"
    ),
    "pure_leach": (
        "7c2938adf5ae8b949dd433f30a1dab1d"
        "4405798d1a2093dc54c0d5b09561de8a"
    ),
    "scheme2_capped_series": (
        "55a65b85a1ffec584ebc47bea168b8e2"
        "60f49b1c75e221db7203eede8c53e0e5"
    ),
    "static_queues": (
        "fca82a56d0c6039a6af8f3462a041ecc"
        "035102404a5f5c0e7530b250f30bd82a"
    ),
}


def _vector_case(case: str):
    """(config, options) of one pinned vector-engine run at N=300."""
    cfg = NetworkConfig(n_nodes=300, field_size_m=100.0 * 3**0.5, seed=1)
    cfg = cfg.with_scale(backend="vector")
    opts = RunOptions(horizon_s=25.0, sample_interval_s=5.0)
    if case == "deaths_stop_when_dead":
        return (
            cfg.with_(energy=EnergyConfig(initial_energy_j=0.05), dead_fraction=0.5),
            RunOptions(horizon_s=120.0, sample_interval_s=2.0, stop_when_dead=True),
        )
    if case == "permanent_churn":
        return (
            cfg.with_(dead_fraction=0.5).with_dynamics(
                failure_rate_hz=0.05, mean_downtime_s=0.0
            ),
            opts,
        )
    if case == "queues_reservoir":
        return cfg.with_scale(max_delay_samples=50), RunOptions(
            horizon_s=25.0, sample_interval_s=5.0, collect_queues=True
        )
    raise ValueError(case)


_VECTOR_PINS = {
    "deaths_stop_when_dead": (
        "280bdc1380a008a3586cdf5e5fa9f7eb"
        "9d14dfa1ec82e2e4aba66013f12cf2d2"
    ),
    "permanent_churn": (
        "02d1035a06fdbc76bdfa73c11e0fd761"
        "2cb7113eb1a6cb0b7131f3f02e7d1f55"
    ),
    "queues_reservoir": (
        "9632df0638fd8366bbb72809f28a8f68"
        "4178b60b487f241720baec1273a53978"
    ),
}


@pytest.fixture(scope="module", params=sorted(_EVENT_PINS))
def event_run(request):
    return request.param, simulate(*_event_case(request.param))


@pytest.fixture(scope="module", params=sorted(_VECTOR_PINS))
def vector_run(request):
    return request.param, simulate(*_vector_case(request.param))


def _check_case(case: str, result) -> None:
    """What each case is there to exercise actually happened."""
    if case == "deaths_stop_when_dead":
        assert result.lifetime_s is not None
        assert result.sample_times_s[-1] < result.horizon_s
    elif case == "permanent_churn":
        assert result.lifetime_s is None
        assert result.lifetime_effective_s is not None
    elif case in ("static_queues", "queues_reservoir"):
        assert result.queue_snapshots
    elif case == "scheme2_capped_series":
        assert result.series_stride > 1
    elif case == "multihop_churn":
        assert result.mean_hop_count > 1.0
        assert result.survivor_throughput_bps > 0.0
    elif case == "deaths_churn":
        assert result.first_death_s is not None
        assert result.churn_failures > 0
    elif case == "churn_jitter_regime_bursty":
        assert result.regime_shifts > 0
        assert result.survivor_throughput_bps > 0.0


class TestEventPins:
    def test_case_exercises_its_path(self, event_run):
        _check_case(*event_run)

    def test_fingerprint(self, event_run):
        case, result = event_run
        assert _fingerprint(result) == _EVENT_PINS[case]


class TestVectorPins:
    def test_case_exercises_its_path(self, vector_run):
        _check_case(*vector_run)

    def test_fingerprint(self, vector_run):
        case, result = vector_run
        assert _fingerprint(result) == _VECTOR_PINS[case]


def _record(**measured) -> RunResult:
    """A hand-built record of a four-node run with ``measured`` fields."""
    return RunResult(
        protocol="scheme1", seed=1, load_pps=5.0, horizon_s=10.0, n_nodes=4,
        **measured,
    )


def _totals(**changes) -> RunTotals:
    """Totals of a 10-s run with no delivery, no churn; ``changes`` apply."""
    return RunTotals(
        elapsed_s=10.0,
        delivered_bits=0,
        delay_sum_s=0.0,
        delay_count=0,
        delay_samples=[],
        hop_sum=0,
        hop_count=0,
        effective_deaths=None,
        survivor_bits=None,
    )._replace(**changes)


class TestDerive:
    """:func:`derive` on records no simulation needs to reach."""

    def test_no_radio_delivery_has_no_energy_per_packet(self):
        result = _record(generated=10, delivered_local=5, total_consumed_j=2.0)
        derive(result, _totals(), 0.8)
        assert result.energy_per_packet_j is None
        assert result.delivery_rate == 0.5

    def test_energy_per_packet_counts_radio_deliveries_only(self):
        result = _record(
            generated=10, delivered=4, delivered_local=4, total_consumed_j=2.0
        )
        derive(result, _totals(), 0.8)
        assert result.energy_per_packet_j == 0.5
        assert result.delivery_rate == 0.8

    def test_nothing_generated_has_no_delivery_rates(self):
        result = _record()
        derive(result, _totals(), 0.8)
        assert result.delivery_rate is None
        assert result.delivery_rate_offered is None

    def test_everything_orphaned_has_no_offered_rate(self):
        result = _record(generated=6, orphaned=6)
        derive(result, _totals(), 0.8)
        assert result.delivery_rate == 0.0
        assert result.delivery_rate_offered is None

    def test_offered_rate_excludes_orphans(self):
        result = _record(generated=10, delivered=3, delivered_local=1, orphaned=2)
        derive(result, _totals(), 0.8)
        assert result.delivery_rate == 0.4
        assert result.delivery_rate_offered == 0.5

    @pytest.mark.parametrize("samples", [[], np.empty(0)], ids=["list", "array"])
    def test_no_delay_samples(self, samples):
        result = _record()
        derive(result, _totals(delay_samples=samples), 0.8)
        assert result.mean_delay_s == 0.0
        assert result.delay_p50_s is None
        assert result.delay_p90_s is None
        assert result.delay_p99_s is None
        assert result.mean_hop_count == 0.0

    def test_delay_mean_uses_every_delivery_not_the_sample(self):
        delays = [0.1 * k for k in range(1, 12)]
        totals = _totals(delay_sum_s=30.0, delay_count=10, hop_sum=25, hop_count=10)
        as_list, as_array = _record(), _record()
        derive(as_list, totals._replace(delay_samples=delays), 0.8)
        derive(as_array, totals._replace(delay_samples=np.asarray(delays)), 0.8)
        assert as_list.mean_delay_s == 3.0
        assert as_list.mean_hop_count == 2.5
        assert as_list.delay_p50_s == pytest.approx(0.6)
        assert as_list.to_dict() == as_array.to_dict()

    def test_zero_elapsed_time(self):
        result = _record()
        totals = _totals(elapsed_s=0.0, delivered_bits=800, survivor_bits=800)
        derive(result, totals, 0.8)
        assert result.throughput_bps == 0.0
        assert result.survivor_throughput_bps == 0.0

    def test_throughputs(self):
        result = _record()
        derive(result, _totals(delivered_bits=800, survivor_bits=200), 0.8)
        assert result.throughput_bps == 80.0
        assert result.survivor_throughput_bps == 20.0

    def test_without_churn_effective_lifetime_is_lifetime(self):
        result = _record(death_times_s=[4.0, 1.0, None, 3.0])
        derive(result, _totals(), 0.5)
        # floor(0.5 * 4) + 1 = 3 deaths: the third, at 4 s.
        assert result.lifetime_s == 4.0
        assert result.lifetime_effective_s == 4.0
        assert result.first_death_s == 1.0
        assert result.death_spread_s == 3.0

    def test_churn_deaths_drive_the_effective_lifetime(self):
        result = _record(death_times_s=[1.0, None, None, 2.0])
        derive(result, _totals(effective_deaths=[1.0, 1.5, None, 2.0]), 0.5)
        assert result.lifetime_s is None
        assert result.lifetime_effective_s == 2.0

    def test_uplink_energy_sums_both_uplink_causes(self):
        ledger = {"sleep": 4.0, "uplink_tx": 0.25, "uplink_rx": 0.5}
        result = _record(energy_breakdown=ledger)
        derive(result, _totals(), 0.8)
        assert result.uplink_energy_j == 0.75
        tx_only = _record(energy_breakdown={"uplink_tx": 0.25})
        derive(tx_only, _totals(), 0.8)
        assert tx_only.uplink_energy_j == 0.25


class TestFinalSettle:
    """A battery the event kernel's last settle empties is a death.

    The kernel settles its meters every second, so a run that ends off
    that tick settles once more before its fields are read.  A battery
    that this settle empties dies at the horizon, in every field.
    """

    def test_battery_emptied_at_the_horizon_dies_there(self):
        cfg = NetworkConfig(
            n_nodes=20, seed=2, energy=EnergyConfig(initial_energy_j=0.05)
        )
        result = simulate(cfg, RunOptions(horizon_s=2.2, sample_interval_s=1.0))
        assert result.death_times_s[0] == 2.2
        assert result.first_death_s == 2.2
        # The settle charged that battery's last draw before and after.
        assert result.total_consumed_j == 0.2050633007072414

    @pytest.mark.parametrize(
        "seed, energy_j, horizon_s, churn",
        [(2, 0.05, 2.2, False), (1, 0.05, 2.9, True), (2, 0.2, 6.4, True)],
        ids=["static", "churn-seed1", "churn-seed2"],
    )
    def test_record_matches_the_nodes(
        self, monkeypatch, seed, energy_j, horizon_s, churn
    ):
        kept = []

        class _Kept(SensorNetwork):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                kept.append(self)

        monkeypatch.setattr(repro.network.engine, "SensorNetwork", _Kept)
        cfg = NetworkConfig(
            n_nodes=20, seed=seed, energy=EnergyConfig(initial_energy_j=energy_j)
        )
        if churn:
            cfg = cfg.with_dynamics(failure_rate_hz=0.05, mean_downtime_s=2.0)
        result = simulate(
            cfg, RunOptions(horizon_s=horizon_s, sample_interval_s=1.0)
        )
        (net,) = kept
        assert result.death_times_s == [n.death_time_s for n in net.nodes]
        assert horizon_s in result.death_times_s
