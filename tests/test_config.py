"""Configuration dataclasses: defaults, validation, round-trips."""

import dataclasses

import pytest

from repro.config import (
    ChannelConfig,
    EnergyConfig,
    LeachConfig,
    MacConfig,
    NetworkConfig,
    PhyConfig,
    PolicyConfig,
    Protocol,
    ToneConfig,
    TrafficConfig,
)
from repro.errors import ConfigError


class TestTableIIDefaults:
    """Defaults must match the paper's Table II."""

    def test_node_count(self):
        assert NetworkConfig().n_nodes == 100

    def test_ch_fraction(self):
        assert LeachConfig().ch_fraction == 0.05

    def test_data_powers(self):
        e = EnergyConfig()
        assert e.data_tx_power_w == 0.66
        assert e.data_rx_power_w == 0.305

    def test_tone_powers(self):
        e = EnergyConfig()
        assert e.tone_tx_power_w == pytest.approx(0.092)
        assert e.tone_rx_power_w == pytest.approx(0.036)

    def test_packet_length(self):
        assert PhyConfig().packet_length_bits == 2000

    def test_buffer_and_cw(self):
        assert TrafficConfig().buffer_packets == 50
        assert MacConfig().contention_window == 10

    def test_burst_limits(self):
        m = MacConfig()
        assert m.min_burst_packets == 3
        assert m.max_burst_packets == 8

    def test_retry_cap(self):
        assert MacConfig().max_retries == 6

    def test_abicm_rates(self):
        assert PhyConfig().rates_bps == (250e3, 450e3, 1e6, 2e6)

    def test_initial_energy(self):
        assert EnergyConfig().initial_energy_j == 10.0

    def test_scheme1_constants(self):
        p = PolicyConfig()
        assert p.sample_interval_packets == 5
        assert p.arm_queue_length == 15

    def test_tone_spec(self):
        t = ToneConfig()
        assert t.idle_period_s == pytest.approx(0.050)
        assert t.idle_duration_s == pytest.approx(0.001)
        assert t.receive_period_s == pytest.approx(0.010)
        assert t.receive_duration_s == pytest.approx(0.0005)
        assert t.collision_duration_s == pytest.approx(0.0005)


class TestValidation:
    def test_bad_pathloss_exponent(self):
        with pytest.raises(ConfigError):
            ChannelConfig(pathloss_exponent=0.0)

    def test_bad_fading_kernel(self):
        with pytest.raises(ConfigError):
            ChannelConfig(fading_kernel="magic")

    def test_rates_must_be_sorted(self):
        with pytest.raises(ConfigError):
            PhyConfig(rates_bps=(2e6, 1e6), mode_thresholds_db=(1.0, 2.0))

    def test_threshold_count_must_match(self):
        with pytest.raises(ConfigError):
            PhyConfig(mode_thresholds_db=(1.0, 2.0))

    def test_thresholds_must_be_sorted(self):
        with pytest.raises(ConfigError):
            PhyConfig(mode_thresholds_db=(17.0, 12.0, 8.0, 4.0))

    def test_negative_power_rejected(self):
        with pytest.raises(ConfigError):
            EnergyConfig(data_tx_power_w=-1.0)

    def test_sleep_above_rx_rejected(self):
        with pytest.raises(ConfigError):
            EnergyConfig(sleep_power_w=1.0, data_rx_power_w=0.3)

    def test_burst_ordering(self):
        with pytest.raises(ConfigError):
            MacConfig(min_burst_packets=8, max_burst_packets=3)

    def test_idle_pulse_shorter_than_period(self):
        with pytest.raises(ConfigError):
            ToneConfig(idle_duration_s=0.06, idle_period_s=0.05)

    def test_ch_fraction_bounds(self):
        with pytest.raises(ConfigError):
            LeachConfig(ch_fraction=0.0)
        with pytest.raises(ConfigError):
            LeachConfig(ch_fraction=1.5)

    def test_source_model_names(self):
        with pytest.raises(ConfigError):
            TrafficConfig(source_model="fractal")

    def test_min_nodes(self):
        with pytest.raises(ConfigError):
            NetworkConfig(n_nodes=1)

    @pytest.mark.parametrize("size", [0.0, -1.0, float("inf"), float("nan")])
    def test_field_size_must_be_finite_and_positive(self, size):
        with pytest.raises(ConfigError, match="field size"):
            NetworkConfig(field_size_m=size)

    def test_dead_fraction_bounds(self):
        with pytest.raises(ConfigError):
            NetworkConfig(dead_fraction=0.0)

    def test_placement_names(self):
        with pytest.raises(ConfigError):
            NetworkConfig(placement="ring")

    def test_target_ber_bounds(self):
        with pytest.raises(ConfigError):
            PhyConfig(target_ber=0.7)


class TestProtocolEnum:
    def test_three_protocols(self):
        assert len(Protocol) == 3

    def test_labels_distinct(self):
        labels = {p.label for p in Protocol}
        assert len(labels) == 3

    def test_value_roundtrip(self):
        for p in Protocol:
            assert Protocol(p.value) is p


class TestConvenienceAndRoundtrip:
    def test_with_traffic(self):
        cfg = NetworkConfig().with_traffic(packets_per_second=25.0)
        assert cfg.traffic.packets_per_second == 25.0
        # Original untouched (frozen).
        assert NetworkConfig().traffic.packets_per_second == 5.0

    def test_with_protocol(self):
        cfg = NetworkConfig().with_protocol(Protocol.PURE_LEACH)
        assert cfg.protocol is Protocol.PURE_LEACH

    def test_with_top_level(self):
        cfg = NetworkConfig().with_(n_nodes=20, seed=9)
        assert cfg.n_nodes == 20 and cfg.seed == 9

    def test_dict_roundtrip(self):
        cfg = NetworkConfig(
            n_nodes=30,
            protocol=Protocol.CAEM_FIXED,
            traffic=TrafficConfig(packets_per_second=12.0),
        )
        again = NetworkConfig.from_dict(cfg.to_dict())
        assert again == cfg

    def test_dict_roundtrip_through_json(self):
        import json

        cfg = NetworkConfig()
        blob = json.dumps(cfg.to_dict())
        again = NetworkConfig.from_dict(json.loads(blob))
        assert again == cfg

    def test_frozen(self):
        with pytest.raises(dataclasses.FrozenInstanceError):
            NetworkConfig().n_nodes = 5  # type: ignore[misc]

    def test_memoized_digest_is_invisible(self):
        import pickle

        cfg = NetworkConfig(n_nodes=30)
        before = (cfg.to_dict(), hash(cfg), repr(cfg))
        digest = cfg.digest()
        assert cfg.digest() == digest == NetworkConfig(n_nodes=30).digest()
        assert (cfg.to_dict(), hash(cfg), repr(cfg)) == before
        assert cfg == NetworkConfig(n_nodes=30)
        moved = dataclasses.replace(cfg, n_nodes=31)
        assert moved.digest() == NetworkConfig(n_nodes=31).digest() != digest
        assert pickle.loads(pickle.dumps(cfg)).digest() == digest

    def test_digests_are_pinned(self):
        # Every stored row pairs to its cell by this digest, so a config
        # change that moves it orphans every store.  Pinned: the default
        # config, an ext-scale vector cell (sparse backend key) and a
        # bounded-delay config.
        from repro.experiments.scale import scale_config

        assert NetworkConfig().digest() == (
            "412afb8d7e3c23d20d99a4a08de86384"
            "5395961b5d78c8f6c0bf46856187be51"
        )
        vector = scale_config(1000, Protocol.CAEM_ADAPTIVE, backend="vector")
        assert vector.digest() == (
            "af92eae75c7d791d2d88701951c888ac"
            "2e79d01fbc1b40d737e7186001a8554f"
        )
        bounded = NetworkConfig().with_scale(max_delay_samples=100)
        assert bounded.digest() == (
            "b3de56503ba3f60f7dcd43dd19c158c9"
            "53bf90e560949cccbe3071da8269377d"
        )
