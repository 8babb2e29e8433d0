"""Link budget, Link composition, CSI estimation."""

import numpy as np
import pytest

from repro.channel import (
    CsiEstimator,
    Link,
    LinkBudget,
    LogDistance,
    calibrate_noise_floor,
)
from repro.config import ChannelConfig
from repro.errors import ChannelError
from repro.rng import RngRegistry


def _budget(cfg=None):
    return LinkBudget.from_config(cfg or ChannelConfig())


class TestLinkBudget:
    def test_mean_snr_decreases_with_distance(self):
        b = _budget()
        assert b.mean_snr_db(10.0) > b.mean_snr_db(50.0) > b.mean_snr_db(100.0)

    def test_from_config_uses_parameters(self):
        cfg = ChannelConfig(noise_floor_dbm=-90.0)
        delta = -90.0 - ChannelConfig().noise_floor_dbm
        assert _budget(cfg).mean_snr_db(10.0) == pytest.approx(
            _budget().mean_snr_db(10.0) - delta
        )

    def test_calibration_roundtrip(self):
        model = LogDistance()
        floor = calibrate_noise_floor(model, 0.66, 35.0, target_mean_snr_db=20.0)
        b = LinkBudget(model, 0.66, floor)
        assert b.mean_snr_db(35.0) == pytest.approx(20.0)

    def test_default_operating_point(self):
        """Typical intra-cluster link (~20 m) lands near 20 dB mean SNR,
        putting all four ABICM modes in play (``ChannelConfig.noise_floor_dbm``)."""
        snr = _budget().mean_snr_db(20.0)
        assert 15.0 <= snr <= 25.0

    def test_rx_power(self):
        b = _budget()
        assert b.rx_power_dbm(10.0) - b.rx_power_dbm(100.0) == pytest.approx(30.0)

    def test_invalid_tx_power(self):
        with pytest.raises(ChannelError):
            LinkBudget(LogDistance(), 0.0, -72.0)


class TestLink:
    def _link(self, distance=35.0, name="l", seed=5, cfg=None):
        cfg = cfg or ChannelConfig()
        rng = RngRegistry(seed).stream(f"link/{name}")
        return Link(distance, _budget(cfg), cfg, rng, name=name)

    def test_mean_matches_budget(self):
        link = self._link(20.0)
        assert link.mean_snr_db == pytest.approx(_budget().mean_snr_db(20.0))

    def test_snr_varies_over_time(self):
        link = self._link()
        samples = [link.snr_db(t) for t in np.arange(0.0, 20.0, 0.5)]
        assert np.std(samples) > 1.0  # fading + shadowing really move it

    def test_snr_long_run_average_near_mean(self):
        # E[10 log10 g] for Rayleigh is -2.5 dB; allow that known offset.
        link = self._link(cfg=ChannelConfig(shadowing_sigma_db=0.0))
        samples = [link.snr_db(t) for t in np.arange(0.0, 3000.0, 1.0)]
        assert np.mean(samples) == pytest.approx(link.mean_snr_db - 2.5, abs=0.8)

    def test_same_time_queries_equal(self):
        link = self._link()
        assert link.snr_db(1.0) == link.snr_db(1.0)

    def test_deterministic_given_seed(self):
        a = self._link(name="same", seed=11)
        b = self._link(name="same", seed=11)
        ts = [0.1, 0.4, 2.0]
        assert [a.snr_db(t) for t in ts] == [b.snr_db(t) for t in ts]

    def test_negative_distance_rejected(self):
        with pytest.raises(ChannelError):
            self._link(distance=-1.0)


class TestCsiEstimator:
    def _link(self):
        cfg = ChannelConfig()
        return Link(30.0, _budget(cfg), cfg, RngRegistry(3).stream("l"), "l")

    def test_perfect_measurement_matches_link(self):
        link = self._link()
        est = CsiEstimator(link)
        sample = est.measure(2.0)
        assert sample.snr_db == pytest.approx(link.snr_db(2.0))

    def test_noisy_measurement_differs(self):
        link = self._link()
        est = CsiEstimator(link, error_sigma_db=2.0, rng=RngRegistry(4).stream("n"))
        errors = [est.measure(t).snr_db - link.snr_db(t) for t in np.arange(0, 50, 0.5)]
        assert np.std(errors) == pytest.approx(2.0, rel=0.3)

    def test_last_and_staleness(self):
        est = CsiEstimator(self._link())
        assert est.last is None
        assert est.staleness(5.0) == float("inf")
        est.measure(5.0)
        assert est.last.time_s == 5.0
        assert est.staleness(7.5) == pytest.approx(2.5)

    def test_error_requires_rng(self):
        with pytest.raises(ChannelError):
            CsiEstimator(self._link(), error_sigma_db=1.0)

    def test_negative_error_rejected(self):
        with pytest.raises(ChannelError):
            CsiEstimator(self._link(), error_sigma_db=-0.5)
