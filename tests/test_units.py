"""Unit-conversion helpers."""

import math

import pytest

from repro.units import (
    db_to_linear,
    dbm_to_watts,
    joules,
    kbits,
    kbps,
    linear_to_db,
    mbps,
    microseconds,
    millijoules,
    milliseconds,
    ms,
    seconds,
    us,
    watts_to_dbm,
)


class TestDbConversions:
    def test_zero_db_is_unity(self):
        assert db_to_linear(0.0) == pytest.approx(1.0)

    def test_three_db_doubles(self):
        assert db_to_linear(3.0103) == pytest.approx(2.0, rel=1e-4)

    def test_ten_db_is_ten(self):
        assert db_to_linear(10.0) == pytest.approx(10.0)

    def test_negative_db(self):
        assert db_to_linear(-10.0) == pytest.approx(0.1)

    def test_roundtrip_scalar(self):
        for x in (0.01, 1.0, 37.5, 1e6):
            assert db_to_linear(linear_to_db(x)) == pytest.approx(x)

    def test_linear_to_db_zero_is_neg_inf(self):
        assert linear_to_db(0.0) == -math.inf

    def test_linear_to_db_negative_is_neg_inf(self):
        assert linear_to_db(-1.0) == -math.inf

    def test_scalar_returns_python_float(self):
        assert isinstance(db_to_linear(3.0), float)


class TestPowerConversions:
    def test_zero_dbm_is_one_mw(self):
        assert dbm_to_watts(0.0) == pytest.approx(1e-3)

    def test_thirty_dbm_is_one_watt(self):
        assert dbm_to_watts(30.0) == pytest.approx(1.0)

    def test_watts_to_dbm_roundtrip(self):
        for w in (1e-6, 1e-3, 0.66, 10.0):
            assert dbm_to_watts(watts_to_dbm(w)) == pytest.approx(w)

    def test_paper_tx_power(self):
        # Table II: 0.66 W ~= 28.2 dBm.
        assert watts_to_dbm(0.66) == pytest.approx(28.195, abs=0.01)


class TestTimeAndDataHelpers:
    def test_seconds_identity(self):
        assert seconds(5) == 5.0

    def test_milliseconds(self):
        assert milliseconds(50) == pytest.approx(0.05)
        assert ms(50) == milliseconds(50)

    def test_microseconds(self):
        assert microseconds(20) == pytest.approx(2e-5)
        assert us(20) == microseconds(20)

    def test_rates(self):
        assert kbps(250) == 250e3
        assert mbps(2) == 2e6

    def test_sizes(self):
        assert kbits(2) == 2000.0

    def test_energy(self):
        assert joules(10) == 10.0
        assert millijoules(5) == pytest.approx(5e-3)
