"""PHY: modulation BER curves, coding model, ABICM table, frames."""

import math
import sys

import numpy as np
import pytest

from repro.channel.fading import RayleighFading
from repro.config import PhyConfig
from repro.errors import PhyError
from repro.phy import (
    BPSK,
    QAM16,
    QPSK,
    RATE_1_2,
    UNCODED,
    AbicmTable,
    ConvolutionalCode,
    by_name,
    evaluate_burst,
    plan_burst,
    qfunc,
    qfunc_inv,
    solve_threshold_db,
)
from repro.phy import modulation
from repro.rng import RngRegistry
from repro.traffic import Packet
from repro.vector.state import ArStep


class TestQFunction:
    def test_known_values(self):
        assert qfunc(0.0) == pytest.approx(0.5)
        assert qfunc(1.0) == pytest.approx(0.158655, rel=1e-4)
        assert qfunc(3.0) == pytest.approx(1.3499e-3, rel=1e-3)

    def test_inverse_roundtrip(self):
        for p in (0.4, 0.1, 1e-3, 1e-6):
            assert qfunc(qfunc_inv(p)) == pytest.approx(p, rel=1e-9)

    def test_inverse_domain(self):
        with pytest.raises(PhyError):
            qfunc_inv(0.0)
        with pytest.raises(PhyError):
            qfunc_inv(1.0)


class TestStandardLibraryNumerics:
    """The PHY's erfc / Q⁻¹ / J₀ against scipy, the test-only reference.

    Simulation imports no scipy for Q; these pin that the standard-library
    replacements keep every value that decides an RNG draw or a mode.
    """

    @staticmethod
    def _scipy_erfc(z):
        from scipy.special import erfc

        return float(erfc(z))

    def test_erfc_underflows_to_zero_exactly_where_scipy_does(self):
        z = math.sqrt(709.782712893384)
        for _ in range(50):
            z = math.nextafter(z, 0.0)
        for _ in range(101):
            ours, ref = modulation.erfc(z), self._scipy_erfc(z)
            assert (ours == 0.0) == (ref == 0.0), z
            assert modulation.erfc(-z) == self._scipy_erfc(-z) == 2.0
            z = math.nextafter(z, math.inf)

    def test_erfc_matches_scipy_where_scipy_is_normal(self):
        worst = 0.0
        for z in np.linspace(0.0, 26.64, 200_001):
            ref = self._scipy_erfc(float(z))
            if ref < sys.float_info.min:
                continue
            worst = max(worst, abs(modulation.erfc(float(z)) - ref) / ref)
        assert worst <= 1e-12

    def test_per_is_zero_at_exactly_the_scipy_snrs(self, monkeypatch):
        # The zero set decides whether evaluate_burst draws at all.
        cfg = PhyConfig()
        modes = AbicmTable.from_config(cfg).modes
        bits = cfg.packet_length_bits
        snrs = [k / 1000.0 for k in range(-20_000, 80_001)]

        def zeros():
            return [
                [s for s in snrs if mode.packet_error_rate(s, bits) == 0.0]
                for mode in modes
            ]

        ours = zeros()
        monkeypatch.setattr(modulation, "erfc", self._scipy_erfc)
        assert ours == zeros()
        assert all(ours)  # every mode reaches PER 0 inside the window

    def test_qfunc_inv_matches_scipy(self):
        from scipy.special import erfcinv

        for p in [*np.logspace(-300, -0.302, 3001), 0.4, 0.49, 0.499999]:
            ref = math.sqrt(2.0) * float(erfcinv(2.0 * p))
            assert qfunc_inv(float(p)) == pytest.approx(ref, rel=1e-13, abs=0)

    def test_default_thresholds_match_scipy(self, monkeypatch):
        from scipy.special import erfcinv

        ours = [m.threshold_db for m in AbicmTable.from_config(PhyConfig())]
        monkeypatch.setattr(
            modulation,
            "qfunc_inv",
            lambda p: math.sqrt(2.0) * float(erfcinv(2.0 * p)),
        )
        ref = [m.threshold_db for m in AbicmTable.from_config(PhyConfig())]
        assert ours == pytest.approx(ref, rel=0, abs=1e-12)

    @pytest.mark.parametrize("coherence_s", [0.02, 0.1, 0.7])
    def test_jakes_rho_is_scipy_j0_bit_for_bit(self, coherence_s):
        from scipy.special import j0

        fading = RayleighFading(
            coherence_s, np.random.default_rng(1), kernel="jakes"
        )
        ar = ArStep(0.0, 0.0, coherence_s, "jakes")
        f_d = 0.423 / coherence_s
        for dt in [*np.linspace(0.0, 3.0, 601), 1e-6, 0.0015, 12.5]:
            ref = float(j0(2.0 * math.pi * f_d * float(dt)))
            assert fading.correlation(float(dt)) == ref
            assert ar.coeffs(float(dt))[2] == ref


class TestModulation:
    def test_bpsk_qpsk_same_per_bit_ber(self):
        for snr in (0.5, 2.0, 8.0):
            assert BPSK.ber(snr) == pytest.approx(QPSK.ber(snr))

    def test_bpsk_known_point(self):
        # BER = Q(sqrt(2*gamma)); gamma=4.77 -> ~1e-3.
        assert BPSK.ber(4.77) == pytest.approx(1e-3, rel=0.05)

    def test_qam16_needs_more_snr(self):
        assert QAM16.ber(4.77) > BPSK.ber(4.77)

    def test_ber_monotone_decreasing(self):
        snrs = np.linspace(0.1, 50, 100)
        for mod in (BPSK, QAM16):
            bers = [mod.ber(s) for s in snrs]
            assert all(b1 >= b2 for b1, b2 in zip(bers, bers[1:]))

    def test_ber_capped_at_half(self):
        assert QAM16.ber(1e-9) <= 0.5

    def test_required_snr_inverts_ber(self):
        for mod in (BPSK, QPSK, QAM16):
            for target in (1e-3, 1e-5):
                snr = mod.required_snr_per_bit(target)
                assert mod.ber(snr) == pytest.approx(target, rel=1e-6)

    def test_negative_snr_rejected(self):
        with pytest.raises(PhyError):
            BPSK.ber(-1.0)

    def test_by_name(self):
        assert by_name("16-QAM") is QAM16
        with pytest.raises(PhyError):
            by_name("1024-QAM")


class TestCoding:
    def test_expansion(self):
        assert RATE_1_2.expansion == pytest.approx(2.0)
        assert UNCODED.expansion == 1.0

    def test_coded_bits_ceiling(self):
        code = ConvolutionalCode("r=2/3", 2 / 3, 4.0)
        assert code.coded_bits(100) == 150
        assert code.coded_bits(101) == 152  # ceil(151.5)

    def test_effective_snr_gain(self):
        assert RATE_1_2.effective_snr_linear(1.0) == pytest.approx(10 ** 0.5)

    def test_invalid_rate(self):
        with pytest.raises(PhyError):
            ConvolutionalCode("bad", 0.0, 1.0)
        with pytest.raises(PhyError):
            ConvolutionalCode("bad", 1.5, 1.0)

    def test_negative_gain(self):
        with pytest.raises(PhyError):
            ConvolutionalCode("bad", 0.5, -1.0)


class TestAbicmTable:
    @pytest.fixture()
    def table(self):
        return AbicmTable.from_config(PhyConfig())

    def test_four_modes_paper_rates(self, table):
        assert [m.throughput_bps for m in table] == [250e3, 450e3, 1e6, 2e6]

    def test_thresholds_ascend(self, table):
        th = [m.threshold_db for m in table]
        assert th == sorted(th)

    def test_ber_at_threshold_equals_target(self, table):
        for mode in table:
            assert mode.ber(mode.threshold_db) == pytest.approx(1e-5, rel=1e-3)

    def test_mode_selection_staircase(self, table):
        th = [m.threshold_db for m in table]
        assert table.mode_for_snr(th[0] - 1.0) is None  # outage
        assert table.mode_for_snr(th[0] + 0.1).index == 1
        assert table.mode_for_snr(th[2] + 0.1).index == 3
        assert table.mode_for_snr(99.0).index == 4

    def test_selection_boundary_inclusive(self, table):
        for mode in table:
            assert table.mode_for_snr(mode.threshold_db).index >= mode.index

    def test_airtime_of_2kbit_packet(self, table):
        # The headline ratio: 1 ms at 2 Mbps vs 8 ms at 250 kbps.
        assert table.highest.airtime_s(2000) == pytest.approx(1e-3)
        assert table.lowest.airtime_s(2000) == pytest.approx(8e-3)

    def test_highest_lowest(self, table):
        assert table.highest.index == 4 and table.lowest.index == 1
        assert table.n_modes == len(table) == 4

    def test_mode_by_index(self, table):
        assert table.mode_by_index(2).throughput_bps == 450e3
        with pytest.raises(PhyError):
            table.mode_by_index(9)

    def test_threshold_for_class(self, table):
        for k in range(4):
            assert table.threshold_for_class(k) == table.modes[k].threshold_db
        with pytest.raises(PhyError):
            table.threshold_for_class(4)

    def test_pinned_thresholds_respected(self):
        cfg = PhyConfig(mode_thresholds_db=(4.0, 8.0, 12.0, 17.0))
        table = AbicmTable.from_config(cfg)
        assert [m.threshold_db for m in table] == [4.0, 8.0, 12.0, 17.0]

    def test_per_decreases_with_snr(self, table):
        mode = table.highest
        pers = [mode.packet_error_rate(s, 2000) for s in (19.5, 22.0, 25.0)]
        assert pers[0] > pers[1] > pers[2]

    def test_per_saturates_to_one_in_deep_fade(self, table):
        assert table.highest.packet_error_rate(0.0, 2000) == pytest.approx(1.0)

    def test_solve_threshold_consistency(self):
        th = solve_threshold_db(BPSK, RATE_1_2, 1e-5)
        cfg_table = AbicmTable.from_config(PhyConfig())
        assert cfg_table.lowest.threshold_db == pytest.approx(th)


class TestBursts:
    @pytest.fixture()
    def table(self):
        return AbicmTable.from_config(PhyConfig())

    def _packets(self, n):
        return [Packet(1, 0.0, 2000) for _ in range(n)]

    def test_plan_airtime_includes_overhead(self, table):
        plan = plan_burst(self._packets(3), table.highest, 2000, overhead_bits=128)
        assert plan.airtime_s == pytest.approx((3 * 2000 + 128) / 2e6)
        assert plan.n_packets == 3
        assert plan.total_bits == 6128

    def test_empty_burst_rejected(self, table):
        with pytest.raises(PhyError):
            plan_burst([], table.highest, 2000, 128)

    def test_good_snr_delivers_everything(self, table):
        plan = plan_burst(self._packets(8), table.highest, 2000, 128)
        result = evaluate_burst(plan, 30.0, 2000, RngRegistry(1).stream("b"))
        assert result.all_delivered and len(result.delivered) == 8

    def test_deep_fade_corrupts_everything(self, table):
        plan = plan_burst(self._packets(5), table.highest, 2000, 128)
        result = evaluate_burst(plan, 3.0, 2000, RngRegistry(1).stream("b"))
        assert len(result.corrupted) == 5

    def test_per_statistics_at_threshold(self, table):
        # PER at threshold is ~2% for 2 kbit packets: check empirically.
        mode = table.lowest
        rng = RngRegistry(2).stream("stat")
        corrupted = total = 0
        for _ in range(400):
            plan = plan_burst(self._packets(8), mode, 2000, 0)
            res = evaluate_burst(plan, mode.threshold_db, 2000, rng)
            corrupted += len(res.corrupted)
            total += 8
        assert corrupted / total == pytest.approx(0.02, abs=0.01)
