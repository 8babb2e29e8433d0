"""Metrics: collectors, lifetime, fairness, summary."""

import math

import numpy as np
import pytest

from repro.errors import ExperimentError
from repro.metrics import (
    TimeSeriesCollector,
    death_spread_s,
    first_death_s,
    jain_index,
    last_death_s,
    mean_of,
    mean_snapshot_std,
    network_lifetime_s,
    queue_length_std,
    summarize,
)
from repro.sim import Simulator


class TestTimeSeriesCollector:
    def test_samples_on_cadence(self):
        sim = Simulator()
        values = iter(range(100))
        col = TimeSeriesCollector(sim, 1.0, lambda: next(values)).start()
        sim.run_until(5.0)
        assert col.times == [0.0, 1.0, 2.0, 3.0, 4.0, 5.0]
        assert col.values == [0, 1, 2, 3, 4, 5]
        assert col.n_samples == 6

    def test_no_start_sample_option(self):
        sim = Simulator()
        col = TimeSeriesCollector(sim, 1.0, lambda: 7, sample_at_start=False).start()
        sim.run_until(2.5)
        assert col.times == [1.0, 2.0]

    def test_stop(self):
        sim = Simulator()
        col = TimeSeriesCollector(sim, 1.0, lambda: 1).start()
        sim.run_until(2.0)
        col.stop()
        sim.run_until(10.0)
        assert col.n_samples == 3

    def test_as_arrays(self):
        sim = Simulator()
        col = TimeSeriesCollector(sim, 0.5, lambda: sim.now * 2).start()
        sim.run_until(2.0)
        t, v = col.as_arrays()
        np.testing.assert_allclose(v, t * 2)

    def test_value_at(self):
        sim = Simulator()
        source = iter([10, 20, 30, 40])
        col = TimeSeriesCollector(sim, 1.0, lambda: next(source)).start()
        sim.run_until(3.0)
        assert col.value_at(1.5) == 20
        assert col.value_at(3.0) == 40
        with pytest.raises(ExperimentError):
            col.value_at(-0.1)

    def test_double_start_rejected(self):
        sim = Simulator()
        col = TimeSeriesCollector(sim, 1.0, lambda: 1).start()
        with pytest.raises(ExperimentError):
            col.start()

    def test_bad_interval(self):
        with pytest.raises(ExperimentError):
            TimeSeriesCollector(Simulator(), 0.0, lambda: 1)


class TestLifetime:
    def test_lifetime_at_fraction(self):
        deaths = [10.0, 20.0, 30.0, 40.0, None]
        # 5 nodes, 0.5 dead fraction -> need floor(2.5)+1 = 3 deaths.
        assert network_lifetime_s(deaths, 5, 0.5) == 30.0

    def test_censored_returns_none(self):
        deaths = [10.0, None, None, None, None]
        assert network_lifetime_s(deaths, 5, 0.5) is None

    def test_full_fraction_needs_all(self):
        deaths = [1.0, 2.0, 3.0]
        assert network_lifetime_s(deaths, 3, 1.0) == 3.0
        assert network_lifetime_s([1.0, 2.0, None], 3, 1.0) is None

    def test_paper_default_fraction(self):
        deaths = [float(i) for i in range(1, 101)]
        # 80% of 100 -> 81st death.
        assert network_lifetime_s(deaths, 100, 0.8) == 81.0

    def test_first_last_spread(self):
        deaths = [5.0, None, 9.0, 2.0]
        assert first_death_s(deaths) == 2.0
        assert last_death_s(deaths) == 9.0
        assert death_spread_s(deaths) == 7.0

    def test_no_deaths(self):
        assert first_death_s([None, None]) is None
        assert death_spread_s([None]) is None

    def test_validation(self):
        with pytest.raises(ExperimentError):
            network_lifetime_s([1.0], 0, 0.8)
        with pytest.raises(ExperimentError):
            network_lifetime_s([1.0], 5, 0.0)


class TestFairness:
    def test_queue_std(self):
        assert queue_length_std([3, 3, 3]) == 0.0
        assert queue_length_std([0, 10]) == pytest.approx(5.0)

    def test_mean_snapshot_std(self):
        snaps = [[0, 10], [0, 0], [2, 6]]
        assert mean_snapshot_std(snaps) == pytest.approx((5.0 + 0.0 + 2.0) / 3)

    def test_mean_snapshot_skips_empty(self):
        assert mean_snapshot_std([[], [1, 3]]) == pytest.approx(1.0)

    def test_empty_rejected(self):
        with pytest.raises(ExperimentError):
            queue_length_std([])
        with pytest.raises(ExperimentError):
            mean_snapshot_std([[], []])

    def test_jain_bounds(self):
        assert jain_index([5, 5, 5, 5]) == pytest.approx(1.0)
        assert jain_index([1, 0, 0, 0]) == pytest.approx(0.25)
        assert jain_index([0, 0]) == 1.0

    def test_jain_negative_rejected(self):
        with pytest.raises(ExperimentError):
            jain_index([-1, 2])


class TestSummary:
    def test_single_value(self):
        s = summarize([4.2])
        assert s.n == 1 and s.mean == 4.2 and s.std == 0.0
        assert s.ci_low == s.ci_high == 4.2

    def test_mean_and_ci_cover_truth(self):
        rng = np.random.default_rng(0)
        hits = 0
        for _ in range(200):
            vals = rng.normal(10.0, 2.0, size=8)
            s = summarize(list(vals))
            if s.ci_low <= 10.0 <= s.ci_high:
                hits += 1
        # 95% CI should cover ~95% of the time.
        assert hits / 200 == pytest.approx(0.95, abs=0.05)

    def test_none_dropped(self):
        s = summarize([1.0, None, 3.0])
        assert s.n == 2 and s.mean == 2.0

    def test_all_none_rejected(self):
        with pytest.raises(ExperimentError):
            summarize([None, None])

    def test_str_formats(self):
        assert "±" in str(summarize([1.0, 2.0, 3.0]))
        assert "±" not in str(summarize([1.0]))

    def test_bad_confidence(self):
        with pytest.raises(ExperimentError):
            summarize([1.0, 2.0], confidence=1.5)

    @pytest.mark.parametrize("n", [2, 3, 10])
    def test_ci_bounds_bit_equal_to_student_t(self, n):
        from scipy import stats

        values = [float(v) for v in np.random.default_rng(n).normal(10.0, 2.0, n)]
        arr = np.asarray(values, dtype=float)
        mean = float(arr.mean())
        std = float(arr.std(ddof=1))
        half = float(stats.t.ppf(0.975, df=n - 1)) * (std / math.sqrt(n))
        s = summarize(values)
        assert (s.n, s.mean, s.std) == (n, mean, std)
        assert (s.ci_low, s.ci_high) == (mean - half, mean + half)


class TestMeanOf:
    @pytest.mark.parametrize("values", [
        [4.2],
        [1.0, 2.0],
        [0.1, 0.2, 0.7],
        [1.0, None, 3.0, float("nan")],
        list(np.random.default_rng(7).normal(1e-3, 2e-4, 10)),
    ])
    def test_bit_equal_to_summarize_mean(self, values):
        assert mean_of(values) == summarize(values).mean

    @pytest.mark.parametrize("values", [[], [None], [float("nan"), None]])
    def test_nothing_usable_rejected(self, values):
        with pytest.raises(ExperimentError):
            mean_of(values)
