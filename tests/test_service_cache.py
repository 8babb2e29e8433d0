"""The content-addressed run cache: zero re-simulation, byte-identity."""

import pytest

from repro.api import Campaign, ResultStore, Scenario, use_run_cache
from repro.api.campaign import active_run_cache
from repro.config import Protocol
from repro.errors import ExperimentError
from repro.service import DbResultStore, RunCache


def _base():
    return Scenario.from_preset("smoke").with_runtime(
        horizon_s=6.0, sample_interval_s=2.0
    )


def _campaign(name="cache-test"):
    return (
        Campaign(_base(), name=name)
        .over(protocol=[Protocol.PURE_LEACH, Protocol.CAEM_ADAPTIVE])
        .seeds([1])
    )


class TestRunCache:
    def test_identical_campaign_twice_is_pure_reads(self, tmp_path):
        db = DbResultStore(tmp_path / "runs.sqlite")
        first = RunCache(db)
        r1 = _campaign().run(cache=first)
        assert first.stats.misses == len(r1.runs)
        assert first.stats.hits == 0
        assert len(db) == len(r1.runs)

        second = RunCache(db)
        r2 = _campaign().run(cache=second)
        # Zero simulations on the second pass...
        assert second.stats.misses == 0
        assert second.stats.hits == len(r2.runs)
        assert second.stats.hit_rate == 1.0
        assert second.stats.bytes_saved > 0
        # ...nothing new written...
        assert len(db) == len(r1.runs)
        # ...and the results are byte-identical, in order.
        assert [a.to_dict() for a in r1.runs] == \
            [b.to_dict() for b in r2.runs]

    def test_partial_store_simulates_only_missing_cells(self, tmp_path):
        db = DbResultStore(tmp_path / "runs.sqlite")
        # Populate two of the four cells.
        small = Campaign(_base()).over(
            protocol=[Protocol.PURE_LEACH]
        ).seeds([1, 2])
        small.run(cache=RunCache(db))
        assert len(db) == 2

        big = Campaign(_base()).over(
            protocol=[Protocol.PURE_LEACH, Protocol.CAEM_ADAPTIVE]
        ).seeds([1, 2])
        cache = RunCache(db)
        result = big.run(cache=cache)
        assert cache.stats.hits == 2
        assert cache.stats.misses == 2
        assert len(db) == 4
        # Order is grid order regardless of hit/miss interleaving.
        assert [(r.protocol, r.seed) for r in result.runs] == [
            ("pure_leach", 1), ("pure_leach", 2),
            ("scheme1", 1), ("scheme1", 2),
        ]

    def test_digest_mismatch_is_a_miss(self, tmp_path):
        db = DbResultStore(tmp_path / "runs.sqlite")
        _campaign().run(cache=RunCache(db))
        # Same grid coordinates, different sub-config => different digest
        # => every cell is simulated fresh, never mis-served.
        shifted = (
            Campaign(_base().with_sub("mac", max_retries=1), name="cache-test")
            .over(protocol=[Protocol.PURE_LEACH, Protocol.CAEM_ADAPTIVE])
            .seeds([1])
        )
        cache = RunCache(db)
        shifted.run(cache=cache)
        assert cache.stats.hits == 0
        assert cache.stats.misses == 2

    def test_cached_rows_round_trip_through_user_store(self, tmp_path):
        """A caller's own store behind the cache receives every result
        (hit or miss), in grid order."""
        db = DbResultStore(tmp_path / "runs.sqlite")
        _campaign().run(cache=RunCache(db))
        out = ResultStore(tmp_path / "out.jsonl")
        result = _campaign().run(cache=RunCache(db), store=out)
        assert [r.to_dict() for r in out.load()] == \
            [r.to_dict() for r in result.runs]

    def test_flat_file_store_backend(self, tmp_path):
        """The cache also works over a plain JSONL store (scan path)."""
        jsonl = ResultStore(tmp_path / "runs.jsonl")
        first = RunCache(jsonl)
        r1 = _campaign().run(cache=first)
        assert first.stats.misses == 2
        second = RunCache(jsonl)
        r2 = _campaign().run(cache=second)
        assert second.stats.misses == 0
        assert [a.to_dict() for a in r1.runs] == \
            [b.to_dict() for b in r2.runs]

    def test_csv_store_is_refused(self, tmp_path, capsys):
        """A result store is JSONL or SQLite: ``--cache c.csv`` is
        refused at open, before anything simulates or a file exists."""
        from repro.cli import main

        with pytest.raises(ExperimentError, match="unsupported store format"):
            ResultStore(tmp_path / "runs.csv")
        code = main(["run", "fig8", "--preset", "smoke", "--seeds", "1",
                     "--cache", str(tmp_path / "c.csv")])
        assert code == 1
        assert "unsupported store format '.csv'" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_events_emitted_in_both_paths(self, tmp_path):
        db = DbResultStore(tmp_path / "runs.sqlite")
        events = []
        _campaign().run(cache=RunCache(db, on_event=events.append))
        kinds = [e["type"] for e in events]
        assert kinds[0] == "plan"
        assert kinds.count("cell") == 2
        assert all(e["source"] == "sim" for e in events if e["type"] == "cell")
        events2 = []
        _campaign().run(cache=RunCache(db, on_event=events2.append))
        assert all(
            e["source"] == "cache" for e in events2 if e["type"] == "cell"
        )


class TestAmbientCache:
    def test_use_run_cache_scopes_the_context(self, tmp_path):
        db = DbResultStore(tmp_path / "runs.sqlite")
        cache = RunCache(db)
        assert active_run_cache() is None
        with use_run_cache(cache):
            assert active_run_cache() is cache
            _campaign().run()
        assert active_run_cache() is None
        assert cache.stats.misses == 2

    def test_figure_render_is_byte_identical_when_cached(self, tmp_path):
        """The acceptance criterion: a registered experiment re-run
        against a populated store performs zero simulations and renders
        byte-identical output."""
        from repro.experiments.figures import fig8_remaining_energy

        db = DbResultStore(tmp_path / "runs.sqlite")
        cold = RunCache(db)
        with use_run_cache(cold):
            first = fig8_remaining_energy(preset="smoke", seeds=(1,))
        assert cold.stats.misses == 3  # three protocols simulated
        assert cold.stats.hits == 0

        warm = RunCache(db)
        with use_run_cache(warm):
            second = fig8_remaining_energy(preset="smoke", seeds=(1,))
        assert warm.stats.misses == 0
        assert warm.stats.hits == 3
        assert second.render() == first.render()
        # Stored rows carry the experiment stamp (indexed read path).
        assert len(db.query(experiment="fig8")) == 3

    def test_experiment_stamp_isolation(self, tmp_path):
        """fig12 shares fig11's grid coordinates but must not be served
        fig11's rows (the experiment stamp discriminates)."""
        db = DbResultStore(tmp_path / "runs.sqlite")
        scenarios = [_base()]
        from repro.api import run_scenarios

        with use_run_cache(RunCache(db)):
            run_scenarios(scenarios, experiment="exp-a")
        cache = RunCache(db)
        with use_run_cache(cache):
            run_scenarios(scenarios, experiment="exp-b")
        assert cache.stats.misses == 1  # exp-a's row was not admitted

    @pytest.mark.slow
    def test_cache_results_identical_at_any_jobs(self, tmp_path):
        """Cache misses fan out over the process pool like plain runs;
        the assembled results stay bit-identical to serial."""
        db1 = DbResultStore(tmp_path / "a.sqlite")
        db2 = DbResultStore(tmp_path / "b.sqlite")
        serial = _campaign().run(cache=RunCache(db1))
        fanned = _campaign().run(executor="pool:2", cache=RunCache(db2))
        # wall_time_s is the only field allowed to differ.
        assert [{**a.to_dict(), "wall_time_s": 0} for a in serial.runs] == \
            [{**b.to_dict(), "wall_time_s": 0} for b in fanned.runs]
