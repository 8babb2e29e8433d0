"""The repro.api layer: registry, Scenario, Campaign, ResultStore, engine."""

import json
import math

import pytest

from repro.api import (
    Campaign,
    ResultStore,
    RunOptions,
    RunResult,
    Scenario,
    get_experiment,
    list_experiments,
    run_scenarios,
    simulate,
    use_executor,
)
from repro.api.registry import experiment
from repro.config import Protocol
from repro.errors import ConfigError, ExperimentError


def _smoke(protocol=Protocol.PURE_LEACH, **runtime):
    runtime.setdefault("horizon_s", 8.0)
    runtime.setdefault("sample_interval_s", 2.0)
    return Scenario.from_preset("smoke", protocol).with_runtime(**runtime)


class TestRegistry:
    def test_builtins_registered(self):
        names = {s.name for s in list_experiments()}
        assert {"fig8", "fig9", "fig10", "fig11", "fig12",
                "table1", "table2", "ext-perf"} <= names

    def test_lookup_and_kinds(self):
        assert get_experiment("fig9").kind == "figure"
        assert get_experiment("table1").kind == "table"
        assert get_experiment("ext-perf").kind == "extension"

    def test_unknown_experiment(self):
        with pytest.raises(ExperimentError):
            get_experiment("fig99")

    def test_registration_and_option_dispatch(self):
        @experiment("_test-exp", kind="extension", summary="scratch")
        def _exp(preset="quick"):
            return preset

        try:
            spec = get_experiment("_test-exp")
            assert spec.summary == "scratch"
            # Declared options pass through; ones that only other
            # experiments declare are dropped.
            assert spec.run(preset="smoke", loads_pps=(5.0,),
                            seeds=(1, 2)) == "smoke"
        finally:
            from repro.api import registry

            del registry._REGISTRY["_test-exp"]

    def test_option_no_experiment_declares_is_rejected(self):
        # A typo ("seed" for "seeds") must not silently simulate the
        # default seed.
        with pytest.raises(ExperimentError, match=r"option\(s\) seed;"):
            get_experiment("fig11").run(preset="smoke", seed=(3,))
        # Experiments take no stored rows: replay a store through the
        # run cache instead (repro.service.replay).
        with pytest.raises(ExperimentError, match=r"option\(s\) runs;"):
            get_experiment("fig11").run(preset="smoke", runs=[])

        @experiment("_test-kw", kind="extension")
        def _kw(**options):
            return options

        try:
            # An experiment taking **kwargs accepts every name.
            assert get_experiment("_test-kw").run(seed=3) == {"seed": 3}
        finally:
            from repro.api import registry

            del registry._REGISTRY["_test-kw"]

    def test_conflicting_registration_rejected(self):
        @experiment("_test-dup")
        def _first():
            pass

        try:
            with pytest.raises(ExperimentError):
                @experiment("_test-dup")
                def _second():
                    pass
        finally:
            from repro.api import registry

            del registry._REGISTRY["_test-dup"]

    def test_idempotent_reregistration(self):
        def _fn():
            pass

        try:
            experiment("_test-idem")(_fn)
            experiment("_test-idem")(_fn)  # same function: no error
        finally:
            from repro.api import registry

            del registry._REGISTRY["_test-idem"]


class TestScenario:
    def test_overrides_do_not_mutate(self):
        base = _smoke()
        derived = base.with_load(20.0).with_seed(9).with_(n_nodes=14)
        assert base.config.traffic.packets_per_second == 5.0
        assert base.config.seed == 1
        assert derived.config.traffic.packets_per_second == 20.0
        assert derived.config.seed == 9
        assert derived.config.n_nodes == 14
        # Untouched sections are shared values, not re-validated copies.
        assert derived.config.energy == base.config.energy

    def test_with_sub_and_runtime(self):
        sc = _smoke().with_sub("mac", max_retries=1).with_runtime(
            stop_when_dead=True
        )
        assert sc.config.mac.max_retries == 1
        assert sc.options.stop_when_dead is True
        with pytest.raises(ExperimentError):
            sc.with_sub("warp_drive", speed=9)

    def test_from_preset_tags_and_protocol(self):
        sc = Scenario.from_preset("smoke", Protocol.CAEM_FIXED, load_pps=7.0)
        assert sc.tags["preset"] == "smoke"
        assert sc.config.protocol is Protocol.CAEM_FIXED
        assert sc.config.traffic.packets_per_second == 7.0

    def test_tagged_merges(self):
        sc = _smoke().tagged(a=1).tagged(b=2, a=3)
        assert sc.tags["a"] == 3 and sc.tags["b"] == 2

    def test_run_executes(self):
        run = _smoke().run()
        assert isinstance(run, RunResult)
        assert run.generated > 0

    def test_bad_runtime_rejected(self):
        with pytest.raises(ExperimentError):
            RunOptions(horizon_s=0.0)

    @pytest.mark.parametrize(
        "runtime",
        [
            {"horizon_s": math.inf},
            {"horizon_s": math.nan},
            {"horizon_s": -math.inf},
            {"sample_interval_s": math.inf},
            {"sample_interval_s": math.nan},
        ],
        ids=["horizon-inf", "horizon-nan", "horizon-neg-inf",
             "interval-inf", "interval-nan"],
    )
    def test_non_finite_runtime_rejected(self, runtime):
        # An infinite horizon never returns; NaN passes "> 0" checks
        # written as negations and runs nothing.
        with pytest.raises(ExperimentError, match="must be finite and > 0"):
            RunOptions(**runtime)
        with pytest.raises(ExperimentError, match="must be finite and > 0"):
            _smoke().with_runtime(**runtime)


class TestEngine:
    def test_simulate_matches_scenario_run(self):
        sc = _smoke(horizon_s=6.0)
        a = simulate(sc.config, sc.options).to_dict()
        b = sc.run().to_dict()
        a["wall_time_s"] = b["wall_time_s"] = 0.0  # only field allowed to vary
        assert a == b


class TestResultStore:
    def test_jsonl_roundtrip(self, tmp_path):
        runs = run_scenarios([_smoke(), _smoke().with_seed(2)])
        store = ResultStore(tmp_path / "runs.jsonl")
        store.extend(runs)
        loaded = ResultStore(tmp_path / "runs.jsonl").load()
        assert loaded == runs  # full fidelity, time series included

    def test_unknown_suffix_rejected(self, tmp_path):
        with pytest.raises(ExperimentError):
            ResultStore(tmp_path / "runs.parquet")

    def test_missing_file_loads_empty(self, tmp_path):
        assert ResultStore(tmp_path / "absent.jsonl").load() == []


class TestCampaign:
    def test_grid_expansion_order_and_tags(self):
        camp = (
            Campaign(_smoke(), name="g")
            .over(protocol=[Protocol.PURE_LEACH, Protocol.CAEM_FIXED],
                  load_pps=[2.0, 4.0])
            .seeds([1, 2])
        )
        scenarios = camp.scenarios()
        assert len(camp) == len(scenarios) == 8
        # Axis order: protocol (outer) x load x seed (inner).
        assert [s.config.seed for s in scenarios[:2]] == [1, 2]
        assert scenarios[0].config.protocol is Protocol.PURE_LEACH
        assert scenarios[-1].config.protocol is Protocol.CAEM_FIXED
        assert scenarios[3].tags["load_pps"] == 4.0

    def test_dotted_axis(self):
        camp = Campaign(_smoke()).over(**{"mac.max_retries": [0, 2]})
        retries = [s.config.mac.max_retries for s in camp.scenarios()]
        assert retries == [0, 2]

    def test_unknown_axis_rejected(self):
        with pytest.raises(ExperimentError):
            Campaign(_smoke()).over(warp_factor=[1, 2])

    def test_misspelled_dotted_axis_rejected(self):
        # A typo in the field after the dot names itself and the
        # section's fields, instead of surfacing as a TypeError.
        with pytest.raises(ExperimentError, match="unknown mac field") as info:
            Campaign(_smoke()).over(**{"mac.max_retires": [1]})
        assert "'max_retires'" in str(info.value)
        assert "'max_retries'" in str(info.value)

    def test_empty_axis_rejected(self):
        with pytest.raises(ExperimentError):
            Campaign(_smoke()).over(load_pps=[])

    def test_infinite_field_axis_rejected(self):
        # An infinite field would only fail inside the engine, mid-run.
        with pytest.raises(ConfigError, match="field size"):
            Campaign(_smoke()).over(field_size_m=[float("inf")])

    def test_select_and_store(self, tmp_path):
        store = ResultStore(tmp_path / "c.jsonl")
        camp = Campaign(_smoke(horizon_s=5.0)).over(load_pps=[2.0, 6.0])
        result = camp.run(store=store)
        assert len(result) == 2
        assert len(result.select(load_pps=6.0)) == 1
        assert len(store) == 2

    @pytest.mark.slow
    def test_quick_scale_figure_cross_parallelism_identical(self):
        """Registry + campaign determinism at quick scale (full lifetime
        sweeps; excluded from the default run — select with -m slow)."""
        fig = get_experiment("fig9")
        serial = fig.run(preset="quick", seeds=(1,))
        with use_executor("pool:3"):
            fanned = fig.run(preset="quick", seeds=(1,))
        assert serial.rows == fanned.rows
        assert serial.notes == fanned.notes

    def test_determinism_across_parallelism(self):
        """Serial and pool:4 must yield byte-identical metrics."""
        def build():
            return (
                Campaign(_smoke(horizon_s=6.0))
                .over(protocol=[Protocol.PURE_LEACH, Protocol.CAEM_ADAPTIVE])
                .seeds([1, 2])
            )

        serial = build().run()
        parallel = build().run(executor="pool:4")
        assert len(serial.runs) == len(parallel.runs) == 4
        # wall_time_s is the only field allowed to differ.
        for rx, ry in zip(serial.runs, parallel.runs):
            a = json.dumps({**rx.to_dict(), "wall_time_s": 0}, sort_keys=True)
            b = json.dumps({**ry.to_dict(), "wall_time_s": 0}, sort_keys=True)
            assert a == b
