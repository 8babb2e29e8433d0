"""The fault-injection harness and the supervised (fault-tolerant)
campaign executor.

Recovery machinery only counts if a test can make it fire on demand:
these tests inject deterministic worker crashes, hangs, torn store
writes and fsync failures (see ``repro.service.faults``) and assert the
supervisor's watchdog/retry/quarantine behaviour plus the stores'
crash-atomicity guarantees.
"""

import pytest

from repro.api import (
    Campaign,
    CampaignIncompleteError,
    ExecutorSpec,
    ResultStore,
    Scenario,
    run_scenarios,
    use_executor,
)
from repro.config import Protocol
from repro.errors import ReproError
from repro.service import DbResultStore
from repro.service.faults import (
    FAULTS_ENV,
    FaultInjector,
    FaultPlan,
    InjectedFault,
    active_faults,
    inject_faults,
)


def _scenarios(n=2, horizon_s=5.0):
    base = Scenario.from_preset("smoke").with_runtime(
        horizon_s=horizon_s, sample_interval_s=1.0
    )
    camp = (
        Campaign(base)
        .over(protocol=[Protocol.PURE_LEACH])
        .seeds(list(range(1, n + 1)))
    )
    return camp.scenarios()


class TestFaultPlan:
    def test_rates_validated(self):
        with pytest.raises(ReproError, match="must be in"):
            FaultPlan(worker_crash_rate=1.5)
        with pytest.raises(ReproError, match="hang_s"):
            FaultPlan(hang_s=-1.0)

    def test_json_round_trip(self):
        plan = FaultPlan(seed=7, worker_crash_rate=0.3, torn_write_rate=0.1)
        assert FaultPlan.from_json(plan.to_json()) == plan

    def test_unknown_knobs_rejected(self):
        with pytest.raises(ReproError, match="unknown fault knobs"):
            FaultPlan.from_json('{"worker_crash_rat": 1.0}')
        with pytest.raises(ReproError, match="not valid JSON"):
            FaultPlan.from_json("{nope")

    def test_any_enabled(self):
        assert not FaultPlan().any_enabled
        assert FaultPlan(fsync_fail_rate=0.01).any_enabled


class TestFaultInjector:
    def test_roll_is_deterministic_and_rate_shaped(self):
        injector = FaultInjector(FaultPlan(seed=3))
        draws = [
            injector.roll("site", f"key-{i}", 0.3) for i in range(2000)
        ]
        assert draws == [
            injector.roll("site", f"key-{i}", 0.3) for i in range(2000)
        ]
        hit_rate = sum(draws) / len(draws)
        assert 0.25 < hit_rate < 0.35
        assert not any(
            injector.roll("site", f"key-{i}", 0.0) for i in range(100)
        )

    def test_roll_varies_with_seed_site_and_key(self):
        a = FaultInjector(FaultPlan(seed=1))
        b = FaultInjector(FaultPlan(seed=2))
        keys = [f"k{i}" for i in range(200)]
        assert [a.roll("s", k, 0.5) for k in keys] != \
            [b.roll("s", k, 0.5) for k in keys]
        assert [a.roll("s1", k, 0.5) for k in keys] != \
            [a.roll("s2", k, 0.5) for k in keys]

    def test_activation_via_environment(self, monkeypatch):
        monkeypatch.delenv(FAULTS_ENV, raising=False)
        assert active_faults() is None
        with inject_faults(FaultPlan(seed=5, worker_crash_rate=1.0)):
            injector = active_faults()
            assert injector is not None
            assert injector.plan.worker_crash_rate == 1.0
        assert active_faults() is None

    def test_all_off_plan_is_inert(self, monkeypatch):
        with inject_faults(FaultPlan(seed=5)):
            assert active_faults() is None


def _supervised(**fields):
    return ExecutorSpec(kind="supervised", **fields)


class TestSupervisedPolicy:
    def test_validation(self):
        with pytest.raises(ReproError):
            _supervised(cell_timeout_s=0.0)
        with pytest.raises(ReproError):
            _supervised(retries=-1)
        with pytest.raises(ReproError):
            _supervised(backoff_cap_s=-1.0)

    def test_backoff_is_capped_exponential_with_jitter(self):
        sup = _supervised(backoff_base_s=0.25, backoff_cap_s=2.0)
        for attempt in range(1, 8):
            delay = sup.backoff_delay(0, attempt)
            nominal = min(2.0, 0.25 * 2 ** (attempt - 1))
            assert 0.5 * nominal <= delay <= nominal
        # Deterministic: same (seed, index, attempt) -> same delay.
        assert sup.backoff_delay(3, 2) == sup.backoff_delay(3, 2)
        assert sup.backoff_delay(3, 2) != sup.backoff_delay(4, 2)


class TestSupervisedExecutor:
    def test_clean_run_matches_plain_execution(self):
        scenarios = _scenarios(n=2)
        plain = run_scenarios(scenarios)
        supervised = run_scenarios(scenarios, executor=_supervised(retries=1))
        for a, b in zip(plain, supervised):
            da, db = a.to_dict(), b.to_dict()
            da.pop("wall_time_s"), db.pop("wall_time_s")
            assert da == db

    def test_crash_every_attempt_quarantines(self):
        scenarios = _scenarios(n=1)
        sup = _supervised(retries=1, backoff_base_s=0.01, backoff_cap_s=0.02)
        with inject_faults(FaultPlan(seed=1, worker_crash_rate=1.0)):
            with pytest.raises(CampaignIncompleteError) as err:
                run_scenarios(scenarios, executor=sup)
        assert len(err.value.failures) == 1
        failure = err.value.failures[0]
        assert failure.attempts == 2
        assert "died without a result" in failure.error
        assert "persisted" in str(err.value)

    def test_allow_partial_returns_none_slots(self):
        scenarios = _scenarios(n=2)
        sup = _supervised(
            retries=0, allow_partial=True,
            backoff_base_s=0.01, backoff_cap_s=0.02,
        )
        with inject_faults(FaultPlan(seed=1, worker_crash_rate=1.0)):
            results = run_scenarios(scenarios, executor=sup)
        assert results == [None, None]

    def test_crash_then_retry_succeeds(self):
        """A seed where attempt 1 crashes and attempt 2 survives: the
        cell completes with attempts=2, nothing is quarantined."""
        from repro.api.pairing import scenario_key

        scenarios = _scenarios(n=1)
        base_key = "|".join(map(str, scenario_key(scenarios[0])))
        seed = next(
            s for s in range(500)
            if FaultInjector(FaultPlan(seed=s)).roll(
                "worker.crash", base_key + "|attempt=1", 0.5)
            and not FaultInjector(FaultPlan(seed=s)).roll(
                "worker.crash", base_key + "|attempt=2", 0.5)
        )
        events = []
        sup = _supervised(retries=2, backoff_base_s=0.01, backoff_cap_s=0.02)
        with inject_faults(FaultPlan(seed=seed, worker_crash_rate=0.5)):
            results = run_scenarios(
                scenarios, executor=sup, on_cell_event=events.append
            )
        assert len(results) == 1 and results[0] is not None
        kinds = [e["type"] for e in events]
        assert kinds == ["retry", "cell"]
        assert events[0]["kind"] == "crash"
        assert events[1]["attempts"] == 2
        # Identical to the unfaulted run: recovery never changes results.
        clean = run_scenarios(scenarios)
        da, db = clean[0].to_dict(), results[0].to_dict()
        da.pop("wall_time_s"), db.pop("wall_time_s")
        assert da == db

    def test_hang_trips_watchdog_and_is_retried(self):
        """An injected hang longer than the watchdog is killed and the
        retry (fresh attempt key -> no hang) completes the cell."""
        from repro.api.pairing import scenario_key

        scenarios = _scenarios(n=1, horizon_s=2.0)
        base_key = "|".join(map(str, scenario_key(scenarios[0])))
        seed = next(
            s for s in range(500)
            if FaultInjector(FaultPlan(seed=s)).roll(
                "worker.hang", base_key + "|attempt=1", 0.5)
            and not FaultInjector(FaultPlan(seed=s)).roll(
                "worker.hang", base_key + "|attempt=2", 0.5)
        )
        events = []
        sup = _supervised(
            cell_timeout_s=0.5, retries=1,
            backoff_base_s=0.01, backoff_cap_s=0.02,
        )
        with inject_faults(
            FaultPlan(seed=seed, worker_hang_rate=0.5, hang_s=60.0)
        ):
            results = run_scenarios(
                scenarios, executor=sup, on_cell_event=events.append
            )
        assert results[0] is not None
        retry = next(e for e in events if e["type"] == "retry")
        assert retry["kind"] == "timeout"

    def test_worker_exception_is_retried_with_traceback(self):
        """A raising cell (not a crash) carries its traceback into the
        quarantine record."""
        sc = _scenarios(n=1)[0]
        # Sabotage that only detonates inside the worker: a scripted
        # failure naming a node the network does not have is rejected
        # when the dynamics timeline is built, i.e. during scenario.run.
        bad = sc.with_dynamics(scripted_failures=[(1.0, 99_999)])
        sup = _supervised(retries=1, backoff_base_s=0.01, backoff_cap_s=0.02)
        with pytest.raises(CampaignIncompleteError) as err:
            run_scenarios([bad], executor=sup)
        assert "Traceback" in err.value.failures[0].error

    def test_ambient_supervisor_contextvar(self):
        scenarios = _scenarios(n=1)
        sup = _supervised(retries=0, backoff_base_s=0.01, backoff_cap_s=0.02)
        with inject_faults(FaultPlan(seed=1, worker_crash_rate=1.0)):
            with use_executor(sup):
                with pytest.raises(CampaignIncompleteError):
                    run_scenarios(scenarios)
        # Outside the context the plain executor runs (no worker procs,
        # so the crash site is never consulted).
        with inject_faults(FaultPlan(seed=1, worker_crash_rate=1.0)):
            assert run_scenarios(scenarios)[0] is not None

    def test_supervised_store_flush_is_grid_ordered(self, tmp_path):
        scenarios = _scenarios(n=3)
        store = ResultStore(tmp_path / "sup.jsonl")
        sup = _supervised(jobs=2, retries=0)
        run_scenarios(scenarios, store=store, executor=sup)
        stored = store.load()
        serial = run_scenarios(scenarios)
        assert [r.seed for r in stored] == [r.seed for r in serial]


class TestStoreFaults:
    def test_torn_jsonl_append_leaves_loadable_prefix(self, tmp_path):
        scenarios = _scenarios(n=2)
        runs = run_scenarios(scenarios)
        store = ResultStore(tmp_path / "torn.jsonl")
        with inject_faults(FaultPlan(seed=1, torn_write_rate=1.0)):
            with pytest.raises(InjectedFault, match="torn"):
                store.extend(runs)
        survivors = store.load()
        assert len(survivors) == len(runs) - 1
        assert survivors[0].to_dict() == runs[0].to_dict()

    def test_torn_sqlite_batch_rolls_back_atomically(self, tmp_path):
        scenarios = _scenarios(n=2)
        runs = run_scenarios(scenarios)
        store = DbResultStore(tmp_path / "torn.sqlite")
        store.extend(runs[:1])
        with inject_faults(FaultPlan(seed=1, torn_write_rate=1.0)):
            with pytest.raises(InjectedFault):
                store.extend(runs[1:])
        # The failed batch must be all-or-nothing: only the first row.
        assert len(store.load()) == 1

    def test_fsync_failure_raises_but_rows_are_complete(self, tmp_path):
        scenarios = _scenarios(n=1)
        runs = run_scenarios(scenarios)
        store = ResultStore(tmp_path / "sync.jsonl")
        with inject_faults(FaultPlan(seed=1, fsync_fail_rate=1.0)):
            with pytest.raises(InjectedFault, match="fsync"):
                store.extend(runs)
        # The write itself completed (flush happened before the fsync
        # site) — rows are intact, only durability was unconfirmed.
        assert len(store.load()) == 1

    def test_no_env_no_overhead_path(self, monkeypatch, tmp_path):
        monkeypatch.delenv(FAULTS_ENV, raising=False)
        store = ResultStore(tmp_path / "plain.jsonl")
        runs = run_scenarios(_scenarios(n=1))
        store.extend(runs)
        assert len(store.load()) == 1
