"""ExecutorSpec: the one value that names how a campaign executes.

These tests pin the parse grammar, the type checks on JSON input, the
resolution rule (explicit ``executor=``, else the ambient
``use_executor``, else serial), and — the contract that matters — that
every executor produces results bit-identical to serial.
"""

import pytest

from repro.api import Campaign, ExecutorSpec, Scenario, use_executor
from repro.api.campaign import resolve_executor
from repro.config import Protocol
from repro.errors import ExperimentError
from repro.exec import (
    EXECUTOR_KINDS,
    CampaignExecutor,
    SerialExecutor,
    SupervisedExecutor,
    get_executor,
)


def _campaign(n_seeds=1):
    base = Scenario.from_preset("smoke").with_runtime(
        horizon_s=2.0, sample_interval_s=1.0
    )
    return (
        Campaign(base, name="spec-equiv")
        .over(protocol=[Protocol.PURE_LEACH, Protocol.CAEM_FIXED])
        .seeds(list(range(1, n_seeds + 1)))
    )


def _norm(runs):
    return [{**r.to_dict(), "wall_time_s": 0} for r in runs]


class TestParse:
    def test_kinds(self):
        assert EXECUTOR_KINDS == ("serial", "pool", "supervised", "distributed")
        for kind in EXECUTOR_KINDS:
            assert ExecutorSpec.parse(kind).kind == kind

    def test_bare_count_shorthand(self):
        assert ExecutorSpec.parse("pool:4") == ExecutorSpec(kind="pool", jobs=4)
        assert ExecutorSpec.parse("supervised:2").jobs == 2

    def test_key_value_options(self):
        spec = ExecutorSpec.parse("supervised:jobs=2,timeout=30,retries=1")
        assert (spec.jobs, spec.cell_timeout_s, spec.retries) == (2, 30.0, 1)
        assert spec.max_attempts == 2

    def test_distributed_options(self):
        spec = ExecutorSpec.parse(
            "distributed:bind=127.0.0.1:8400,lease=5,local=2"
        )
        assert spec.bind_address() == ("127.0.0.1", 8400)
        assert spec.lease_timeout_s == 5.0
        assert spec.local_workers == 2

    def test_unknown_kind_rejected(self):
        with pytest.raises(ExperimentError, match="unknown executor kind"):
            ExecutorSpec.parse("threads:4")

    def test_unknown_option_rejected(self):
        with pytest.raises(ExperimentError, match="bad executor option"):
            ExecutorSpec.parse("pool:widht=4")

    def test_bad_value_rejected(self):
        with pytest.raises(ExperimentError, match="bad value"):
            ExecutorSpec.parse("pool:jobs=four")

    def test_validation(self):
        with pytest.raises(ExperimentError, match="jobs must be"):
            ExecutorSpec(kind="pool", jobs=0)
        with pytest.raises(ExperimentError, match="retries"):
            ExecutorSpec(kind="supervised", retries=-1)
        with pytest.raises(ExperimentError, match="cell_timeout_s"):
            ExecutorSpec(kind="supervised", cell_timeout_s=0.0)
        with pytest.raises(ExperimentError, match="backoff delays"):
            ExecutorSpec(kind="supervised", backoff_base_s=-0.1)
        with pytest.raises(ExperimentError, match="lease_timeout_s"):
            ExecutorSpec(kind="distributed", lease_timeout_s=0.0)
        with pytest.raises(ExperimentError, match="bad distributed bind"):
            ExecutorSpec(kind="distributed", bind="nonsense").bind_address()

    def test_normalize_accepts_every_spelling(self):
        spec = ExecutorSpec(kind="pool", jobs=3)
        assert ExecutorSpec.normalize(spec) is spec
        assert ExecutorSpec.normalize("pool:3") == spec
        assert ExecutorSpec.normalize({"kind": "pool", "jobs": 3}) == spec
        with pytest.raises(ExperimentError, match="cannot interpret"):
            ExecutorSpec.normalize(3)

    def test_from_dict_rejects_unknown_fields(self):
        with pytest.raises(ExperimentError, match="unknown executor fields"):
            ExecutorSpec.from_dict({"kind": "pool", "workers": 4})

    @pytest.mark.parametrize("data, expected", [
        ({"kind": "pool", "jobs": "4"}, "an integer"),
        ({"kind": "pool", "jobs": True}, "an integer"),
        ({"kind": "pool", "jobs": 2.5}, "an integer"),
        ({"kind": "supervised", "retries": "1"}, "an integer"),
        ({"kind": "supervised", "cell_timeout_s": "30"}, "a number"),
        ({"kind": "distributed", "lease_timeout_s": False}, "a number"),
        ({"kind": "supervised", "allow_partial": "no"}, "true or false"),
        ({"kind": "distributed", "bind": 8400}, "a string"),
    ])
    def test_from_dict_rejects_mistyped_values(self, data, expected):
        with pytest.raises(ExperimentError, match=f"must be {expected}"):
            ExecutorSpec.from_dict(data)

    def test_from_dict_accepts_well_typed_values(self):
        spec = ExecutorSpec.from_dict({
            "kind": "supervised", "jobs": 2, "cell_timeout_s": 30,
            "retries": None, "allow_partial": True,
        })
        assert (spec.jobs, spec.cell_timeout_s, spec.max_attempts) == (2, 30, 3)
        assert spec.allow_partial is True

    def test_partial_accepts_only_boolean_words(self):
        for word, value in (("true", True), ("YES", True), ("on", True),
                            ("1", True), ("false", False), ("no", False),
                            ("off", False), ("0", False)):
            spec = ExecutorSpec.parse(f"supervised:partial={word}")
            assert spec.allow_partial is value
        for word in ("ture", "maybe", ""):
            with pytest.raises(ExperimentError, match="bad value"):
                ExecutorSpec.parse(f"supervised:partial={word}")

    def test_to_dict_round_trip_omits_defaults(self):
        spec = ExecutorSpec.parse("supervised:jobs=2,retries=1")
        data = spec.to_dict()
        assert data == {"kind": "supervised", "jobs": 2, "retries": 1}
        assert ExecutorSpec.from_dict(data) == spec
        assert ExecutorSpec().to_dict() == {"kind": "serial"}

    def test_describe_is_compact(self):
        assert ExecutorSpec.parse("pool:4").describe() == "pool jobs=4"
        assert "lease=5s" in ExecutorSpec.parse(
            "distributed:lease=5"
        ).describe()


class TestResolvePrecedence:
    def test_serial_fallback(self):
        assert resolve_executor() == ExecutorSpec(kind="serial")

    def test_explicit_executor_wins(self):
        with use_executor("pool:4"):
            resolved = resolve_executor("serial")
        assert resolved == ExecutorSpec(kind="serial")

    def test_live_instance_passes_through(self):
        live = SerialExecutor()
        assert resolve_executor(live) is live

    def test_ambient_executor_used_without_argument(self):
        with use_executor("pool:3") as live:
            assert isinstance(live, SupervisedExecutor)
            assert resolve_executor() is live

    def test_get_executor_instantiates_each_kind(self):
        assert isinstance(get_executor(ExecutorSpec()), SerialExecutor)
        pool = get_executor("pool:2")
        assert isinstance(pool, SupervisedExecutor)
        sup = get_executor({"kind": "supervised", "retries": 1})
        assert isinstance(sup, SupervisedExecutor)
        assert isinstance(sup, CampaignExecutor)
        assert sup.spec.max_attempts == 2


class TestEquivalence:
    """Every executor → results bit-identical to serial."""

    def test_pool_spec_matches_serial(self):
        camp = _campaign()
        serial = camp.run()
        pool = camp.run(executor="pool:2")
        assert _norm(pool.runs) == _norm(serial.runs)

    def test_supervised_spec_matches_serial(self):
        camp = _campaign()
        serial = camp.run()
        supervised = camp.run(executor="supervised:retries=1")
        assert _norm(supervised.runs) == _norm(serial.runs)

    def test_ambient_executor_reaches_campaign(self):
        camp = _campaign()
        serial = camp.run()
        with use_executor("pool:2"):
            ambient = camp.run()
        assert _norm(ambient.runs) == _norm(serial.runs)
