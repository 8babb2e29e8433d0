"""``backend="auto"`` — engine selection as a pure function of config.

Auto must (a) pick the vector engine only for populations large enough
to benefit, (b) route *every* channel model there at scale (Jakes
fading and Rician K > 0 are vectorised and equivalence-checked by the
``backend-parity`` CI matrix), and (c) resolve before digesting, so an auto
config pairs/caches identically to its explicit equivalent — and runs
stored before the envelope closed still re-render from their stores
without re-simulation.
"""

import dataclasses

import pytest

from repro.config import NetworkConfig, Protocol
from repro.errors import ExperimentError
from repro.vector import AUTO_VECTOR_MIN_NODES, resolve_backend


def _cfg(n_nodes, backend="auto", **channel):
    cfg = NetworkConfig(
        n_nodes=n_nodes, protocol=Protocol.PURE_LEACH, seed=1
    ).with_scale(backend=backend)
    if channel:
        cfg = dataclasses.replace(
            cfg, channel=dataclasses.replace(cfg.channel, **channel)
        )
    return cfg


class TestResolution:
    def test_small_population_resolves_to_event(self):
        assert resolve_backend(_cfg(100)) == "event"
        assert resolve_backend(_cfg(AUTO_VECTOR_MIN_NODES - 1)) == "event"

    def test_large_population_resolves_to_vector(self):
        assert resolve_backend(_cfg(AUTO_VECTOR_MIN_NODES)) == "vector"
        assert resolve_backend(_cfg(5000)) == "vector"

    def test_explicit_backends_pass_through(self):
        assert resolve_backend(_cfg(10, backend="event")) == "event"
        assert resolve_backend(_cfg(5000, backend="vector")) == "vector"
        assert resolve_backend(
            _cfg(10, backend="vector", fading_kernel="jakes")
        ) == "vector"

    def test_auto_selects_vector_for_jakes_at_scale(self):
        # Flipped when the Jakes AR(1)-Doppler bridge was vectorised:
        # the kernel no longer keeps a large population on the event
        # engine.
        for n in (AUTO_VECTOR_MIN_NODES, 100_000):
            assert resolve_backend(_cfg(n, fading_kernel="jakes")) == "vector"
        assert resolve_backend(_cfg(100, fading_kernel="jakes")) == "event"

    def test_auto_selects_vector_for_rician_at_scale(self):
        for k in (0.5, 4.0, 10.0):
            assert resolve_backend(_cfg(100_000, rician_k=k)) == "vector"
        assert resolve_backend(_cfg(100, rician_k=4.0)) == "event"


class TestDigestTransparency:
    def test_auto_digests_like_its_explicit_equivalent(self):
        big = _cfg(AUTO_VECTOR_MIN_NODES)
        assert big.digest() == _cfg(
            AUTO_VECTOR_MIN_NODES, backend="vector"
        ).digest()
        small = _cfg(100)
        assert small.digest() == _cfg(100, backend="event").digest()

    def test_fading_kernels_digest_like_explicit_vector(self):
        # Jakes/Rician at scale now resolve to vector, so their auto
        # digests moved from the event equivalent to the vector one.
        for channel in (
            {"fading_kernel": "jakes"},
            {"rician_k": 4.0},
        ):
            auto = _cfg(100_000, **channel)
            vector = _cfg(100_000, backend="vector", **channel)
            event = _cfg(100_000, backend="event", **channel)
            assert auto.digest() == vector.digest()
            assert auto.digest() != event.digest()

    def test_to_dict_never_serialises_auto(self):
        big = _cfg(AUTO_VECTOR_MIN_NODES).to_dict()
        assert big["scale"]["backend"] == "vector"
        small = _cfg(100).to_dict()
        # "event" is the sparse default: the key is omitted entirely.
        assert "backend" not in small.get("scale", {})

    def test_round_trip_preserves_resolution(self):
        cfg = _cfg(AUTO_VECTOR_MIN_NODES)
        back = NetworkConfig.from_dict(cfg.to_dict())
        assert back.scale.backend == "vector"
        assert back.digest() == cfg.digest()


class TestDispatch:
    def test_auto_runs_on_the_resolved_engine(self, monkeypatch):
        """Drop the threshold so a 20-node run exercises the real
        auto -> vector dispatch path without population-scale cost."""
        from repro.api import RunOptions, simulate
        from repro.vector import support

        opts = RunOptions(horizon_s=5.0, sample_interval_s=2.5)
        explicit = simulate(_cfg(20, backend="vector"), opts)
        monkeypatch.setattr(support, "AUTO_VECTOR_MIN_NODES", 20)
        auto = simulate(_cfg(20), opts)
        da, db = auto.to_dict(), explicit.to_dict()
        da.pop("wall_time_s"), db.pop("wall_time_s")
        assert da == db

    def test_auto_dispatches_jakes_to_vector(self, monkeypatch):
        from repro.api import RunOptions, simulate
        from repro.vector import support

        opts = RunOptions(horizon_s=5.0, sample_interval_s=2.5)
        explicit = simulate(
            _cfg(20, backend="vector", fading_kernel="jakes"), opts
        )
        monkeypatch.setattr(support, "AUTO_VECTOR_MIN_NODES", 20)
        auto = simulate(_cfg(20, fading_kernel="jakes"), opts)
        da, db = auto.to_dict(), explicit.to_dict()
        da.pop("wall_time_s"), db.pop("wall_time_s")
        assert da == db

    def test_auto_runs_on_event_below_threshold(self):
        from repro.api import RunOptions, simulate

        opts = RunOptions(horizon_s=5.0, sample_interval_s=2.5)
        auto = simulate(_cfg(20), opts)
        explicit = simulate(_cfg(20, backend="event"), opts)
        da, db = auto.to_dict(), explicit.to_dict()
        da.pop("wall_time_s"), db.pop("wall_time_s")
        assert da == db

    def test_ext_scale_accepts_auto(self):
        from repro.api import get_experiment

        with pytest.raises(ExperimentError, match="unknown backend"):
            get_experiment("ext-scale").run(preset="smoke", backend="warp")
        # "auto" is in the accepted list: building scenarios must not
        # raise (running the smoke ladder here would be redundant with
        # test_scale.py; validation is the contract under test).
        from repro.experiments.scale import _BACKENDS

        assert "auto" in _BACKENDS

    def test_scale_config_accepts_auto(self):
        from repro.experiments.scale import scale_config

        cfg = scale_config(2000, Protocol.PURE_LEACH, backend="auto")
        assert cfg.scale.backend == "auto"
        assert resolve_backend(cfg) == "vector"
        small = scale_config(30, Protocol.PURE_LEACH, backend="auto")
        assert resolve_backend(small) == "event"


class TestStoredRunCompatibility:
    def test_event_backend_store_re_renders_without_resimulation(
        self, tmp_path, capsys
    ):
        """Runs stored before the envelope closed (explicit event
        backend, any channel) still re-render from ``--from`` — the
        pairing key carries the resolved backend, so widening auto's
        reach never orphans old rows."""
        from repro.api import get_experiment
        from repro.service import open_store, replay

        store = open_store(tmp_path / "old.jsonl")
        figure = get_experiment("ext-scale").run(
            preset="smoke", seeds=(1,), backend="event"
        )
        store.extend(figure.runs)

        with replay(store):
            rendered = get_experiment("ext-scale").run(
                preset="smoke", seeds=(1,), backend="event",
            )
        assert rendered.rows == figure.rows
