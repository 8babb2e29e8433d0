"""The campaign server: submit → poll → stream → browse → re-render."""

import json
import threading
import urllib.error
import urllib.request

import pytest

from repro.errors import ExperimentError
from repro.service import DbResultStore, JobManager, build_server


@pytest.fixture()
def server(tmp_path):
    srv = build_server(tmp_path / "service.sqlite", port=0, quiet=True)
    thread = threading.Thread(target=srv.serve_forever, daemon=True)
    thread.start()
    try:
        yield srv
    finally:
        srv.close()
        thread.join(timeout=5.0)


def _url(server, path):
    host, port = server.server_address[:2]
    return f"http://{host}:{port}{path}"


def _get_json(server, path):
    with urllib.request.urlopen(_url(server, path), timeout=30) as resp:
        return json.loads(resp.read())


def _get_text(server, path):
    with urllib.request.urlopen(_url(server, path), timeout=30) as resp:
        return resp.read().decode()


def _post_json(server, path, payload):
    request = urllib.request.Request(
        _url(server, path),
        data=json.dumps(payload).encode(),
        headers={"Content-Type": "application/json"},
    )
    with urllib.request.urlopen(request, timeout=30) as resp:
        return resp.status, json.loads(resp.read())


GRID_SPEC = {
    "axes": {"protocol": ["pure_leach"]},
    "preset": "smoke",
    "horizon_s": 5.0,
    "sample_interval_s": 1.0,
    "seeds": [1],
}

#: The grid of fig8's smoke cells at seed 1, as an ad-hoc campaign.
FIG8_GRID_SPEC = {
    "preset": "smoke",
    "axes": {"protocol": ["pure_leach", "scheme1", "scheme2"],
             "load_pps": [5.0]},
    "seeds": [1],
}


def _finished_job(server, spec):
    """Submit ``spec``, wait for it to finish cleanly; its job id."""
    _, submitted = _post_json(server, "/campaigns", spec)
    job_id = submitted["job_id"]
    assert server.manager.get(job_id).wait(timeout=300.0)
    snap = _get_json(server, f"/campaigns/{job_id}")
    assert snap["status"] == "done", snap["error"]
    return job_id


def _agg_by_protocol(server, job_id):
    return _get_json(server, f"/campaigns/{job_id}/agg?group_by=protocol")


class TestEndpoints:
    def test_health_and_experiments(self, server):
        health = _get_json(server, "/health")
        assert health["ok"] is True
        assert health["rows"] == 0
        assert health["schema_version"] >= 2
        listed = _get_json(server, "/experiments")["experiments"]
        names = {spec["name"] for spec in listed}
        assert {"fig8", "table1", "ext-dynamics"} <= names
        assert all({"name", "kind", "summary"} <= set(s) for s in listed)

    def test_submit_poll_stream_browse(self, server):
        status, submitted = _post_json(server, "/campaigns", GRID_SPEC)
        assert status == 202
        job_id = submitted["job_id"]
        assert submitted["status"] in ("queued", "running")

        assert server.manager.get(job_id).wait(timeout=120.0)
        snap = _get_json(server, f"/campaigns/{job_id}")
        assert snap["status"] == "done"
        assert snap["total_cells"] == 1
        assert snap["completed_cells"] == 1
        assert snap["cache"]["misses"] == 1

        # NDJSON event stream: replayable, ordered, terminal.
        lines = _get_text(
            server, f"/campaigns/{job_id}/events?timeout=5"
        ).strip().splitlines()
        events = [json.loads(line) for line in lines]
        assert [e["type"] for e in events] == ["plan", "cell", "done"]
        assert [e["seq"] for e in events] == [0, 1, 2]
        assert events[1]["source"] == "sim"
        # Replay from an offset skips what was already seen.
        tail = _get_text(
            server, f"/campaigns/{job_id}/events?after=2&timeout=5"
        ).strip().splitlines()
        assert [json.loads(line)["type"] for line in tail] == ["done"]

        # The rows are browsable with predicates.
        browsed = _get_json(
            server, "/runs?protocol=pure_leach&where=delivery_rate>=0"
        )
        assert browsed["count"] == 1
        row = browsed["rows"][0]
        assert row["protocol"] == "pure_leach"
        assert "sample_times_s" not in row  # scalar summary by default
        full = _get_json(server, "/runs?full=1")
        assert "sample_times_s" in full["rows"][0]

        # Resubmitting the identical campaign is served from the cache.
        _, again = _post_json(server, "/campaigns", GRID_SPEC)
        assert server.manager.get(again["job_id"]).wait(timeout=60.0)
        snap2 = _get_json(server, f"/campaigns/{again['job_id']}")
        assert snap2["cache"]["hits"] == 1
        assert snap2["cache"]["misses"] == 0
        assert _get_json(server, "/health")["rows"] == 1  # nothing re-added

    def test_figure_job_renders_and_rerenders_from_rows(self, server):
        spec = {"experiment": "fig8", "preset": "smoke", "seeds": [1]}
        _, submitted = _post_json(server, "/campaigns", spec)
        job_id = submitted["job_id"]
        assert server.manager.get(job_id).wait(timeout=300.0)
        snap = _get_json(server, f"/campaigns/{job_id}")
        assert snap["status"] == "done", snap["error"]
        assert snap["has_figure"]
        rendered = _get_text(server, f"/campaigns/{job_id}/figure")
        assert "fig8:" in rendered
        # Re-render purely from the stored DB rows: byte-identical.
        rerendered = _get_text(
            server, f"/campaigns/{job_id}/figure?rerender=1"
        )
        assert rerendered == rendered

    def test_rerender_replays_rows_another_job_stored(self, server):
        """A figure job whose every cell the cache served from a grid
        job's (unstamped) rows re-renders from those same rows."""
        _finished_job(server, FIG8_GRID_SPEC)
        spec = {"experiment": "fig8", "preset": "smoke", "seeds": [1]}
        _, submitted = _post_json(server, "/campaigns", spec)
        job_id = submitted["job_id"]
        assert server.manager.get(job_id).wait(timeout=300.0)
        snap = _get_json(server, f"/campaigns/{job_id}")
        assert snap["status"] == "done", snap["error"]
        assert (snap["cache"]["hits"], snap["cache"]["misses"]) == (3, 0)
        rendered = _get_text(server, f"/campaigns/{job_id}/figure")
        rerendered = _get_text(
            server, f"/campaigns/{job_id}/figure?rerender=1"
        )
        assert rerendered == rendered

    def test_agg_reduces_rows_another_job_stored(self, server):
        """/agg of a figure job whose cells the cache served from a grid
        job's rows reduces those rows, as ?rerender=1 renders them."""
        _finished_job(server, FIG8_GRID_SPEC)
        job_id = _finished_job(
            server, {"experiment": "fig8", "preset": "smoke", "seeds": [1]}
        )
        agg = _agg_by_protocol(server, job_id)
        assert agg["count"] == 3
        assert [g["n"] for g in agg["groups"]] == [1, 1, 1]

    def test_agg_reduces_only_the_jobs_own_cells(self, server):
        """A later job of the same experiment over other seeds adds rows
        of that experiment; the first job's /agg reads none of them."""
        first = _finished_job(
            server, {"experiment": "fig8", "preset": "smoke", "seeds": [1]}
        )
        _finished_job(
            server, {"experiment": "fig8", "preset": "smoke", "seeds": [2]}
        )
        agg = _agg_by_protocol(server, first)
        assert agg["count"] == 3
        assert [g["n"] for g in agg["groups"]] == [1, 1, 1]

    def test_agg_of_experiments_sharing_digests(self, server):
        """fig11 and ext-perf build the same 18 smoke cells, and each
        stamps its own rows: the store holds 36 rows over 18 digests,
        and each job reduces only its own 18."""
        jobs = [
            _finished_job(server, {"experiment": name, "preset": "smoke"})
            for name in ("fig11", "ext-perf")
        ]
        rows = _get_json(server, "/runs?limit=100")["rows"]
        assert len(rows) == 36
        assert len({row["config_digest"] for row in rows}) == 18
        for job_id in jobs:
            groups = _agg_by_protocol(server, job_id)["groups"]
            assert sum(g["n"] for g in groups) == 18

    def test_error_paths(self, server):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _post_json(server, "/campaigns", {"experiment": "fig99"})
        assert excinfo.value.code == 400
        assert "unknown experiment" in json.loads(
            excinfo.value.read())["error"]

        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _get_json(server, "/campaigns/job-999")
        assert excinfo.value.code == 400

        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _get_json(server, "/nope")
        assert excinfo.value.code == 404

        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _get_json(server, "/runs?where=warp_factor%3E9")
        assert excinfo.value.code == 400
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _get_json(server, "/runs?where=nonsense")
        assert excinfo.value.code == 400

    def test_mistyped_executor_is_a_400(self, server):
        for executor in ({"kind": "pool", "jobs": "4"},
                         {"kind": "supervised", "allow_partial": "no"}):
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                _post_json(server, "/campaigns",
                           {**GRID_SPEC, "executor": executor})
            assert excinfo.value.code == 400
            assert "executor field" in json.loads(excinfo.value.read())["error"]
        assert _get_json(server, "/campaigns")["jobs"] == []

    def test_misspelled_dotted_axis_is_a_400(self, server):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _post_json(server, "/campaigns",
                       {**GRID_SPEC, "axes": {"mac.max_retires": [1]}})
        assert excinfo.value.code == 400
        error = json.loads(excinfo.value.read())["error"]
        assert "unknown mac field 'max_retires'" in error
        assert _get_json(server, "/campaigns")["jobs"] == []

    def test_infinite_field_is_a_400(self, server):
        # json.loads reads Infinity and NaN: the spec must fail at submit,
        # not as a job whose cells die in the engine, never return (an
        # infinite horizon) or store an empty run (a NaN one).
        cases = [
            ({"axes": {"field_size_m": [float("inf")]}}, "field size"),
            ({"horizon_s": float("inf")}, "horizon must be finite"),
            ({"sample_interval_s": float("nan")}, "sample interval must be finite"),
        ]
        for change, message in cases:
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                _post_json(server, "/campaigns", {**GRID_SPEC, **change})
            assert excinfo.value.code == 400
            assert message in json.loads(excinfo.value.read())["error"]
        assert _get_json(server, "/campaigns")["jobs"] == []


class TestJobManager:
    def test_removed_execution_keys_name_executor(self, tmp_path):
        manager = JobManager(DbResultStore(tmp_path / "db.sqlite"))
        try:
            for key, value in (("jobs", 2), ("supervise", True),
                               ("cell_timeout_s", 30.0), ("max_attempts", 3)):
                with pytest.raises(ExperimentError, match='"executor"'):
                    manager.submit({**GRID_SPEC, key: value})
            assert manager.list() == []
        finally:
            manager.shutdown()

    def test_bad_specs_fail_at_submit(self, tmp_path):
        manager = JobManager(DbResultStore(tmp_path / "db.sqlite"))
        try:
            with pytest.raises(ExperimentError, match="experiment"):
                manager.submit({})
            with pytest.raises(ExperimentError, match="axes"):
                manager.submit({"axes": {}})
            with pytest.raises(ExperimentError, match="unknown campaign axis"):
                manager.submit({"axes": {"warp_speed": [9]}})
            assert manager.list() == []
        finally:
            manager.shutdown()

    def test_failed_job_reports_not_crashes(self, tmp_path, monkeypatch):
        """A job that blows up mid-run lands in 'failed' with the error
        recorded, and the worker thread survives to run the next job."""
        from repro.api import registry

        def boom(preset="smoke", seeds=(1,)):
            raise RuntimeError("reactor scram")

        monkeypatch.setitem(
            registry._REGISTRY,
            "svc-boom",
            registry.ExperimentSpec(name="svc-boom", fn=boom, kind="extension"),
        )
        manager = JobManager(DbResultStore(tmp_path / "db.sqlite"))
        try:
            record = manager.submit({"experiment": "svc-boom"})
            assert record.wait(timeout=60.0)
            assert record.status == "failed"
            assert "reactor scram" in record.error
            assert record.events[-1]["type"] == "failed"
            # The worker is still alive: the next job completes.
            follow = manager.submit(GRID_SPEC)
            assert follow.wait(timeout=120.0)
            assert follow.status == "done"
        finally:
            manager.shutdown()
