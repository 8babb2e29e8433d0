"""Service-tier robustness: job abort semantics and HTTP hardening.

The job manager must never strand a long-poller (shutdown aborts queued
and running jobs and wakes their waiters), supervised jobs must land in
an explicit ``incomplete`` status with a quarantine report, and the HTTP
fronts (the campaign server and the self-hosted coordinator) must answer
hostile input with structured JSON errors — 413 for oversized bodies,
400 for malformed ones, 500 (no traceback) for bugs.
"""

import json
import socket
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.api import registry
from repro.service import DbResultStore, JobManager, build_server
from repro.service.faults import FaultPlan, inject_faults

GRID_SPEC = {
    "axes": {"protocol": ["pure_leach"]},
    "preset": "smoke",
    "horizon_s": 5.0,
    "sample_interval_s": 1.0,
    "seeds": [1],
}


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


def _post_raw(server, body, headers=None):
    request = urllib.request.Request(
        _url(server, "/campaigns"),
        data=body,
        headers=headers or {"Content-Type": "application/json"},
    )
    with urllib.request.urlopen(request, timeout=30) as resp:
        return resp.status, json.loads(resp.read())


def _raw_http(server, request_bytes):
    """Send a hand-built HTTP request; return (status, parsed JSON body).

    Lets a test lie in the headers (a huge or garbage Content-Length)
    without a client library 'helpfully' fixing it.
    """
    host, port = server.server_address[:2]
    with socket.create_connection((host, port), timeout=10) as sock:
        sock.sendall(request_bytes)
        sock.settimeout(10)
        data = b""
        while b"\r\n\r\n" not in data:
            chunk = sock.recv(4096)
            assert chunk, f"connection closed with no status line: {data!r}"
            data += chunk
        head, _, body = data.partition(b"\r\n\r\n")
        status = int(head.split(b" ", 2)[1])
        length = 0
        for line in head.split(b"\r\n")[1:]:
            name, _, value = line.partition(b":")
            if name.strip().lower() == b"content-length":
                length = int(value)
        while len(body) < length:
            body += sock.recv(4096)
        return status, json.loads(body)


class TestHttpHardening:
    def test_oversized_body_is_413(self, server):
        status, body = _raw_http(
            server,
            b"POST /campaigns HTTP/1.1\r\nHost: t\r\n"
            b"Content-Length: 10000000\r\n\r\n",
        )
        assert status == 413
        assert "too large" in body["error"]

    def test_malformed_content_length_is_400(self, server):
        status, body = _raw_http(
            server,
            b"POST /campaigns HTTP/1.1\r\nHost: t\r\n"
            b"Content-Length: banana\r\n\r\n",
        )
        assert status == 400
        assert "Content-Length" in body["error"]

    def test_malformed_json_body_is_400(self, server):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _post_raw(server, b"{not json")
        assert excinfo.value.code == 400
        assert "not JSON" in json.loads(excinfo.value.read())["error"]

    def test_non_object_json_body_is_400(self, server):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _post_raw(server, b"[1, 2, 3]")
        assert excinfo.value.code == 400
        assert "JSON object" in json.loads(excinfo.value.read())["error"]

    def test_empty_body_is_400(self, server):
        status, body = _raw_http(
            server, b"POST /campaigns HTTP/1.1\r\nHost: t\r\n\r\n"
        )
        assert status == 400
        assert "body required" in body["error"]

    def test_internal_error_is_500_json_without_traceback(
        self, server, monkeypatch
    ):
        def broken():
            raise RuntimeError("wires crossed")

        monkeypatch.setattr(server.manager, "list", broken)
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            with urllib.request.urlopen(_url(server, "/campaigns"),
                                        timeout=30):
                pass
        assert excinfo.value.code == 500
        body = excinfo.value.read().decode()
        payload = json.loads(body)
        assert payload["error"] == "internal error: RuntimeError: wires crossed"
        assert "Traceback" not in body


class TestCoordinatorHardening:
    """The coordinator that ``--executor distributed`` self-hosts reads
    request bodies like the campaign server does."""

    @pytest.fixture()
    def coordinator(self):
        from repro.exec.board import LeaseBoard
        from repro.exec.coordinator import start_coordinator

        server = start_coordinator("127.0.0.1", 0, LeaseBoard())
        try:
            yield server
        finally:
            server.close()

    @pytest.mark.parametrize(
        "length, reason",
        [(b"abc", "malformed Content-Length"), (b"-1", "body required")],
    )
    def test_bad_content_length_is_400(self, coordinator, length, reason):
        status, body = _raw_http(
            coordinator,
            b"POST /work/lease HTTP/1.1\r\nHost: t\r\n"
            b"Content-Length: " + length + b"\r\n\r\n",
        )
        assert status == 400
        assert reason in body["error"]
        # A well-formed worker request still gets its answer.
        request = urllib.request.Request(
            coordinator.url + "/work/lease",
            data=json.dumps({"worker": "w1"}).encode(),
            headers={"Content-Type": "application/json"},
        )
        with urllib.request.urlopen(request, timeout=10) as resp:
            assert resp.status == 200
            assert json.loads(resp.read()) == {"lease": None}


class TestJobAbortSemantics:
    def test_shutdown_aborts_queued_and_running_and_wakes_waiters(
        self, tmp_path, monkeypatch
    ):
        release = threading.Event()

        def hang(preset="smoke", seeds=(1,)):
            release.wait(timeout=30.0)
            raise RuntimeError("released late")

        monkeypatch.setitem(
            registry._REGISTRY,
            "svc-hang",
            registry.ExperimentSpec(
                name="svc-hang", fn=hang, kind="extension"
            ),
        )
        manager = JobManager(DbResultStore(tmp_path / "db.sqlite"), workers=1)
        try:
            running = manager.submit({"experiment": "svc-hang"})
            queued = manager.submit(GRID_SPEC)
            deadline = time.monotonic() + 10.0
            while running.status != "running":
                assert time.monotonic() < deadline
                time.sleep(0.01)

            polled = {}

            def long_poll():
                polled["events"] = queued.wait_events(0, timeout=60.0)

            waiter = threading.Thread(target=long_poll, daemon=True)
            waiter.start()

            manager.shutdown()  # joins time out on the hung worker

            assert queued.status == "aborted"
            assert "before the job started" in queued.error
            assert running.status == "aborted"
            assert "while the job was running" in running.error
            # The long-poller woke with the terminal event, not a strand.
            waiter.join(timeout=10.0)
            assert not waiter.is_alive()
            assert [e["type"] for e in polled["events"]] == ["aborted"]
            # A later terminal transition must not overwrite the abort.
            release.set()
            time.sleep(0.2)
            assert running.status == "aborted"
        finally:
            release.set()

    def test_shutdown_with_idle_manager_is_clean(self, tmp_path):
        manager = JobManager(DbResultStore(tmp_path / "db.sqlite"))
        done = manager.submit(GRID_SPEC)
        assert done.wait(timeout=120.0)
        manager.shutdown()
        assert done.status == "done"  # terminal states survive shutdown


class TestSupervisedJobs:
    def test_crashing_job_lands_incomplete_with_report(self, tmp_path):
        spec = dict(
            GRID_SPEC, executor={"kind": "supervised", "retries": 1},
            horizon_s=4.0,
        )
        manager = JobManager(DbResultStore(tmp_path / "db.sqlite"))
        try:
            with inject_faults(FaultPlan(seed=1, worker_crash_rate=1.0)):
                record = manager.submit(spec)
                assert record.wait(timeout=240.0)
            assert record.status == "incomplete"
            assert record.quarantined == 1
            assert record.retries == 1  # attempt 2 of 2 (retries=1)
            assert record.report is not None
            assert record.report["incomplete"] is True
            # The board's attempt count: 2 of 2 under retries=1.
            assert [c["attempts"] for c in
                    record.report["quarantined_cells"]] == [2]
            assert (record.report["total"], record.report["done"]) == (1, 0)
            snap = record.snapshot()
            assert snap["status"] == "incomplete"
            assert snap["quarantined"] == 1
            assert snap["retries"] == 1
            assert snap["report"]["quarantined"] == 1
            assert record.events[-1]["type"] == "incomplete"
        finally:
            manager.shutdown()

    def test_supervised_job_completes_clean_without_faults(self, tmp_path):
        spec = dict(GRID_SPEC, executor="supervised")
        manager = JobManager(DbResultStore(tmp_path / "db.sqlite"))
        try:
            record = manager.submit(spec)
            assert record.wait(timeout=240.0)
            assert record.status == "done", record.error
            assert record.quarantined == 0
            assert record.completed_cells == 1
        finally:
            manager.shutdown()

    def test_bad_supervision_settings_fail_at_submit(self, tmp_path):
        from repro.errors import ExperimentError

        manager = JobManager(DbResultStore(tmp_path / "db.sqlite"))
        try:
            with pytest.raises(ExperimentError, match="must be a number"):
                manager.submit(dict(GRID_SPEC, executor={
                    "kind": "supervised", "cell_timeout_s": "soon"}))
            with pytest.raises(ExperimentError, match="retries"):
                manager.submit(dict(GRID_SPEC, executor={
                    "kind": "supervised", "retries": -1}))
            assert manager.list() == []
        finally:
            manager.shutdown()
