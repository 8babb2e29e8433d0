"""Distributed execution: lease board, loopback workers, chaos, server.

The distributed backend's whole promise is *indistinguishability*: any
worker count, any crash pattern, the campaign's output is byte-identical
to a serial run.  These tests exercise the lease state machine directly,
then the full HTTP loop with in-thread and subprocess workers — including
a SIGKILLed worker mid-campaign — and the campaign server's distributed
mode (shutdown lease release, overlap dedup, the /agg endpoint).
"""

import json
import os
import signal
import subprocess
import sys
import threading
import time
import urllib.request
from pathlib import Path

import pytest

from repro.api import Campaign, Scenario
from repro.config import Protocol
from repro.errors import ExperimentError
from repro.exec import ExecutorSpec, LeaseBoard, get_executor
from repro.exec.board import DONE, LEASED, PENDING, QUARANTINED
from repro.exec.worker import run_worker

REPO_SRC = str(Path(__file__).resolve().parent.parent / "src")


def _campaign(loads=(5.0,), seeds=(1,)):
    base = Scenario.from_preset("smoke").with_runtime(
        horizon_s=2.0, sample_interval_s=1.0
    )
    return (
        Campaign(base, name="dist")
        .over(protocol=[Protocol.PURE_LEACH, Protocol.CAEM_FIXED],
              load_pps=list(loads))
        .seeds(list(seeds))
    )


def _norm(runs):
    return [{**r.to_dict(), "wall_time_s": 0} for r in runs]


def _wait_for(predicate, timeout=30.0, interval=0.05):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return False


class TestLeaseBoard:
    def test_lease_is_fifo_and_counts_an_attempt(self):
        board = LeaseBoard(lease_timeout_s=30.0)
        board.submit(("a",), {"cell": 1}, describe="first")
        board.submit(("b",), {"cell": 2}, describe="second")
        lease = board.lease("w1")
        assert lease["describe"] == "first"
        assert lease["attempt"] == 1
        assert board.counts() == {
            PENDING: 1, LEASED: 1, DONE: 0, QUARANTINED: 0,
        }

    def test_submit_dedups_by_key_and_widens_attempts(self):
        board = LeaseBoard()
        first, shared = board.submit(("k",), {}, max_attempts=2)
        assert not shared
        second, shared = board.submit(("k",), {}, max_attempts=5)
        assert shared and second is first
        assert first.refs == 2
        assert first.max_attempts == 5
        # Only one lease comes out of the two submits.
        assert board.lease("w")["key"] == ["k"]
        assert board.lease("w") is None

    def test_expired_lease_requeues_with_a_failed_attempt(self):
        board = LeaseBoard(lease_timeout_s=0.05)
        item, _ = board.submit(("k",), {})
        board.lease("w1")
        time.sleep(0.1)
        board.sweep()
        assert item.status == PENDING
        assert item.attempts == 1
        assert "missed its heartbeat" in item.error
        # The next worker steals it; attempt counter keeps growing.
        assert board.lease("w2")["attempt"] == 2

    def test_heartbeat_keeps_a_lease_alive(self):
        board = LeaseBoard(lease_timeout_s=0.2)
        item, _ = board.submit(("k",), {})
        board.lease("w1")
        for _ in range(4):
            time.sleep(0.1)
            assert board.heartbeat("w1") == 1
        board.sweep()
        assert item.status == LEASED

    def test_attempts_exhausted_quarantines(self):
        board = LeaseBoard()
        item, _ = board.submit(("k",), {}, max_attempts=2)
        for n in (1, 2):
            lease = board.lease("w")
            assert lease["attempt"] == n
            board.fail(lease["lease_id"], f"boom {n}")
        assert item.status == QUARANTINED
        assert item.error == "boom 2"
        assert board.lease("w") is None

    def test_complete_first_wins(self):
        board = LeaseBoard()
        item, _ = board.submit(("k",), {})
        lease = board.lease("w1")
        assert board.complete(lease["lease_id"], {"v": 1})
        assert not board.complete(lease["lease_id"], {"v": 2})
        assert item.result == {"v": 1}

    def test_late_result_from_an_expired_lease_still_lands(self):
        board = LeaseBoard(lease_timeout_s=0.05)
        item, _ = board.submit(("k",), {})
        lease = board.lease("w-slow")
        time.sleep(0.1)
        board.sweep()  # expired → re-queued
        assert item.status == PENDING
        # The slow worker finishes anyway: deterministic work, take it.
        assert board.complete(lease["lease_id"], {"v": 1})
        assert item.status == DONE
        assert board.lease("w2") is None  # pulled back off the queue

    def test_release_all_refunds_the_attempt(self):
        board = LeaseBoard()
        item, _ = board.submit(("k",), {})
        board.lease("w1")
        assert item.attempts == 1
        assert board.release_all() == 1
        assert item.status == PENDING
        assert item.attempts == 0  # shutdown is not the cell's fault
        assert item.worker is None

    def test_retire_gcs_settled_unreferenced_items(self):
        board = LeaseBoard()
        item, _ = board.submit(("k",), {})
        lease = board.lease("w")
        board.complete(lease["lease_id"], {})
        board.retire(item)
        # Gone: a fresh submit of the key starts over.
        fresh, shared = board.submit(("k",), {})
        assert not shared and fresh is not item

    def test_backing_off_cell_lets_later_cells_go_first(self):
        board = LeaseBoard()
        item, _ = board.submit(("a",), {})
        lease = board.lease("w")
        board.fail(lease["lease_id"], "boom", kind="crash", retry_after=0.2)
        board.submit(("b",), {})  # queued behind the re-queued "a"
        assert board.lease("w")["key"] == ["b"]
        assert board.lease("w") is None  # "a" is still backing off
        time.sleep(0.25)
        retry = board.lease("w")
        assert retry["key"] == ["a"] and retry["attempt"] == 2

    def test_failures_record_each_attempts_kind_in_order(self):
        board = LeaseBoard()
        item, _ = board.submit(("k",), {}, max_attempts=3)
        board.fail(board.lease("w")["lease_id"], "died", kind="crash")
        board.fail(board.lease("w")["lease_id"], "hung", kind="timeout")
        assert item.failures == [("crash", "died"), ("timeout", "hung")]
        assert item.error == "hung"

    def test_expired_lease_records_kind_lease(self):
        board = LeaseBoard(lease_timeout_s=0.05)
        item, _ = board.submit(("k",), {})
        board.lease("w")
        time.sleep(0.1)
        board.sweep()
        assert [kind for kind, _ in item.failures] == ["lease"]

    def test_fail_defaults_to_error_and_requeues_at_once(self):
        board = LeaseBoard()
        item, _ = board.submit(("k",), {})
        board.fail(board.lease("w")["lease_id"], "boom")
        assert item.failures == [("error", "boom")]
        assert board.lease("w")["attempt"] == 2


class TestDistributedExecutor:
    """Full loop over loopback HTTP with in-thread workers."""

    def _run_with_workers(self, camp, n_workers=2, spec="distributed:lease=10"):
        executor = get_executor(ExecutorSpec.parse(spec))
        executor._ensure_server()
        stop = threading.Event()
        threads = [
            threading.Thread(
                target=run_worker,
                kwargs=dict(connect=executor.url, worker_id=f"w{i}",
                            stop=stop, poll_s=0.05),
                daemon=True,
            )
            for i in range(n_workers)
        ]
        for thread in threads:
            thread.start()
        try:
            return camp.run(executor=executor)
        finally:
            stop.set()
            executor.close()
            for thread in threads:
                thread.join(timeout=10)

    def test_two_workers_byte_identical_to_serial(self):
        camp = _campaign(loads=(5.0, 10.0))
        serial = camp.run()
        dist = self._run_with_workers(camp, n_workers=2)
        assert _norm(dist.runs) == _norm(serial.runs)

    def test_store_receives_results_in_grid_order(self):
        camp = _campaign(loads=(5.0, 10.0))
        collected = []

        class _Collector:
            def append(self, run):
                collected.append(run)

        executor = get_executor("distributed:lease=10")
        executor._ensure_server()
        stop = threading.Event()
        worker = threading.Thread(
            target=run_worker,
            kwargs=dict(connect=executor.url, stop=stop, poll_s=0.05),
            daemon=True,
        )
        worker.start()
        try:
            from repro.api.campaign import run_scenarios

            scenarios = camp.scenarios()
            results = run_scenarios(
                scenarios, store=_Collector(), executor=executor
            )
        finally:
            stop.set()
            executor.close()
            worker.join(timeout=10)
        # The write-behind flusher preserves the serial on-store order.
        assert [id(r) for r in collected] == [id(r) for r in results]

    def test_concurrent_campaigns_share_cells(self):
        """Two overlapping campaigns on one board: shared cells simulate
        once — the lease-time dedup the coordinator promises."""
        camp_a = _campaign(seeds=(1, 2))   # 4 cells
        camp_b = _campaign(seeds=(2, 3))   # 4 cells, 2 shared with A
        executor = get_executor("distributed:lease=10")
        executor._ensure_server()
        results = {}

        def run(name, camp):
            results[name] = camp.run(executor=executor)

        threads = [
            threading.Thread(target=run, args=("a", camp_a)),
            threading.Thread(target=run, args=("b", camp_b)),
        ]
        for thread in threads:
            thread.start()
        # Both grids submitted (6 unique keys, dedup already applied)
        # before any worker exists to lease them.
        assert _wait_for(
            lambda: sum(executor.board.counts().values()) == 6
        )
        stop = threading.Event()
        stats_box = []
        workers = [
            threading.Thread(
                target=lambda: stats_box.append(run_worker(
                    executor.url, stop=stop, poll_s=0.05,
                    worker_id=f"w{i}",
                )),
                daemon=True,
            )
            for i in range(2)
        ]
        for worker in workers:
            worker.start()
        try:
            for thread in threads:
                thread.join(timeout=120)
                assert not thread.is_alive()
        finally:
            stop.set()
            executor.close()
            for worker in workers:
                worker.join(timeout=10)

        # 8 results delivered, 6 simulations run: zero duplicate sims.
        assert sum(s.cells_done for s in stats_box) == 6
        serial_a, serial_b = camp_a.run(), camp_b.run()
        assert _norm(results["a"].runs) == _norm(serial_a.runs)
        assert _norm(results["b"].runs) == _norm(serial_b.runs)
        # Shared cells are distinct result objects per campaign (each
        # campaign stamps its own provenance on its copy).
        shared_a = results["a"].runs[2]  # seed 2 rows in A
        shared_b = results["b"].runs[0]  # seed 2 rows in B
        assert shared_a is not shared_b


#: A fault plan that makes a worker lease a cell and then stall forever
#: (heartbeating all the while) — the deterministic stand-in for "busy
#: simulating when the OOM killer arrives".
HANG_FAULTS = json.dumps({"worker_hang_rate": 1.0, "hang_s": 600.0})


def _spawn_worker(url, worker_id, faults=None):
    env = dict(os.environ, PYTHONPATH=REPO_SRC)
    env.pop("REPRO_FAULTS", None)
    if faults is not None:
        env["REPRO_FAULTS"] = faults
    return subprocess.Popen(
        [sys.executable, "-m", "repro", "worker",
         "--connect", url, "--id", worker_id, "--poll", "0.05"],
        env=env,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
    )


class TestChaosWorkerKill:
    """SIGKILL one of two subprocess workers mid-campaign: lease expiry
    reassigns its cells and the output stays byte-identical."""

    def test_campaign_survives_worker_sigkill(self):
        camp = _campaign(loads=(5.0, 10.0), seeds=(1, 2))  # 8 cells
        serial = camp.run()

        executor = get_executor("distributed:lease=2")
        executor._ensure_server()
        board = executor.board
        result_box = {}

        def drive():
            result_box["result"] = camp.run(executor=executor)

        driver = threading.Thread(target=drive, daemon=True)
        driver.start()
        # The victim hangs on its first cell (holding the lease alive
        # via heartbeats), so it is deterministically mid-cell when
        # killed; the healthy worker joins only after that.
        victim = _spawn_worker(executor.url, "chaos-victim",
                               faults=HANG_FAULTS)
        healthy = None
        try:
            assert _wait_for(
                lambda: any(
                    item.worker == "chaos-victim" and item.status == LEASED
                    for item in list(board._items.values())
                ),
                timeout=60,
            ), "victim never leased a cell"
            healthy = _spawn_worker(executor.url, "chaos-healthy")
            # SIGKILL: no goodbye, no more heartbeats — only lease
            # expiry can recover the held cell.
            os.kill(victim.pid, signal.SIGKILL)
            victim.wait(timeout=10)
            driver.join(timeout=180)
            assert not driver.is_alive(), "campaign did not complete"
        finally:
            executor.close()
            for proc in (victim, healthy):
                if proc is not None:
                    if proc.poll() is None:
                        proc.kill()
                    proc.wait(timeout=10)

        assert _norm(result_box["result"].runs) == _norm(serial.runs)
        # The held cell went through a real expiry: one failed attempt.
        stats = board.workers()
        assert stats["chaos-healthy"]["cells_done"] == 8


#: A coordinator that self-hosts two local workers, prints their pids and
#: waits to be killed.
_SELF_HOSTED = """
import time
from repro.exec import get_executor

executor = get_executor("distributed:local=2")
executor._ensure_server()
print(*(proc.pid for proc in executor._local_procs), flush=True)
time.sleep(600)
"""


def _running(pid):
    """True while ``pid`` runs (an exited, unreaped zombie counts as gone)."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0] != "Z"
    except FileNotFoundError:
        return False


@pytest.mark.skipif(not os.path.exists("/proc/self/stat"), reason="needs /proc")
class TestLocalWorkerLifetime:
    """Local workers live exactly as long as their coordinator."""

    def test_local_workers_exit_when_the_coordinator_is_killed(self):
        coordinator = subprocess.Popen(
            [sys.executable, "-c", _SELF_HOSTED],
            env=dict(os.environ, PYTHONPATH=REPO_SRC),
            stdout=subprocess.PIPE,
            text=True,
        )
        try:
            pids = [int(pid) for pid in coordinator.stdout.readline().split()]
            assert len(pids) == 2 and all(map(_running, pids))
        finally:
            coordinator.kill()
            coordinator.wait(timeout=10)
            coordinator.stdout.close()
        try:
            assert _wait_for(
                lambda: not any(map(_running, pids)), timeout=5.0
            ), "local workers outlived their SIGKILLed coordinator"
        finally:
            for pid in filter(_running, pids):
                os.kill(pid, signal.SIGKILL)


GRID_SPEC = {
    "axes": {"protocol": ["pure_leach", "scheme2"]},
    "preset": "smoke",
    "horizon_s": 2.0,
    "sample_interval_s": 1.0,
    "seeds": [1],
}


def _url(server, path):
    host, port = server.server_address[:2]
    return f"http://{host}:{port}{path}"


def _get_json(server, path):
    with urllib.request.urlopen(_url(server, path), timeout=30) as resp:
        return json.loads(resp.read())


def _post_json(server, path, payload):
    request = urllib.request.Request(
        _url(server, path),
        data=json.dumps(payload).encode(),
        headers={"Content-Type": "application/json"},
    )
    with urllib.request.urlopen(request, timeout=30) as resp:
        return resp.status, json.loads(resp.read())


@pytest.fixture()
def dist_server(tmp_path):
    from repro.service import build_server

    srv = build_server(
        tmp_path / "service.sqlite", port=0, quiet=True,
        distributed=True, lease_timeout_s=2.0,
    )
    thread = threading.Thread(target=srv.serve_forever, daemon=True)
    thread.start()
    try:
        yield srv
    finally:
        srv.close()
        thread.join(timeout=5.0)


class TestServerDistributed:
    def test_work_endpoints_require_distributed_mode(self, tmp_path):
        from repro.service import build_server

        srv = build_server(tmp_path / "plain.sqlite", port=0, quiet=True)
        thread = threading.Thread(target=srv.serve_forever, daemon=True)
        thread.start()
        try:
            with pytest.raises(urllib.error.HTTPError) as err:
                _post_json(srv, "/work/lease", {"worker": "w"})
            assert err.value.code == 404
            with pytest.raises(ExperimentError, match="serve --distributed"):
                srv.manager.submit({**GRID_SPEC, "executor": "distributed"})
        finally:
            srv.close()
            thread.join(timeout=5.0)

    def test_executor_spec_conflicts_rejected(self, dist_server):
        with pytest.raises(ExperimentError, match='"executor" key'):
            dist_server.manager.submit({
                **GRID_SPEC, "executor": "serial", "supervise": True,
            })

    def test_distributed_job_runs_via_work_endpoints(self, dist_server):
        _, submitted = _post_json(
            dist_server, "/campaigns",
            {**GRID_SPEC, "executor": "distributed"},
        )
        job_id = submitted["job_id"]
        stop = threading.Event()
        worker = threading.Thread(
            target=run_worker,
            kwargs=dict(connect=_url(dist_server, ""), stop=stop,
                        poll_s=0.05, worker_id="srv-w"),
            daemon=True,
        )
        worker.start()
        try:
            assert dist_server.manager.get(job_id).wait(timeout=120.0)
        finally:
            stop.set()
            worker.join(timeout=10)
        snap = _get_json(dist_server, f"/campaigns/{job_id}")
        assert snap["status"] == "done"
        assert snap["completed_cells"] == 2
        status = _get_json(dist_server, "/work/status")
        assert status["counts"]["done"] == 0  # settled cells retired
        assert "srv-w" in status["workers"]

        # The /agg endpoint reduces this job's own rows.
        agg = _get_json(
            dist_server,
            f"/campaigns/{job_id}/agg?agg=mean&group_by=protocol",
        )
        assert agg["count"] == 2
        protocols = {g["protocol"] for g in agg["groups"]}
        assert protocols == {"pure_leach", "scheme2"}
        assert all(g["n"] == 1 for g in agg["groups"])

    def test_shutdown_releases_leases_of_a_killed_worker(self, dist_server):
        """Satellite regression: a worker SIGKILLed mid-lease must not
        strand its cell in ``leased`` across JobManager.shutdown()."""
        _post_json(
            dist_server, "/campaigns",
            {**GRID_SPEC, "executor": "distributed"},
        )
        board = dist_server.manager.board
        # The worker hangs on its first cell, so it is guaranteed to be
        # holding a lease when the SIGKILL lands.
        proc = _spawn_worker(
            _url(dist_server, ""), "doomed", faults=HANG_FAULTS
        )
        try:
            assert _wait_for(
                lambda: board.counts()[LEASED] >= 1, timeout=60
            ), "worker never leased a cell"
            os.kill(proc.pid, signal.SIGKILL)
            proc.wait(timeout=10)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait(timeout=10)
        dist_server.manager.shutdown()
        counts = board.counts()
        assert counts[LEASED] == 0, f"cell stranded in leased: {counts}"


class TestCacheOverlapDedup:
    """Two sequential campaigns sharing half their grid: the second
    re-simulates zero shared cells (digest dedup via the run cache) —
    under the distributed backend."""

    def test_overlapping_campaigns_share_completed_cells(self, tmp_path):
        from repro.service import DbResultStore, RunCache

        cache = RunCache(DbResultStore(tmp_path / "cache.sqlite"))
        camp_a = _campaign(seeds=(1, 2))  # 4 cells
        camp_b = _campaign(seeds=(2, 3))  # 4 cells, 2 shared

        executor = get_executor("distributed:lease=10")
        executor._ensure_server()
        stop = threading.Event()
        worker = threading.Thread(
            target=run_worker,
            kwargs=dict(connect=executor.url, stop=stop, poll_s=0.05),
            daemon=True,
        )
        worker.start()
        try:
            first = camp_a.run(executor=executor, cache=cache)
            assert (cache.stats.hits, cache.stats.misses) == (0, 4)
            second = camp_b.run(executor=executor, cache=cache)
        finally:
            stop.set()
            executor.close()
            worker.join(timeout=10)
        assert (cache.stats.hits, cache.stats.misses) == (2, 6)
        assert _norm(first.runs) == _norm(camp_a.run().runs)
        assert _norm(second.runs) == _norm(camp_b.run().runs)
