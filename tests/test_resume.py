"""Checkpoint manifests and kill-and-resume campaign semantics.

The tentpole guarantee: SIGKILL a sweep mid-flight, re-run it with
``--resume``, and (a) no completed cell is re-simulated, (b) the final
render is byte-identical to an uninterrupted run, under any
``--executor``.
"""

import json
import os
import re
import signal
import sqlite3
import subprocess
import sys
import time
from pathlib import Path

from repro.api import Campaign, ResultStore, Scenario, use_run_cache
from repro.api.pairing import scenario_key
from repro.config import Protocol
from repro.service import DbResultStore, RunCache, manifest_for_store
from repro.service.manifest import (
    DONE,
    PENDING,
    QUARANTINED,
    CampaignManifest,
    JsonManifestBackend,
    sidecar_path,
)

REPO_SRC = str(Path(__file__).resolve().parent.parent / "src")


def _scenarios(n_seeds=2):
    base = Scenario.from_preset("smoke").with_runtime(
        horizon_s=5.0, sample_interval_s=1.0
    )
    camp = (
        Campaign(base)
        .over(protocol=[Protocol.PURE_LEACH, Protocol.CAEM_ADAPTIVE])
        .seeds(list(range(1, n_seeds + 1)))
    )
    return camp.scenarios()


class TestManifest:
    def test_fingerprint_is_content_addressed(self, tmp_path):
        scenarios = _scenarios()
        store = DbResultStore(tmp_path / "m.sqlite")
        a = manifest_for_store(store, scenarios, "exp-x")
        b = manifest_for_store(store, scenarios, "exp-x")
        assert a.fingerprint == b.fingerprint
        c = manifest_for_store(store, scenarios[:-1], "exp-x")
        d = manifest_for_store(store, scenarios, "exp-y")
        assert len({a.fingerprint, c.fingerprint, d.fingerprint}) == 3

    def test_done_cells_adopted_on_reopen(self, tmp_path):
        scenarios = _scenarios()
        store = DbResultStore(tmp_path / "m.sqlite")
        first = manifest_for_store(store, scenarios, "exp-x")
        first.record_done(scenario_key(scenarios[0]))
        reopened = manifest_for_store(store, scenarios, "exp-x")
        assert reopened.cells[0].status == DONE
        assert reopened.counts()[PENDING] == len(scenarios) - 1
        assert not reopened.complete

    def test_quarantine_resets_to_pending_on_reopen(self, tmp_path):
        scenarios = _scenarios()
        store = DbResultStore(tmp_path / "m.sqlite")
        first = manifest_for_store(store, scenarios, "exp-x")
        first.record_attempt(scenario_key(scenarios[0]))
        first.record_quarantine(scenario_key(scenarios[0]), "boom\ntrace")
        assert first.quarantined()[0].error == "boom\ntrace"
        assert first.report()["incomplete"] is True
        reopened = manifest_for_store(store, scenarios, "exp-x")
        assert reopened.cells[0].status == PENDING
        assert reopened.cells[0].attempts == 0

    def test_duplicate_cells_get_ordinals(self, tmp_path):
        scenarios = _scenarios()[:1] * 3
        store = DbResultStore(tmp_path / "m.sqlite")
        manifest = manifest_for_store(store, scenarios, None)
        assert [c.ordinal for c in manifest.cells] == [0, 1, 2]
        manifest.record_done(scenario_key(scenarios[0]), ordinal=1)
        assert [c.status for c in manifest.cells] == [PENDING, DONE, PENDING]

    def test_sidecar_backend_for_flat_stores(self, tmp_path):
        scenarios = _scenarios()
        store = ResultStore(tmp_path / "runs.jsonl")
        manifest = manifest_for_store(store, scenarios, "exp-x")
        manifest.record_done(scenario_key(scenarios[0]))
        sidecar = sidecar_path(store.path)
        assert sidecar.exists()
        ledger = json.loads(sidecar.read_text())
        payload = ledger["manifests"][manifest.fingerprint]
        assert payload["cells"][0]["status"] == DONE

    def test_damaged_sidecar_starts_fresh_not_crash(self, tmp_path):
        scenarios = _scenarios()
        store = ResultStore(tmp_path / "runs.jsonl")
        sidecar_path(store.path).write_text("{torn mid-write")
        manifest = manifest_for_store(store, scenarios, "exp-x")
        assert manifest.counts()[PENDING] == len(scenarios)

    def test_report_and_describe(self, tmp_path):
        scenarios = _scenarios()
        backend = JsonManifestBackend(tmp_path / "ledger.json")
        manifest = CampaignManifest.for_grid(backend, scenarios, "exp-x")
        manifest.record_attempt(scenario_key(scenarios[0]))
        manifest.record_quarantine(scenario_key(scenarios[0]), "why it died")
        assert manifest.cells[0].status == QUARANTINED
        report = manifest.report()
        assert report["quarantined"] == 1
        assert report["quarantined_cells"][0]["error"] == "why it died"
        assert "quarantined" in manifest.describe()

    def test_db_manifest_survives_reconnect(self, tmp_path):
        scenarios = _scenarios()
        path = tmp_path / "m.sqlite"
        manifest = manifest_for_store(DbResultStore(path), scenarios, "e")
        manifest.record_done(scenario_key(scenarios[0]))
        listed = DbResultStore(path).list_manifests()
        assert len(listed) == 1
        assert listed[0]["done"] == 1
        assert listed[0]["total"] == len(scenarios)


class TestCachedResume:
    def test_interrupted_campaign_resumes_without_resimulating(
        self, tmp_path
    ):
        """In-process kill-and-resume: simulate half, 'crash', resume —
        the second pass simulates only the missing half and the results
        are byte-identical to one uninterrupted pass."""
        scenarios = _scenarios(n_seeds=2)  # 4 cells
        store = DbResultStore(tmp_path / "resume.sqlite")

        cache = RunCache(store, manifest=True)
        with use_run_cache(cache):
            from repro.api import run_scenarios

            run_scenarios(scenarios[:2])  # the part that "finished"
        assert cache.stats.misses == 2

        resumed = RunCache(store, manifest=True)
        with use_run_cache(resumed):
            from repro.api import run_scenarios

            results = run_scenarios(scenarios)
        assert resumed.stats.hits == 2
        assert resumed.stats.misses == 2
        assert resumed.last_manifest is not None
        assert resumed.last_manifest.complete

        from repro.api import run_scenarios as rs

        uninterrupted = rs(scenarios)
        for a, b in zip(uninterrupted, results):
            da, db = a.to_dict(), b.to_dict()
            da.pop("wall_time_s"), db.pop("wall_time_s")
            da.pop("experiment"), db.pop("experiment")
            assert da == db


def _run_cli(args, cwd, timeout=240):
    env = dict(os.environ, PYTHONPATH=REPO_SRC)
    return subprocess.run(
        [sys.executable, "-m", "repro", *args],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=timeout,
    )


def _rows(db_path):
    try:
        with sqlite3.connect(f"file:{db_path}?mode=ro", uri=True) as db:
            return db.execute("SELECT COUNT(*) FROM runs").fetchone()[0]
    except sqlite3.Error:
        return 0


class TestKillAndResumeGate:
    """The PR's acceptance gate, as a test: SIGKILL mid-sweep, resume,
    assert zero re-simulation of completed cells + byte-identical
    render under a different executor."""

    ARGS = [
        "run", "fig8", "--preset", "smoke",
        "--seeds", "1", "2", "3", "4", "5", "6",
    ]
    TOTAL = 18  # fig8 smoke = 3 protocols x 6 seeds

    def test_sigkill_mid_sweep_then_resume(self, tmp_path):
        db = tmp_path / "gate.sqlite"
        env = dict(os.environ, PYTHONPATH=REPO_SRC)
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", *self.ARGS,
             "--store", str(db), "--resume"],
            cwd=tmp_path, env=env,
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        )
        deadline = time.monotonic() + 240
        killed = False
        while time.monotonic() < deadline and proc.poll() is None:
            if _rows(db) >= 2:
                proc.send_signal(signal.SIGKILL)
                killed = True
                break
            time.sleep(0.02)
        proc.wait(timeout=240)
        assert killed, "campaign finished before the poller could kill it"
        rows_at_kill = _rows(db)
        assert 0 < rows_at_kill < self.TOTAL

        resumed = _run_cli(
            [*self.ARGS, "--store", str(db), "--resume"], tmp_path
        )
        assert resumed.returncode == 0, resumed.stderr
        stats = re.search(
            r"cache: (\d+)/(\d+) cells served from store \(\d+%\), "
            r"(\d+) simulated",
            resumed.stderr,
        )
        assert stats, resumed.stderr
        hits, total, simulated = map(int, stats.groups())
        assert total == self.TOTAL
        # Zero completed cells re-simulated: every stored row is a hit.
        assert hits == rows_at_kill
        assert simulated == self.TOTAL - rows_at_kill
        assert re.search(
            rf"manifest [0-9a-f]+: {self.TOTAL}/{self.TOTAL} cells done",
            resumed.stderr,
        )

        # Byte-identical to an uninterrupted run — under another executor.
        clean = _run_cli([*self.ARGS, "--executor", "pool:2"], tmp_path)
        assert clean.returncode == 0, clean.stderr
        assert resumed.stdout == clean.stdout

    def test_resume_requires_a_store(self, tmp_path):
        result = _run_cli(["run", "fig8", "--resume"], tmp_path)
        assert result.returncode == 1
        assert "--resume needs" in result.stderr

    def test_resume_rejects_csv_store(self, tmp_path):
        result = _run_cli(
            ["run", "fig8", "--resume", "--store", "x.csv"], tmp_path
        )
        assert result.returncode == 1
        assert "scalar-only" in result.stderr

    def test_resume_without_executor_runs_supervised(self, tmp_path):
        """--resume alone keeps its supervised default: every worker
        crashes, so every cell is quarantined.  The same line without
        --resume runs serially, which never consults the crash site."""
        args = ["run", "fig8", "--preset", "smoke", "--seeds", "1",
                "--store", "crash.sqlite"]
        env = dict(os.environ, PYTHONPATH=REPO_SRC, REPRO_FAULTS=json.dumps(
            {"seed": 1, "worker_crash_rate": 1.0}
        ))

        def run(*extra):
            return subprocess.run(
                [sys.executable, "-m", "repro", *args, *extra],
                cwd=tmp_path, env=env, capture_output=True, text=True,
                timeout=240,
            )

        resumed = run("--resume")
        assert resumed.returncode == 1, resumed.stderr
        assert "3 of 3 cells quarantined" in resumed.stderr
        plain = run()
        assert plain.returncode == 0, plain.stderr


class TestChaosCampaign:
    """A campaign under injected worker crashes completes correctly:
    the supervisor retries crashed cells and the output stays identical
    to a fault-free run."""

    def test_campaign_survives_injected_crashes(self, tmp_path):
        args = ["run", "fig8", "--preset", "smoke", "--seeds", "1", "2",
                "--executor", "supervised:retries=6"]
        env = dict(os.environ, PYTHONPATH=REPO_SRC)
        env["REPRO_FAULTS"] = json.dumps(
            {"seed": 11, "worker_crash_rate": 0.4}
        )
        chaotic = subprocess.run(
            [sys.executable, "-m", "repro", *args],
            cwd=tmp_path, env=env, capture_output=True, text=True,
            timeout=240,
        )
        assert chaotic.returncode == 0, chaotic.stderr
        clean = _run_cli(["run", "fig8", "--preset", "smoke",
                          "--seeds", "1", "2"], tmp_path)
        assert chaotic.stdout == clean.stdout
