"""Kill-and-resume campaign semantics through the run cache.

The guarantee: SIGKILL a ``--cache`` sweep mid-flight, re-run the same
line, and (a) no completed cell is re-simulated, (b) the final render
is byte-identical to an uninterrupted run, under any ``--executor``.
The stored rows alone say which cells are done.
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

import pytest

from repro.api import (
    Campaign,
    CampaignIncompleteError,
    Scenario,
    use_run_cache,
)
from repro.config import Protocol
from repro.service import DbResultStore, RunCache
from repro.service.faults import FaultPlan, inject_faults

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


class TestCachedResume:
    def test_interrupted_campaign_resumes_without_resimulating(
        self, tmp_path
    ):
        """In-process kill-and-resume: simulate half, 'crash', resume —
        the second pass simulates only the missing half and the results
        are byte-identical to one uninterrupted pass."""
        scenarios = _scenarios(n_seeds=2)  # 4 cells
        store = DbResultStore(tmp_path / "resume.sqlite")

        cache = RunCache(store)
        with use_run_cache(cache):
            from repro.api import run_scenarios

            run_scenarios(scenarios[:2])  # the part that "finished"
        assert cache.stats.misses == 2

        resumed = RunCache(store)
        with use_run_cache(resumed):
            from repro.api import run_scenarios

            results = run_scenarios(scenarios)
        assert resumed.stats.hits == 2
        assert resumed.stats.misses == 2

        from repro.api import run_scenarios as rs

        uninterrupted = rs(scenarios)
        for a, b in zip(uninterrupted, results):
            da, db = a.to_dict(), b.to_dict()
            da.pop("wall_time_s"), db.pop("wall_time_s")
            da.pop("experiment"), db.pop("experiment")
            assert da == db


    def test_quarantine_under_cache_is_reported_in_grid_coordinates(
        self, tmp_path
    ):
        """Stored cells are hits; every simulated cell crashes.  The
        error counts and numbers the whole grid, and its ``results``
        carry the hits in their slots."""
        scenarios = _scenarios(n_seeds=2)  # 4 cells
        store = DbResultStore(tmp_path / "q.sqlite")
        RunCache(store).execute(scenarios[:2])
        cache = RunCache(store)
        with inject_faults(FaultPlan(seed=1, worker_crash_rate=1.0)):
            with pytest.raises(CampaignIncompleteError) as info:
                cache.execute(scenarios, executor="supervised:retries=0")
        exc = info.value
        assert "2 of 4 cells quarantined" in str(exc)
        assert "re-run with the same cache" in str(exc)
        assert [f.index for f in exc.failures] == [2, 3]
        assert [f.scenario for f in exc.failures] == scenarios[2:]
        assert [run is not None for run in exc.results] == \
            [True, True, False, False]
        report = exc.report
        assert (report["total"], report["done"], report["quarantined"]) == \
            (4, 2, 2)
        assert [c["attempts"] for c in report["quarantined_cells"]] == [1, 1]
        assert all("died without a result" in c["error"]
                   for c in report["quarantined_cells"])


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
        resume = ["--cache", str(db), "--executor", "supervised"]
        env = dict(os.environ, PYTHONPATH=REPO_SRC)
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", *self.ARGS, *resume],
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

        resumed = _run_cli([*self.ARGS, *resume], tmp_path)
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

        # Byte-identical to an uninterrupted run — under another executor.
        clean = _run_cli([*self.ARGS, "--executor", "pool:2"], tmp_path)
        assert clean.returncode == 0, clean.stderr
        assert resumed.stdout == clean.stdout

    def test_cache_resume_quarantines_only_under_supervised(self, tmp_path):
        """Under a plan that crashes every worker, a --cache run with
        --executor supervised quarantines every cell.  The same line
        without --executor runs serially, which never consults the
        crash site."""
        args = ["run", "fig8", "--preset", "smoke", "--seeds", "1",
                "--cache", "crash.sqlite"]
        env = dict(os.environ, PYTHONPATH=REPO_SRC, REPRO_FAULTS=json.dumps(
            {"seed": 1, "worker_crash_rate": 1.0}
        ))

        def run(*extra):
            return subprocess.run(
                [sys.executable, "-m", "repro", *args, *extra],
                cwd=tmp_path, env=env, capture_output=True, text=True,
                timeout=240,
            )

        supervised = run("--executor", "supervised")
        assert supervised.returncode == 1, supervised.stderr
        assert "3 of 3 cells quarantined" in supervised.stderr
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
