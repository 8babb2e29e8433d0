"""The one local worker pool behind ``pool`` and ``supervised``.

Both kinds run their cells on long-lived forked workers under one lease
board: a worker serves many cells, a failing cell is quarantined only
after every other cell has settled and been stored, chaos faults reach
the workers, and no worker outlives the run, however the run ends.
"""

import multiprocessing
import multiprocessing.process
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.api import (
    Campaign,
    CampaignIncompleteError,
    ExecutorSpec,
    ResultStore,
    Scenario,
    run_scenarios,
)
from repro.config import Protocol
from repro.exec import SerialExecutor, SupervisedExecutor, get_executor
from repro.service.faults import FaultPlan, inject_faults

REPO_SRC = str(Path(__file__).resolve().parent.parent / "src")


def _scenarios(n):
    base = Scenario.from_preset("smoke").with_runtime(
        horizon_s=2.0, sample_interval_s=1.0
    )
    camp = (
        Campaign(base)
        .over(protocol=[Protocol.PURE_LEACH])
        .seeds(list(range(1, n + 1)))
    )
    return camp.scenarios()


def _norm(run):
    return {**run.to_dict(), "wall_time_s": 0}


class TestPoolKind:
    def test_pool_defaults_to_no_retries_and_one_job_runs_serially(self):
        assert ExecutorSpec.parse("pool:2").max_attempts == 1
        assert ExecutorSpec.parse("pool:jobs=2,retries=2").max_attempts == 3
        assert ExecutorSpec.parse("supervised:2").max_attempts == 3
        assert isinstance(get_executor("pool:1"), SerialExecutor)
        assert isinstance(get_executor("pool:2"), SupervisedExecutor)

    def test_failing_cell_settles_the_rest_first(self, tmp_path):
        """A cell that raises under pool ends the run with its traceback,
        after every other cell was simulated and stored in grid order."""
        scenarios = _scenarios(6)
        scenarios[1] = scenarios[1].with_dynamics(
            scripted_failures=[(1.0, 99_999)]
        )
        store = ResultStore(tmp_path / "runs.jsonl")
        with pytest.raises(CampaignIncompleteError) as excinfo:
            run_scenarios(scenarios, store=store, executor="pool:2")
        assert multiprocessing.active_children() == []
        [failure] = excinfo.value.failures
        assert (failure.index, failure.attempts) == (1, 1)
        assert "Traceback" in failure.error
        good = [sc for i, sc in enumerate(scenarios) if i != 1]
        assert [_norm(run) for run in store.load()] == [
            _norm(sc.run()) for sc in good
        ]

    def test_worker_faults_reach_pool_workers(self):
        with inject_faults(FaultPlan(seed=1, worker_crash_rate=1.0)):
            with pytest.raises(CampaignIncompleteError) as excinfo:
                run_scenarios(_scenarios(3), executor="pool:2")
        assert multiprocessing.active_children() == []
        assert [f.index for f in excinfo.value.failures] == [0, 1, 2]
        assert all("died without a result" in f.error
                   for f in excinfo.value.failures)


@pytest.mark.parametrize("executor", ["pool:2", "supervised:jobs=2,retries=0"])
def test_workers_live_for_the_whole_grid(monkeypatch, executor):
    """Six cells at two jobs fork two workers, not one per cell."""
    starts = []
    original = multiprocessing.process.BaseProcess.start

    def counting_start(self):
        starts.append(self)
        original(self)

    monkeypatch.setattr(
        multiprocessing.process.BaseProcess, "start", counting_start
    )
    scenarios = _scenarios(6)
    runs = run_scenarios(scenarios, executor=executor)
    assert len(starts) <= 2
    assert multiprocessing.active_children() == []
    assert [_norm(run) for run in runs] == [_norm(sc.run()) for sc in scenarios]


def _parent_if_running(pid):
    """A process's parent pid, or None once it is gone or a zombie."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            state, ppid = fh.read().rsplit(")", 1)[1].split()[:2]
    except OSError:
        return None
    return None if state == "Z" else int(ppid)


def _running(pids):
    return [pid for pid in pids if _parent_if_running(pid) is not None]


def _children(parent):
    return [
        int(pid) for pid in os.listdir("/proc")
        if pid.isdigit() and _parent_if_running(pid) == parent
    ]


@pytest.mark.skipif(
    not os.path.isdir("/proc"), reason="reads the process table in /proc"
)
@pytest.mark.parametrize("executor", ["pool:2", "supervised:jobs=2"])
def test_no_worker_outlives_a_killed_run(tmp_path, executor):
    """SIGKILL the CLI mid-grid: each worker reads EOF on its pipe and
    exits, so none is left running 5 s later."""
    store = tmp_path / "killed.jsonl"
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "run", "fig10", "--preset", "smoke",
         "--seeds", "1", "2", "3", "--cache", str(store),
         "--executor", executor],
        cwd=tmp_path, env=dict(os.environ, PYTHONPATH=REPO_SRC),
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    )
    workers = []
    try:
        deadline = time.monotonic() + 120
        # Mid-grid: a cell is stored and both workers are up.
        while len(workers) < 2 or not (
            store.exists() and b"\n" in store.read_bytes()
        ):
            assert proc.poll() is None, "the run ended before the kill"
            assert time.monotonic() < deadline, "the grid never got going"
            time.sleep(0.02)
            workers = _children(proc.pid)
        proc.kill()
        proc.wait(timeout=30)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait(timeout=30)
    deadline = time.monotonic() + 5.0
    while _running(workers) and time.monotonic() < deadline:
        time.sleep(0.05)
    orphans = _running(workers)
    for pid in orphans:
        os.kill(pid, signal.SIGKILL)
    assert orphans == [], f"workers outlived the run: {orphans}"
