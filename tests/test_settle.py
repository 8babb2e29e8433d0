"""One failure state machine: every parallel executor on one loop.

The worker pool (``pool`` and ``supervised``) and the distributed
executor keep their cells on a ``LeaseBoard`` and settle them through
the same loop, so a failing store, a failing cell and the events
reporting them must look the same under each.  The distributed case
runs two in-thread workers against a self-hosted coordinator.
"""

import contextlib
import multiprocessing
import random
import sys
import threading
import time

import pytest

from repro.api import Campaign, CampaignIncompleteError, Scenario, run_scenarios
from repro.config import Protocol
from repro.exec import ExecutionHooks, ExecutorSpec, LeaseBoard, get_executor
from repro.exec.board import settle
from repro.exec.worker import run_worker

#: Per-kind spec fields: a short backoff keeps worker-pool retries
#: quick, and ``pool`` needs two jobs (one runs serially).
_FIELDS = {
    "pool": dict(jobs=2, backoff_base_s=0.01, backoff_cap_s=0.02),
    "supervised": dict(backoff_base_s=0.01, backoff_cap_s=0.02),
    "distributed": dict(lease_timeout_s=10.0),
}

RETRY_KEYS = {
    "type", "index", "total", "attempt", "max_attempts", "kind", "error",
}
CELL_KEYS = {
    "type", "index", "total", "source", "attempts", "worker", "shared",
    "scenario",
}


def _scenarios(n, horizon_s=2.0):
    base = Scenario.from_preset("smoke").with_runtime(
        horizon_s=horizon_s, sample_interval_s=1.0
    )
    camp = (
        Campaign(base)
        .over(protocol=[Protocol.PURE_LEACH])
        .seeds(list(range(1, n + 1)))
    )
    return camp.scenarios()


@contextlib.contextmanager
def _live(kind, retries):
    """A live executor of ``kind``; distributed gets two in-thread workers."""
    executor = get_executor(
        ExecutorSpec(kind=kind, retries=retries, **_FIELDS[kind])
    )
    stop = threading.Event()
    threads = []
    if kind == "distributed":
        executor._ensure_server()
        threads = [
            threading.Thread(
                target=run_worker,
                kwargs=dict(connect=executor.url, worker_id=f"w{i}",
                            stop=stop, poll_s=0.05),
                daemon=True,
            )
            for i in range(2)
        ]
    for thread in threads:
        thread.start()
    try:
        yield executor
    finally:
        stop.set()
        executor.close()
        for thread in threads:
            thread.join(timeout=10)
            assert not thread.is_alive()


class _BrokenStore:
    """Takes ``fail_at - 1`` rows, then fails like a full disk."""

    def __init__(self, fail_at):
        self.fail_at = fail_at
        self.rows = []

    def append(self, run):
        if len(self.rows) + 1 == self.fail_at:
            raise OSError("disk full")
        self.rows.append(run)


@pytest.mark.parametrize("kind", ["pool", "supervised", "distributed"])
class TestOneSettleLoop:
    def test_store_error_propagates(self, kind):
        store = _BrokenStore(fail_at=2)
        with _live(kind, retries=0) as executor:
            with pytest.raises(OSError, match="disk full"):
                run_scenarios(_scenarios(4), store=store, executor=executor)
        assert len(store.rows) == 1

    def test_every_failed_attempt_is_one_retry_event(self, kind):
        # A scripted failure naming a node the network does not have
        # raises inside the worker on every attempt.
        bad = _scenarios(1)[0].with_dynamics(
            scripted_failures=[(1.0, 99_999)]
        )
        events = []
        with _live(kind, retries=2) as executor:
            with pytest.raises(CampaignIncompleteError):
                run_scenarios(
                    [bad], executor=executor, on_cell_event=events.append
                )
        assert [(e["type"], e.get("attempt", e.get("attempts")))
                for e in events] == [
            ("retry", 1), ("retry", 2), ("quarantine", 3),
        ]
        for retry in events[:2]:
            assert set(retry) == RETRY_KEYS
            assert retry["kind"] == "error"
            assert "Traceback" in retry["error"]

    def test_cell_event_has_one_shape(self, kind):
        events = []
        with _live(kind, retries=0) as executor:
            run_scenarios(
                _scenarios(1), executor=executor, on_cell_event=events.append
            )
        assert [set(e) for e in events] == [CELL_KEYS]
        assert events[0]["attempts"] == 1 and events[0]["shared"] is False


def test_aborted_supervised_campaign_leaves_no_children():
    with pytest.raises(OSError, match="disk full"):
        run_scenarios(
            _scenarios(6, horizon_s=5.0), store=_BrokenStore(fail_at=1),
            executor="supervised:jobs=2,retries=0",
        )
    assert multiprocessing.active_children() == []


def test_concurrent_outcomes_are_each_reported_once():
    """Eight threads lease, fail and complete cells on one board while
    the settle loop observes it: every failed attempt is exactly one
    retry event, none lost to a race and none doubled."""
    scenarios = _scenarios(120)
    board = LeaseBoard()
    events = []
    stop = threading.Event()
    deadline = time.monotonic() + 60.0

    def work(n):
        rng = random.Random(n)
        while not stop.is_set():
            lease = board.lease(f"t{n}")
            if lease is None:
                time.sleep(0.001)
                continue
            time.sleep(rng.random() * 0.004)  # hold the lease a while
            if rng.random() < 0.6:
                board.fail(lease["lease_id"], f"boom {n}")
            else:
                board.complete(lease["lease_id"], lease["cell"])

    def pump():
        assert time.monotonic() < deadline, "settle loop did not finish"
        board.wait(0.001)

    threads = [
        threading.Thread(target=work, args=(n,), daemon=True)
        for n in range(8)
    ]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        results, failures = settle(
            board, scenarios, range(len(scenarios)),
            ExecutionHooks(on_cell_event=events.append),
            max_attempts=4, pump=pump,
        )
    finally:
        stop.set()
        sys.setswitchinterval(interval)
        for thread in threads:
            thread.join(timeout=10)
    assert not any(thread.is_alive() for thread in threads)
    quarantined = {failure.index for failure in failures}
    assert quarantined  # 0.6**4 of 120 cells: about 16 expected
    for index in range(len(scenarios)):
        *retries, final = [e for e in events if e["index"] == index]
        assert final["type"] == (
            "quarantine" if index in quarantined else "cell"
        )
        assert [e["attempt"] for e in retries] == \
            list(range(1, final["attempts"]))
        assert results[index] == (None if index in quarantined else index)
