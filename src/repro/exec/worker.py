"""The remote worker loop: lease → simulate → report, forever.

A worker is deliberately dumb and stateless — all coordination state
(what is pending, who holds what, retry budgets) lives on the
coordinator's lease board.  The loop is:

1. ``POST /work/lease`` — pull the next pending cell, or idle-poll;
2. rebuild the scenario from the wire payload and simulate it, with a
   background heartbeat renewing the lease at a third of its timeout so
   long-running cells are not stolen while healthy;
3. ``POST /work/result`` — ship ``RunResult.to_dict()`` back (or the
   traceback on failure) and immediately ask for more work.

If the worker dies mid-cell the heartbeat stops, the lease expires, and
the coordinator re-queues the cell — no worker-side cleanup needed.
Determinism makes workers interchangeable: whichever worker runs a cell
produces the same bytes.
"""

from __future__ import annotations

import json
import os
import socket
import sys
import threading
import time
import urllib.error
import urllib.request
from typing import Any, Dict, Optional

from .local import run_attempt
from .wire import scenario_from_wire

__all__ = ["run_worker", "serve_coordinator", "WorkerStats"]


class WorkerStats:
    """What one worker loop did, for the CLI summary and tests."""

    def __init__(self) -> None:
        self.cells_done = 0
        self.cells_failed = 0
        self.polls = 0


def _post(url: str, payload: Dict[str, Any], timeout: float = 10.0):
    request = urllib.request.Request(
        url,
        data=json.dumps(payload).encode("utf-8"),
        headers={"Content-Type": "application/json"},
        method="POST",
    )
    with urllib.request.urlopen(request, timeout=timeout) as response:
        return json.loads(response.read() or b"{}")


def _default_worker_id() -> str:
    return f"{socket.gethostname()}-{os.getpid()}"


def run_worker(
    connect: str,
    worker_id: Optional[str] = None,
    poll_s: float = 0.2,
    idle_exit_s: Optional[float] = None,
    max_cells: Optional[int] = None,
    stop: Optional[threading.Event] = None,
    quiet: bool = True,
) -> WorkerStats:
    """Serve a coordinator at ``connect`` until told (or asked) to stop.

    ``idle_exit_s`` ends the loop after that long without work (used by
    CI and spawned local workers so they drain and exit); ``max_cells``
    caps how many cells this worker will run (tests); ``stop`` is an
    external kill switch.  Connection errors are retried — a worker may
    outlive a coordinator restart — but give up after ~30s of refusals.
    """
    base = connect.rstrip("/")
    worker = worker_id or _default_worker_id()
    stats = WorkerStats()
    idle_since: Optional[float] = None
    refused_since: Optional[float] = None

    def say(text: str) -> None:
        if not quiet:
            print(f"[worker {worker}] {text}", flush=True)

    while not (stop is not None and stop.is_set()):
        if max_cells is not None and stats.cells_done >= max_cells:
            break
        try:
            lease = _post(f"{base}/work/lease", {"worker": worker})["lease"]
            refused_since = None
        except (urllib.error.URLError, OSError, ValueError):
            now = time.monotonic()
            refused_since = refused_since or now
            if now - refused_since > 30.0:
                say("coordinator unreachable for 30s — giving up")
                break
            time.sleep(min(1.0, poll_s * 4))
            continue

        if lease is None:
            stats.polls += 1
            now = time.monotonic()
            idle_since = idle_since or now
            if idle_exit_s is not None and now - idle_since >= idle_exit_s:
                say("idle — exiting")
                break
            time.sleep(poll_s)
            continue
        idle_since = None

        lease_id = lease["lease_id"]
        attempt = int(lease.get("attempt") or 1)
        interval = max(0.05, float(lease.get("lease_timeout_s") or 30.0) / 3)
        done = threading.Event()

        def beat() -> None:
            while not done.wait(interval):
                try:
                    _post(f"{base}/work/heartbeat", {"worker": worker})
                except (urllib.error.URLError, OSError, ValueError):
                    pass  # a missed beat just shortens the lease's slack

        heart = threading.Thread(target=beat, daemon=True)
        heart.start()
        try:
            try:
                scenario = scenario_from_wire(lease["cell"])
            except Exception:  # noqa: BLE001 - a payload this build can't read
                import traceback

                status, value = "error", traceback.format_exc()
            else:
                status, value = run_attempt(scenario, attempt)
        finally:
            done.set()
            heart.join(timeout=2)
        report = {"lease_id": lease_id, "worker": worker}
        if status == "ok":
            report["run"] = value.to_dict()
            stats.cells_done += 1
            say(f"done {lease.get('describe') or lease_id}")
        else:
            report["error"] = value
            stats.cells_failed += 1
            say(f"failed {lease.get('describe') or lease_id}")

        try:
            _post(f"{base}/work/result", report)
        except (urllib.error.URLError, OSError, ValueError):
            # Couldn't deliver: the lease will expire and the cell will
            # be retried elsewhere. Deterministic, so no harm done.
            say("failed to deliver result — lease will expire")
    return stats


def serve_coordinator(connect: str, worker_id: str) -> None:
    """Serve the coordinator that spawned this process, while it lives.

    A self-hosting :class:`~repro.exec.distributed.DistributedExecutor`
    holds the write end of this process's stdin and never writes to it.
    EOF there means the coordinator closed it or died (SIGKILL included),
    and the worker exits at once rather than retrying a dead URL: it
    keeps no state, and a cell in flight has nobody left to take its
    result.
    """

    def watch() -> None:
        sys.stdin.buffer.read()
        os._exit(0)

    threading.Thread(target=watch, daemon=True).start()
    run_worker(connect, worker_id=worker_id, idle_exit_s=60.0)
