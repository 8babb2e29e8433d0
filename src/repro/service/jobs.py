"""Background campaign jobs for the service tier.

A :class:`JobManager` owns a FIFO of submitted campaign specs and a small
pool of worker threads.  Each worker executes one job at a time through
the content-addressed :class:`~repro.service.cache.RunCache` (so
resubmitting a finished campaign is pure reads) under the executor the
spec's ``"executor"`` key names (serial when absent), appending every
simulated row to the shared result database.

Two spec shapes are accepted (JSON over the HTTP API, or dicts in
process):

* **experiment spec** — ``{"experiment": "fig8", "preset": "smoke",
  "seeds": [1, 2], "loads": [5, 15], "executor": "pool:2"}`` runs a
  registered experiment and retains its rendered figure;
* **grid spec** — ``{"preset": "smoke", "axes": {"protocol":
  ["pure_leach", "scheme1"], "load_pps": [5.0]}, "seeds": [1],
  "horizon_s": 6.0}`` runs an ad-hoc :class:`~repro.api.Campaign`.

Progress is recorded as an append-only event list per job (a ``plan``
event, one ``cell`` event per grid cell, and a terminal ``done`` /
``failed``), which the HTTP layer exposes both as a poll snapshot and as
an NDJSON stream.
"""

from __future__ import annotations

import itertools
import queue
import threading
import time
import traceback
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from ..api import (
    Campaign,
    CampaignIncompleteError,
    ExecutorSpec,
    Scenario,
    get_experiment,
    use_executor,
    use_run_cache,
)
from ..errors import ExperimentError
from ..exec.base import get_executor
from .cache import RunCache
from .db import DbResultStore

__all__ = ["JobRecord", "JobManager", "render_experiment"]

_TERMINAL = ("done", "failed", "incomplete", "aborted")

#: Spec keys that named an execution policy before ``"executor"`` did,
#: each with the ``"executor"`` spelling that replaces it.
_REMOVED_KEYS = {
    "jobs": '"executor": "pool:N"',
    "supervise": '"executor": "supervised"',
    "cell_timeout_s": '"executor": "supervised:timeout=S"',
    "max_attempts": '"executor": "supervised:retries=<max_attempts - 1>"',
}


def render_experiment(spec: Dict[str, Any]) -> str:
    """Run the experiment an experiment spec names and render it.

    Cells come from the ambient run cache and executor: a job's own, or
    :func:`~repro.service.cache.replay`'s for a ``?rerender=1``.
    """
    figure = get_experiment(spec["experiment"]).run(
        preset=spec.get("preset", "smoke"),
        seeds=tuple(int(s) for s in spec.get("seeds", (1,))),
        loads_pps=(
            tuple(float(v) for v in spec["loads"]) if spec.get("loads") else None
        ),
    )
    return figure.render()


@dataclass
class JobRecord:
    """One submitted campaign: spec, status, progress events, result.

    Terminal statuses: ``done`` (every cell completed), ``failed`` (the
    job itself errored), ``incomplete`` (supervised run finished with
    quarantined cells — ``report`` counts them, see
    :attr:`~repro.exec.CampaignIncompleteError.report`), and
    ``aborted`` (server shut down before/while the job ran).  Whatever
    the path out, the condition is notified, so ``wait``/``wait_events``
    long-pollers are never stranded.
    """

    job_id: str
    spec: Dict[str, Any]
    status: str = "queued"  # queued | running | done | failed |
    #                         incomplete | aborted
    submitted_at: float = 0.0
    started_at: Optional[float] = None
    finished_at: Optional[float] = None
    total_cells: int = 0
    completed_cells: int = 0
    #: Worker attempts beyond the first, across all cells (supervised).
    retries: int = 0
    #: Cells that exhausted their retry budget (supervised).
    quarantined: int = 0
    cache: Dict[str, Any] = field(default_factory=dict)
    error: Optional[str] = None
    #: Quarantine report (supervised jobs that end incomplete).
    report: Optional[Dict[str, Any]] = None
    #: Rendered figure text (experiment specs only).
    figure_text: Optional[str] = None
    events: List[Dict[str, Any]] = field(default_factory=list)

    def __post_init__(self) -> None:
        self._cond = threading.Condition()
        #: The job's run cache, set when the job starts: it records every
        #: grid the job executes, so the aggregation endpoint reduces
        #: exactly this job's rows.  Not part of the JSON snapshot.
        self._run_cache: Optional[RunCache] = None

    @property
    def finished(self) -> bool:
        return self.status in _TERMINAL

    def emit(self, event: Dict[str, Any]) -> None:
        """Append one progress event (thread-safe, wakes streamers)."""
        with self._cond:
            event = dict(event)
            event["seq"] = len(self.events)
            event["job_id"] = self.job_id
            self.events.append(event)
            if event.get("type") == "plan":
                self.total_cells = int(event.get("total", 0))
            elif event.get("type") == "cell":
                self.completed_cells += 1
            elif event.get("type") == "retry":
                self.retries += 1
            elif event.get("type") == "quarantine":
                self.quarantined += 1
            self._cond.notify_all()

    def wait_events(self, after_seq: int, timeout: float
                    ) -> List[Dict[str, Any]]:
        """Events past ``after_seq``; blocks up to ``timeout`` for news."""
        deadline = time.monotonic() + timeout
        with self._cond:
            while (
                len(self.events) <= after_seq
                and not self.finished
                and time.monotonic() < deadline
            ):
                self._cond.wait(timeout=max(0.05, deadline - time.monotonic()))
            return list(self.events[after_seq:])

    def wait(self, timeout: float = 60.0) -> bool:
        """Block until the job reaches a terminal state (True) or timeout."""
        deadline = time.monotonic() + timeout
        with self._cond:
            while not self.finished and time.monotonic() < deadline:
                self._cond.wait(timeout=max(0.05, deadline - time.monotonic()))
            return self.finished

    def snapshot(self) -> Dict[str, Any]:
        """JSON-safe status view (what ``GET /campaigns/<id>`` returns)."""
        with self._cond:
            return {
                "job_id": self.job_id,
                "spec": self.spec,
                "status": self.status,
                "submitted_at": self.submitted_at,
                "started_at": self.started_at,
                "finished_at": self.finished_at,
                "total_cells": self.total_cells,
                "completed_cells": self.completed_cells,
                "retries": self.retries,
                "quarantined": self.quarantined,
                "cache": dict(self.cache),
                "error": self.error,
                "report": self.report,
                "has_figure": self.figure_text is not None,
                "events": len(self.events),
            }

    def _finish(self, status: str, error: Optional[str] = None) -> None:
        with self._cond:
            if self.status in _TERMINAL:
                return  # first terminal transition wins (abort vs worker)
            self.status = status
            self.error = error
            self.finished_at = time.time()
            self._cond.notify_all()

    def abort(self, reason: str) -> None:
        """Force a terminal ``aborted`` state and wake every waiter.

        Used by :meth:`JobManager.shutdown` so a job that never ran (or
        was still running when the server stopped) cannot strand
        ``wait_events`` long-pollers on a status that will never change.
        Idempotent; a job that already reached a terminal state is left
        untouched.
        """
        with self._cond:
            if self.status in _TERMINAL:
                return
        self.emit({"type": "aborted", "error": reason})
        self._finish("aborted", error=reason)


class JobManager:
    """FIFO of campaign jobs drained by a worker thread pool."""

    def __init__(
        self,
        db: DbResultStore,
        workers: int = 1,
        board=None,
    ):
        if workers < 1:
            raise ExperimentError("JobManager needs at least one worker")
        self.db = db
        #: The distributed lease board (``serve --distributed``): jobs
        #: whose spec asks for the distributed executor attach to this
        #: instead of self-hosting a coordinator, and remote workers
        #: reach it through the server's ``/work/*`` endpoints.
        self.board = board
        self._jobs: Dict[str, JobRecord] = {}
        self._order: List[str] = []
        self._queue: "queue.Queue[Optional[str]]" = queue.Queue()
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self._workers = [
            threading.Thread(
                target=self._worker, name=f"campaign-worker-{i}", daemon=True
            )
            for i in range(workers)
        ]
        for thread in self._workers:
            thread.start()

    # -- submission / lookup ---------------------------------------------------

    def submit(self, spec: Dict[str, Any]) -> JobRecord:
        """Validate ``spec``, enqueue it, return its (queued) record.

        Validation happens *here* so a bad spec fails the submitting HTTP
        request with a clear message instead of a failed background job.
        """
        self._build_plan(spec)  # raises ExperimentError on a bad spec
        self._executor_for(spec)  # likewise for the executor request
        with self._lock:
            job_id = f"job-{next(self._ids)}"
            record = JobRecord(job_id=job_id, spec=dict(spec), submitted_at=time.time())
            self._jobs[job_id] = record
            self._order.append(job_id)
        self._queue.put(job_id)
        return record

    def get(self, job_id: str) -> JobRecord:
        try:
            with self._lock:
                return self._jobs[job_id]
        except KeyError:
            raise ExperimentError(f"unknown job {job_id!r}") from None

    def list(self) -> List[JobRecord]:
        with self._lock:
            return [self._jobs[job_id] for job_id in self._order]

    def shutdown(self) -> None:
        """Stop the workers; abort anything that will never finish.

        Queued jobs are drained and marked ``aborted`` immediately (their
        worker will never pick them up), then each worker gets a stop
        sentinel and a bounded join.  Any job still non-terminal after
        that — a worker hung mid-campaign, or a join that timed out — is
        force-aborted too, so every ``wait``/``wait_events`` long-poller
        wakes with a terminal status instead of blocking forever.
        """
        pending: List[str] = []
        try:
            while True:
                item = self._queue.get_nowait()
                if item is not None:
                    pending.append(item)
        except queue.Empty:
            pass
        for _ in self._workers:
            self._queue.put(None)
        for job_id in pending:
            self.get(job_id).abort("server shut down before the job started")
        for thread in self._workers:
            thread.join(timeout=5.0)
        for record in self.list():
            if not record.finished:
                record.abort("server shut down while the job was running")
        if self.board is not None:
            # Release every lease a distributed campaign still holds:
            # shutdown must never strand a cell in ``leased`` (its worker
            # may be gone, and nothing would ever expire it once the
            # coordinator's sweep loop stops).  The attempt is refunded —
            # shutdown is not the cell's fault.
            self.board.release_all()

    # -- execution -------------------------------------------------------------

    def _executor_for(self, spec: Dict[str, Any]) -> ExecutorSpec:
        """The :class:`ExecutorSpec` a job spec asks for (serial if none).

        ``{"executor": "pool:4"}`` / ``{"executor": {"kind":
        "supervised", "retries": 1}}`` is the one spelling; the keys it
        replaced (``jobs``, ``supervise``, ``cell_timeout_s``,
        ``max_attempts``) are rejected with the spelling to use instead,
        rather than silently running another policy.  A distributed
        request requires the server to own a lease board (``serve
        --distributed``).  Rejecting here fails the submitting HTTP
        request instead of a background job.
        """
        removed = [key for key in _REMOVED_KEYS if key in spec]
        if removed:
            hints = ", ".join(
                f"{key!r} -> {{{_REMOVED_KEYS[key]}}}" for key in removed
            )
            raise ExperimentError(
                f"campaign spec keys {removed} were removed: name the "
                f'execution policy with the "executor" key ({hints})'
            )
        executor = ExecutorSpec.normalize(spec.get("executor", "serial"))
        if executor.kind == "distributed" and self.board is None:
            raise ExperimentError(
                "spec asks for the distributed executor but this server "
                "has no lease board — start it with 'repro-caem serve "
                "--distributed'"
            )
        return executor

    @staticmethod
    def _build_plan(spec: Dict[str, Any]) -> Dict[str, Any]:
        """Normalise/validate a spec into an execution plan."""
        if not isinstance(spec, dict):
            raise ExperimentError("campaign spec must be a JSON object")
        if "experiment" in spec:
            get_experiment(spec["experiment"])  # raises with the known names
            return {"kind": "experiment"}
        if "axes" in spec:
            axes = spec["axes"]
            if not isinstance(axes, dict) or not axes:
                raise ExperimentError(
                    "grid spec needs a non-empty 'axes' object "
                    "(e.g. {\"protocol\": [\"scheme1\"]})"
                )
            # Build the campaign now: Campaign.over fails fast on bad
            # axis names/values, which is exactly the validation we want.
            base = Scenario.from_preset(spec.get("preset", "smoke"))
            runtime = {
                key: float(spec[key])
                for key in ("horizon_s", "sample_interval_s")
                if key in spec
            }
            if runtime:
                base = base.with_runtime(**runtime)
            campaign = Campaign(base, name=str(spec.get("name", "campaign")))
            campaign.over(**axes)
            if spec.get("seeds"):
                campaign.seeds([int(s) for s in spec["seeds"]])
            return {"kind": "grid", "campaign": campaign}
        raise ExperimentError(
            "campaign spec needs either 'experiment' (a registered "
            "experiment name) or 'axes' (a Campaign grid)"
        )

    def _worker(self) -> None:
        while True:
            job_id = self._queue.get()
            if job_id is None:
                return
            record = self.get(job_id)
            record.started_at = time.time()
            record.status = "running"
            try:
                self._run_job(record)
                record._finish("done")
            except Exception as exc:  # noqa: BLE001 - job isolation barrier
                record.emit(
                    {
                        "type": "failed",
                        "error": f"{type(exc).__name__}: {exc}",
                    }
                )
                record._finish(
                    "failed",
                    error="".join(
                        traceback.format_exception_only(type(exc), exc)
                    ).strip(),
                )

    def _run_job(self, record: JobRecord) -> None:
        spec = record.spec
        plan = self._build_plan(spec)
        cache = record._run_cache = RunCache(self.db, on_event=record.emit)
        # Instantiated here (not inside use_executor) so a distributed
        # job attaches to the server's shared lease board; closed in the
        # finally below.
        executor = get_executor(self._executor_for(spec), board=self.board)
        try:
            with use_run_cache(cache), use_executor(executor):
                if plan["kind"] == "experiment":
                    record.figure_text = render_experiment(spec)
                else:
                    plan["campaign"].run()
        except CampaignIncompleteError as exc:
            # Quarantined cells: an explicit partial outcome, not a crash.
            # Completed cells are already persisted; resubmitting the same
            # spec serves them from the cache and retries only the rest.
            record.cache = cache.stats.as_dict()
            record.report = exc.report
            record.emit(
                {
                    "type": "incomplete",
                    "quarantined": len(exc.failures),
                    "error": str(exc),
                    "report": record.report,
                    "cache": record.cache,
                }
            )
            record._finish("incomplete", error=str(exc))
            return
        finally:
            executor.close()
        record.cache = cache.stats.as_dict()
        record.emit({"type": "done", "cache": record.cache})
