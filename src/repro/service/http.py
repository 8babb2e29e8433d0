"""The campaign server: a stdlib JSON-over-HTTP front on the service tier.

``repro-caem serve`` binds a :class:`ThreadingHTTPServer` whose handlers
talk to a shared :class:`~repro.service.db.DbResultStore` and
:class:`~repro.service.jobs.JobManager`.  No third-party web framework —
the paper repo stays dependency-light — just the endpoints a campaign
workflow needs:

==================================  ========================================
``GET  /health``                    liveness + row count + schema version
``GET  /experiments``               the experiment registry, as JSON
``POST /campaigns``                 submit a campaign spec → ``job_id``
``GET  /campaigns``                 all jobs, newest last
``GET  /campaigns/<id>``            one job's status snapshot
``GET  /campaigns/<id>/events``     NDJSON progress stream (long-poll)
``GET  /campaigns/<id>/figure``     rendered figure; ``?rerender=1``
                                    re-renders from the stored DB rows
                                    through the run cache, as ``--from``
                                    does
``GET  /campaigns/<id>/agg``        grouped reduction over the stored
                                    rows of the job's own cells:
                                    ``?agg=mean&group_by=protocol,load``
                                    (+ ``metrics=``)
``POST /work/lease`` etc.           distributed-executor work endpoints
                                    (``serve --distributed`` only; see
                                    :mod:`repro.exec.coordinator`)
``GET  /runs``                      browse rows: ``experiment`` /
                                    ``digest`` / ``seed`` / ``protocol`` /
                                    repeated ``where=`` predicates /
                                    ``limit`` / ``full=1`` for series
==================================  ========================================

Concurrency: WAL mode on the database means the read endpoints serve
consistent snapshots while worker threads append mid-campaign.
"""

from __future__ import annotations

import json
import traceback
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Dict, List, Optional, Tuple
from urllib.parse import parse_qs, urlparse

from ..api import list_experiments
from ..errors import ExperimentError, ReproError
from ..exec.coordinator import HttpError, handle_work, read_json_body
from .cache import replay
from .db import DbResultStore
from .jobs import JobManager, render_experiment
from .migrations import SCHEMA_VERSION
from .query import aggregate_runs, parse_predicate, query_runs

__all__ = ["CampaignServer", "build_server"]


class CampaignServer(ThreadingHTTPServer):
    """HTTP server owning the shared result database and job manager."""

    daemon_threads = True

    def __init__(
        self,
        address: Tuple[str, int],
        db: DbResultStore,
        manager: JobManager,
        quiet: bool = False,
        board=None,
    ):
        super().__init__(address, _Handler)
        self.db = db
        self.manager = manager
        self.quiet = quiet
        #: The distributed lease board (``serve --distributed``): when
        #: set, ``/work/*`` routes serve remote ``repro-caem worker``
        #: processes; when ``None`` those routes 404.
        self.board = board

    def close(self) -> None:
        """Stop serving and drain the worker pool (tests, SIGINT path)."""
        self.shutdown()
        self.server_close()
        self.manager.shutdown()


def build_server(
    db_path,
    host: str = "127.0.0.1",
    port: int = 8351,
    workers: int = 1,
    quiet: bool = False,
    distributed: bool = False,
    lease_timeout_s: float = 30.0,
) -> CampaignServer:
    """Wire db + job manager + HTTP server (port 0 picks a free port).

    ``distributed=True`` attaches a shared
    :class:`~repro.exec.board.LeaseBoard`: jobs submitted with
    ``{"executor": "distributed"}`` queue their cells on it, and remote
    ``repro-caem worker --connect`` processes lease them through the
    ``/work/*`` endpoints of this same server.
    """
    db = DbResultStore(db_path)
    board = None
    if distributed:
        from ..exec.board import LeaseBoard

        board = LeaseBoard(lease_timeout_s=lease_timeout_s)
    manager = JobManager(db, workers=workers, board=board)
    return CampaignServer((host, port), db, manager, quiet=quiet, board=board)


class _MemoryRows:
    """An in-memory row list behind the JSONL store's ``load`` interface."""

    def __init__(self, rows):
        self._rows = list(rows)

    def load(self):
        return list(self._rows)


class _Handler(BaseHTTPRequestHandler):
    server: CampaignServer

    protocol_version = "HTTP/1.1"

    # -- plumbing --------------------------------------------------------------

    def log_message(self, fmt: str, *args: Any) -> None:  # noqa: A003
        if not self.server.quiet:
            super().log_message(fmt, *args)

    def _send_json(self, payload: Any, status: int = 200) -> None:
        body = (json.dumps(payload, indent=2) + "\n").encode()
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _send_text(self, text: str, status: int = 200,
                   content_type: str = "text/plain; charset=utf-8") -> None:
        body = text.encode()
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _error(self, status: int, message: str) -> None:
        self._send_json({"error": message}, status=status)

    # -- routing ---------------------------------------------------------------

    def do_GET(self) -> None:  # noqa: N802 - http.server API
        url = urlparse(self.path)
        params = parse_qs(url.query)
        parts = [p for p in url.path.split("/") if p]
        try:
            if parts == ["health"]:
                return self._get_health()
            if parts == ["experiments"]:
                return self._get_experiments()
            if parts == ["runs"]:
                return self._get_runs(params)
            if parts and parts[0] == "work":
                return self._work(parts, None, "GET")
            if parts and parts[0] == "campaigns":
                if len(parts) == 1:
                    return self._get_campaigns()
                job = self.server.manager.get(parts[1])
                if len(parts) == 2:
                    return self._send_json(job.snapshot())
                if len(parts) == 3 and parts[2] == "events":
                    return self._get_events(job, params)
                if len(parts) == 3 and parts[2] == "figure":
                    return self._get_figure(job, params)
                if len(parts) == 3 and parts[2] == "agg":
                    return self._get_agg(job, params)
            self._error(404, f"no such endpoint: {url.path}")
        except HttpError as exc:
            self._error(exc.status, str(exc))
        except (ReproError, ValueError) as exc:
            self._error(400, str(exc))
        except (BrokenPipeError, ConnectionResetError):
            pass  # streaming client went away — nothing to answer
        except Exception as exc:  # noqa: BLE001 - no tracebacks to clients
            self._internal_error(exc)

    def do_POST(self) -> None:  # noqa: N802 - http.server API
        url = urlparse(self.path)
        parts = [p for p in url.path.split("/") if p]
        try:
            if parts == ["campaigns"]:
                spec = read_json_body(self)
                record = self.server.manager.submit(spec)
                return self._send_json(record.snapshot(), status=202)
            if parts and parts[0] == "work":
                return self._work(parts, read_json_body(self), "POST")
            self._error(404, f"no such endpoint: {url.path}")
        except HttpError as exc:
            self._error(exc.status, str(exc))
        except (ReproError, ValueError) as exc:
            self._error(400, str(exc))
        except (BrokenPipeError, ConnectionResetError):
            pass
        except Exception as exc:  # noqa: BLE001 - no tracebacks to clients
            self._internal_error(exc)

    def _internal_error(self, exc: Exception) -> None:
        """A 500 as structured JSON — never an unhandled traceback.

        The traceback goes to the server log (unless quiet); the client
        gets the exception type and message only.
        """
        if not self.server.quiet:
            traceback.print_exc()
        try:
            self._error(500, f"internal error: {type(exc).__name__}: {exc}")
        except (BrokenPipeError, ConnectionResetError):
            pass  # headers already sent or client gone — nothing to add

    # -- endpoints -------------------------------------------------------------

    def _get_health(self) -> None:
        self._send_json(
            {
                "ok": True,
                "db": str(self.server.db.path),
                "rows": len(self.server.db),
                "schema_version": SCHEMA_VERSION,
                "jobs": len(self.server.manager.list()),
            }
        )

    def _get_experiments(self) -> None:
        self._send_json(
            {
                "experiments": [spec.to_dict() for spec in list_experiments()],
            }
        )

    def _get_campaigns(self) -> None:
        self._send_json(
            {
                "jobs": [job.snapshot() for job in self.server.manager.list()],
            }
        )

    def _get_events(self, job, params: Dict[str, List[str]]) -> None:
        """NDJSON progress stream: replay from ``after``, then follow.

        Chunked so a client can iterate lines live; the stream closes once
        the job is terminal and everything was flushed (or ``timeout``
        seconds pass with no news — reconnect with ``after=<seq>``).
        """
        after = int(params.get("after", ["0"])[0])
        timeout = min(120.0, float(params.get("timeout", ["30"])[0]))
        self.send_response(200)
        self.send_header("Content-Type", "application/x-ndjson")
        self.send_header("Transfer-Encoding", "chunked")
        self.end_headers()

        def write_chunk(data: bytes) -> None:
            self.wfile.write(f"{len(data):X}\r\n".encode() + data + b"\r\n")

        seq = after
        while True:
            events = job.wait_events(seq, timeout=timeout)
            for event in events:
                write_chunk((json.dumps(event) + "\n").encode())
            self.wfile.flush()
            if events:
                seq = events[-1]["seq"] + 1
            if job.finished and len(job.events) <= seq:
                break
            if not events:
                break  # timed out quietly; client reconnects with after=
        self.wfile.write(b"0\r\n\r\n")

    def _get_figure(self, job, params: Dict[str, List[str]]) -> None:
        spec = job.spec
        if "experiment" not in spec:
            raise ExperimentError(
                "figures exist only for experiment jobs (grid jobs store "
                "raw rows — browse them via /runs)"
            )
        rerender = params.get("rerender", ["0"])[0] not in ("0", "", "false")
        if rerender:
            if not job.finished:
                return self._error(409, "job still running; poll until done")
            # Re-render purely from the stored rows — the service-tier
            # equivalent of `repro-caem run <exp> --from results.sqlite`.
            with replay(self.server.db):
                return self._send_text(render_experiment(spec))
        if job.figure_text is None:
            return self._error(409, "figure not rendered yet; poll until done")
        self._send_text(job.figure_text)

    def _work(self, parts: List[str], body: Optional[Dict[str, Any]],
              method: str) -> None:
        """Delegate ``/work/*`` to the distributed coordinator routes."""
        board = self.server.board
        if board is None:
            return self._error(
                404,
                "this server has no distributed lease board — start it "
                "with 'repro-caem serve --distributed'",
            )
        routed = handle_work(board, method, parts, body)
        if routed is None:
            return self._error(404, f"no such endpoint: {self.path}")
        status, payload = routed
        self._send_json(payload, status=status)

    def _get_agg(self, job, params: Dict[str, List[str]]) -> None:
        """Grouped reduction over this job's own rows.

        ``GET /campaigns/<id>/agg?agg=mean&group_by=protocol,load`` —
        the server-side equivalent of ``repro-caem query --agg``,
        reusing :func:`~repro.service.query.aggregate_runs`.  The rows
        are those the job's run cache pairs with each grid it executed
        (:meth:`~repro.service.cache.RunCache.stored_runs`), by the rule
        ``?rerender=1`` replays with: a row another job stored counts
        when it fills one of this job's cells, a row of another seed or
        another experiment does not, and a job that is still running or
        ended incomplete reduces what it has.
        """
        def one(name: str, default: Optional[str] = None) -> Optional[str]:
            values = params.get(name)
            return values[0] if values else default

        agg = one("agg", "mean")
        group_by = [
            key.strip()
            for key in one("group_by", "protocol").split(",")
            if key.strip()
        ]
        metrics_raw = one("metrics")
        metrics = (
            [m.strip() for m in metrics_raw.split(",") if m.strip()]
            if metrics_raw else None
        )
        cache = job._run_cache
        rows = [] if cache is None else cache.stored_runs()
        groups = aggregate_runs(_MemoryRows(rows), group_by, agg=agg, metrics=metrics)
        self._send_json(
            {
                "job_id": job.job_id,
                "agg": agg,
                "group_by": group_by,
                "count": len(groups),
                "groups": groups,
            }
        )

    def _get_runs(self, params: Dict[str, List[str]]) -> None:
        def one(name: str) -> Optional[str]:
            values = params.get(name)
            return values[0] if values else None

        seed = one("seed")
        limit = one("limit")
        where = [parse_predicate(text) for text in params.get("where", [])]
        rows = query_runs(
            self.server.db,
            experiment=one("experiment"),
            config_digest=one("digest"),
            seed=int(seed) if seed is not None else None,
            protocol=one("protocol"),
            where=where,
            limit=int(limit) if limit is not None else None,
        )
        full = one("full") in ("1", "true")
        self._send_json(
            {
                "count": len(rows),
                "rows": [
                    run.to_dict() if full else run.scalar_summary() for run in rows
                ],
            }
        )
