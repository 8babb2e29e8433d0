"""Coordinator HTTP surface for the distributed executor.

The wire protocol is four stdlib-only JSON endpoints in front of a
:class:`~repro.exec.board.LeaseBoard`:

* ``POST /work/lease``      ``{"worker": id}`` → ``{"lease": {...}|null}``
* ``POST /work/result``     ``{"lease_id", "worker", "run"|"error"}``
  → ``{"accepted": bool}``
* ``POST /work/heartbeat``  ``{"worker": id}`` → ``{"ok", "leases"}``
* ``GET  /work/status``     → board counts + per-worker stats

:func:`handle_work` implements the routes as a transport-independent
``(status, payload)`` function so the same code serves two hosts: the
standalone :class:`CoordinatorServer` below (what ``--executor
distributed`` self-hosts from the CLI) and the campaign server's handler
(``repro-caem serve --distributed``), which delegates ``/work/*`` here.
Both hosts read request bodies with :func:`read_json_body`.
"""

from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Dict, Optional, Sequence, Tuple

from .board import LeaseBoard

__all__ = [
    "HttpError",
    "handle_work",
    "read_json_body",
    "CoordinatorServer",
    "start_coordinator",
]

#: Request bodies are small JSON objects (a campaign spec, a lease
#: request, one result payload of a few KB); bigger ones are refused.
MAX_BODY_BYTES = 1 << 20


class HttpError(Exception):
    """An error with a specific HTTP status (400, 404, 413, ...)."""

    def __init__(self, status: int, message: str):
        super().__init__(message)
        self.status = status


def read_json_body(handler: BaseHTTPRequestHandler) -> Dict[str, Any]:
    """The JSON object a request carries, or :class:`HttpError`.

    A missing, malformed or non-positive ``Content-Length`` is a 400
    before any byte is read, and one over :data:`MAX_BODY_BYTES` a 413.
    """
    try:
        length = int(handler.headers.get("Content-Length") or 0)
    except ValueError:
        raise HttpError(
            400, "malformed Content-Length header (expected an integer)"
        ) from None
    if length <= 0:
        raise HttpError(400, "request body required (a JSON object)")
    if length > MAX_BODY_BYTES:
        raise HttpError(
            413,
            f"request body too large ({length} bytes; the limit is "
            f"{MAX_BODY_BYTES}) — requests are small JSON objects",
        )
    raw = handler.rfile.read(length)
    try:
        data = json.loads(raw)
    except ValueError as exc:
        raise HttpError(400, f"request body is not JSON: {exc}") from None
    if not isinstance(data, dict):
        raise HttpError(400, "request body must be a JSON object")
    return data


def handle_work(
    board: LeaseBoard,
    method: str,
    parts: Sequence[str],
    body: Optional[Dict[str, Any]],
) -> Optional[Tuple[int, Dict[str, Any]]]:
    """Route one ``/work/*`` request against ``board``.

    ``parts`` is the split request path (``["work", "lease"]``).  Returns
    ``(http_status, json_payload)``, or ``None`` when the path is not a
    work route (the caller 404s).
    """
    if not parts or parts[0] != "work" or len(parts) != 2:
        return None
    action = parts[1]

    if method == "GET":
        if action != "status":
            return None
        return 200, {
            "counts": board.counts(),
            "workers": board.workers(),
            "lease_timeout_s": board.lease_timeout_s,
        }
    if method != "POST":
        return None
    body = body or {}

    if action == "lease":
        worker = str(body.get("worker") or "anonymous")
        return 200, {"lease": board.lease(worker)}

    if action == "heartbeat":
        worker = str(body.get("worker") or "anonymous")
        return 200, {"ok": True, "leases": board.heartbeat(worker)}

    if action == "result":
        lease_id = body.get("lease_id")
        if not lease_id:
            return 400, {"error": "result requires a lease_id"}
        if "run" in body:
            accepted = board.complete(str(lease_id), body["run"])
        else:
            error = str(body.get("error") or "worker reported failure")
            accepted = board.fail(str(lease_id), error)
        return 200, {"accepted": accepted}

    return None


class _CoordinatorHandler(BaseHTTPRequestHandler):
    """Minimal JSON handler: every route is a :func:`handle_work` call."""

    server_version = "repro-coordinator/1"
    protocol_version = "HTTP/1.1"

    def log_message(self, fmt, *args):  # noqa: D102 - quiet by default
        if not getattr(self.server, "quiet", True):
            super().log_message(fmt, *args)

    def _respond(self, status: int, payload: Dict[str, Any]) -> None:
        raw = json.dumps(payload).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(raw)))
        self.end_headers()
        self.wfile.write(raw)

    def _dispatch(self, method: str) -> None:
        parts = [p for p in self.path.split("?", 1)[0].split("/") if p]
        try:
            body = read_json_body(self) if method == "POST" else None
        except HttpError as exc:
            self._respond(exc.status, {"error": str(exc)})
            return
        try:
            routed = handle_work(self.server.board, method, parts, body)
        except Exception as exc:  # noqa: BLE001 - keep the server alive
            self._respond(500, {"error": f"{type(exc).__name__}: {exc}"})
            return
        if routed is None:
            self._respond(404, {"error": f"no such route: {self.path}"})
            return
        self._respond(*routed)

    def do_GET(self):  # noqa: N802
        self._dispatch("GET")

    def do_POST(self):  # noqa: N802
        self._dispatch("POST")


class CoordinatorServer(ThreadingHTTPServer):
    """Self-hosted work server for CLI-driven distributed campaigns."""

    daemon_threads = True

    def __init__(self, address, board: LeaseBoard, quiet: bool = True):
        super().__init__(address, _CoordinatorHandler)
        self.board = board
        self.quiet = quiet
        self._thread: Optional[threading.Thread] = None

    @property
    def url(self) -> str:
        host, port = self.server_address[0], self.server_address[1]
        return f"http://{host}:{port}"

    def start(self) -> "CoordinatorServer":
        self._thread = threading.Thread(
            target=self.serve_forever,
            kwargs={"poll_interval": 0.1},
            name="repro-coordinator",
            daemon=True,
        )
        self._thread.start()
        return self

    def close(self) -> None:
        self.shutdown()
        self.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5)
            self._thread = None


def start_coordinator(
    host: str, port: int, board: LeaseBoard, quiet: bool = True
) -> CoordinatorServer:
    """Bind + start a coordinator; ``port=0`` picks a free port."""
    return CoordinatorServer((host, port), board, quiet=quiet).start()
