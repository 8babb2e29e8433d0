"""The distributed executor: a campaign fanned out over HTTP workers.

The coordinator (this process) submits every grid cell to a
:class:`~repro.exec.board.LeaseBoard` and then *observes*: remote
workers pull leases over HTTP (see :mod:`repro.exec.worker`), simulate,
and post results back; crashed workers are absorbed by lease expiry and
the cells re-queue for whoever is still alive.  The executor never
pushes work — idle workers steal it.

Two properties make the output indistinguishable from a serial run:

* **determinism** — every cell's result is a pure function of its
  scenario, so *which* worker ran it (and how many attempts it took)
  cannot change a byte of the result;
* **settled-prefix flush** — results settle on the board in whatever
  order workers finish, but the shared
  :func:`~repro.exec.board.settle` loop applies ``store.append`` in the
  caller's thread, strictly in grid order as the completed prefix
  grows, so the on-disk order is exactly the serial one and a failing
  store fails the call.

Retries, quarantine and the events that report them are the board's
and the settle loop's, shared with the supervised executor; this
executor only supplies the wait between passes (``board.wait``).

Cells are submitted by pairing key, so two campaigns sharing a board
dedup at lease time: a cell both need is simulated once and both
campaigns write the settled result (each from its own
:class:`RunResult` copy — provenance stamps don't bleed across).

With no ``board`` argument the executor **self-hosts**: it starts a
:class:`~repro.exec.coordinator.CoordinatorServer` on ``spec.bind`` and
optionally spawns ``spec.local_workers`` worker subprocesses — which is
how ``repro-caem run --executor distributed:local=2`` works with no
other process involved.  Each holds the read end of a pipe whose write
end only this process has, so the workers exit when the coordinator
closes the pipe or dies (see :func:`~repro.exec.worker.serve_coordinator`).
"""

from __future__ import annotations

import os
import subprocess
import sys
from typing import Any, List, Optional, Sequence, Tuple

from ..api.result import RunResult
from .base import CampaignExecutor, CellFailure, ExecutionHooks
from .board import LeaseBoard, settle
from .spec import ExecutorSpec
from .wire import scenario_to_wire

__all__ = ["DistributedExecutor"]


class DistributedExecutor(CampaignExecutor):
    """Observe a lease board until every submitted cell settles."""

    def __init__(self, spec: ExecutorSpec, board: Optional[LeaseBoard] = None):
        self.spec = spec
        self.board = board
        self._owns_board = board is None
        self._server = None
        self._local_procs: List[subprocess.Popen] = []
        if self._owns_board:
            self.board = LeaseBoard(lease_timeout_s=spec.lease_timeout_s)

    @property
    def allow_partial(self) -> bool:
        return self.spec.allow_partial

    # -- self-hosting --------------------------------------------------

    @property
    def url(self) -> Optional[str]:
        """The coordinator URL workers connect to (self-hosted only)."""
        return self._server.url if self._server is not None else None

    def _ensure_server(self) -> None:
        if not self._owns_board or self._server is not None:
            return
        from .coordinator import start_coordinator

        host, port = self.spec.bind_address()
        self._server = start_coordinator(host, port, self.board)
        for i in range(self.spec.local_workers):
            self._local_procs.append(self._spawn_local_worker(i))

    def _spawn_local_worker(self, index: int) -> subprocess.Popen:
        env = dict(os.environ)
        # Workers import repro; make sure they resolve the same tree.
        src = os.path.dirname(os.path.dirname(os.path.dirname(
            os.path.abspath(__file__))))
        env["PYTHONPATH"] = os.pathsep.join(
            [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
        )
        return subprocess.Popen(
            [
                sys.executable, "-c",
                "import sys; from repro.exec.worker import serve_coordinator;"
                " serve_coordinator(*sys.argv[1:])",
                self.url, f"local-{index}",
            ],
            env=env,
            stdin=subprocess.PIPE,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
        )

    # -- execution -----------------------------------------------------

    def execute(
        self,
        scenarios: Sequence,
        hooks: Optional[ExecutionHooks] = None,
    ) -> Tuple[List[Optional[Any]], List[CellFailure]]:
        self._ensure_server()
        board = self.board
        scenarios = list(scenarios)
        return settle(
            board, scenarios, [scenario_to_wire(sc) for sc in scenarios],
            hooks or ExecutionHooks(), self.spec.max_attempts,
            pump=lambda: board.wait(0.1), decode=RunResult.from_dict,
        )

    def close(self) -> None:
        for proc in self._local_procs:
            proc.stdin.close()  # EOF: the worker exits
        for proc in self._local_procs:
            try:
                proc.wait(timeout=5)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait(timeout=5)
        self._local_procs = []
        if self._server is not None:
            self._server.close()
            self._server = None
