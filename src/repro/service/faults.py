"""Fault injection: a seeded chaos layer for the campaign execution path.

Recovery code that is never exercised is recovery code that does not
work.  This module lets tests and the CI ``chaos-smoke`` gate *prove*
that campaign execution survives the failures the supervised executor
(:mod:`repro.exec.supervised`) and the run cache's resume
(:mod:`repro.service.cache`) exist for, instead of assuming it:

* **worker crashes** — a supervised worker process dies mid-cell with a
  hard ``os._exit`` (indistinguishable from a SIGKILL / OOM kill);
* **worker hangs** — a cell stalls long enough to trip the wall-clock
  watchdog;
* **torn store writes** — a JSONL append stops mid-record (what a power
  cut leaves behind), a SQLite batch dies before its COMMIT;
* **fsync failures** — the durability syscall itself errors.

Faults are **deterministic**: every decision is a pure function of
``(seed, site, key)`` — no RNG state, no ordering sensitivity — so a
test that injects a crash at cell X sees that crash at cell X on every
run, in every process, under any ``--executor``.  Retries pass a fresh attempt
number in the key, so "crash on attempt 1, succeed on attempt 2" is a
reproducible scenario rather than a coin flip.

Activation is by environment variable so the fault plan crosses process
boundaries into supervised worker children::

    REPRO_FAULTS='{"seed": 7, "worker_crash_rate": 0.3}' \
        repro-caem run fig8 --cache runs.sqlite \
            --executor supervised:retries=5

or, in-process and scoped, via :func:`inject_faults` (which also sets
the environment variable so spawned workers inherit the plan)::

    with inject_faults(FaultPlan(seed=7, worker_crash_rate=1.0)):
        ...

The default — no environment variable, no context — is a fast ``None``
from :func:`active_faults`; the production path pays one dict lookup.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import time
from dataclasses import asdict, dataclass, fields
from typing import Iterator, Optional

from ..errors import ReproError

__all__ = [
    "FAULTS_ENV",
    "FaultPlan",
    "FaultInjector",
    "InjectedFault",
    "active_faults",
    "inject_faults",
]

#: Environment variable holding the JSON-encoded :class:`FaultPlan`.
FAULTS_ENV = "REPRO_FAULTS"

#: Exit code a crash-injected worker dies with (mirrors SIGKILL's 137).
CRASH_EXIT_CODE = 137


class InjectedFault(ReproError, OSError):
    """An error raised *on purpose* by the fault layer.

    Subclasses :class:`OSError` so injected I/O failures travel the same
    ``except`` paths a real disk error would.
    """


@dataclass(frozen=True)
class FaultPlan:
    """Seeded failure rates for every injection site (all default off)."""

    #: Seed for the deterministic per-site decisions.
    seed: int = 0
    #: Probability a supervised worker hard-exits before simulating.
    worker_crash_rate: float = 0.0
    #: Probability a supervised worker stalls for :attr:`hang_s` first.
    worker_hang_rate: float = 0.0
    #: How long an injected hang sleeps (set it above the watchdog's
    #: ``cell_timeout_s`` to exercise the kill path).
    hang_s: float = 30.0
    #: Probability a store append writes a torn (truncated) record and
    #: fails — JSONL gets a partial trailing line, SQLite dies before
    #: COMMIT (the transaction must roll back cleanly).
    torn_write_rate: float = 0.0
    #: Probability the store's fsync raises :class:`InjectedFault`.
    fsync_fail_rate: float = 0.0

    def __post_init__(self) -> None:
        for f in fields(self):
            if f.name.endswith("_rate"):
                value = getattr(self, f.name)
                if not 0.0 <= value <= 1.0:
                    raise ReproError(f"fault rate {f.name}={value!r} must be in [0, 1]")
        if self.hang_s < 0:
            raise ReproError("hang_s must be >= 0")

    @property
    def any_enabled(self) -> bool:
        return any(
            getattr(self, f.name) > 0.0
            for f in fields(self)
            if f.name.endswith("_rate")
        )

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "FaultPlan":
        try:
            data = json.loads(text)
        except ValueError as exc:
            raise ReproError(
                f"{FAULTS_ENV} is not valid JSON: {exc}"
            ) from None
        if not isinstance(data, dict):
            raise ReproError(f"{FAULTS_ENV} must hold a JSON object")
        known = {f.name for f in fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ReproError(
                f"{FAULTS_ENV} names unknown fault knobs "
                f"{sorted(unknown)} (know {sorted(known)})"
            )
        return cls(**data)


class FaultInjector:
    """Evaluates a :class:`FaultPlan` at named injection sites."""

    def __init__(self, plan: FaultPlan):
        self.plan = plan

    # -- the deterministic coin ------------------------------------------------

    def roll(self, site: str, key: str, rate: float) -> bool:
        """True iff the fault fires at ``(site, key)`` under ``rate``.

        A pure function: SHA-256 of ``seed|site|key`` mapped to [0, 1)
        and compared against ``rate`` — identical in every process and
        at every parallelism.
        """
        if rate <= 0.0:
            return False
        digest = hashlib.sha256(
            f"{self.plan.seed}|{site}|{key}".encode()
        ).digest()
        return int.from_bytes(digest[:8], "big") / 2.0**64 < rate

    # -- worker sites (run inside supervised worker processes) -----------------

    def worker_entry(self, key: str) -> None:
        """Consulted by a supervised worker before it simulates its cell.

        May hard-exit the process (crash) or stall it (hang); the
        supervisor in the parent is expected to notice either and retry.
        """
        if self.roll("worker.hang", key, self.plan.worker_hang_rate):
            time.sleep(self.plan.hang_s)
        if self.roll("worker.crash", key, self.plan.worker_crash_rate):
            # A hard exit, not an exception: nothing is sent back over
            # the result pipe, exactly like a SIGKILL'd / OOM'd worker.
            os._exit(CRASH_EXIT_CODE)

    # -- store sites (run wherever rows are persisted) -------------------------

    def torn_write(self, key: str) -> bool:
        return self.roll("store.torn_write", key, self.plan.torn_write_rate)

    def check_fsync(self, key: str) -> None:
        if self.roll("store.fsync", key, self.plan.fsync_fail_rate):
            raise InjectedFault(f"injected fsync failure (site=store.fsync key={key})")


def active_faults() -> Optional[FaultInjector]:
    """The ambient fault injector, or ``None`` (the default: no faults).

    Read from :data:`FAULTS_ENV` on every call so supervised worker
    children — which inherit the environment, not the parent's Python
    state — see the same plan, and so tests that mutate the variable
    take effect immediately.
    """
    text = os.environ.get(FAULTS_ENV)
    if not text:
        return None
    plan = FaultPlan.from_json(text)
    return FaultInjector(plan) if plan.any_enabled else None


@contextlib.contextmanager
def inject_faults(plan: FaultPlan) -> Iterator[FaultInjector]:
    """Activate ``plan`` for this block (and any spawned workers)."""
    previous = os.environ.get(FAULTS_ENV)
    os.environ[FAULTS_ENV] = plan.to_json()
    try:
        yield FaultInjector(plan)
    finally:
        if previous is None:
            os.environ.pop(FAULTS_ENV, None)
        else:
            os.environ[FAULTS_ENV] = previous
