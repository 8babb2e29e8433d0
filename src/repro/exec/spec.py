"""``ExecutorSpec``: the one value that names *how* a campaign executes.

A spec is a declarative record that travels everywhere a campaign does:
``Campaign.run(executor=...)``, ``run_scenarios(executor=...)``, the CLI
``--executor`` flag, and the campaign server's ``"executor"`` key.

The four kinds::

    ExecutorSpec(kind="serial")                       # in-process, one cell at a time
    ExecutorSpec(kind="pool", jobs=4)                 # the worker pool, no retries
    ExecutorSpec(kind="supervised", jobs=2,
                 cell_timeout_s=30.0, retries=2)      # watchdog/retry/quarantine
    ExecutorSpec(kind="distributed",
                 bind="127.0.0.1:8400",
                 lease_timeout_s=30.0, retries=2,
                 local_workers=2)                     # multi-host work-stealing

``pool`` and ``supervised`` are one executor, a pool of ``jobs``
forked workers kept for the whole grid
(:class:`~repro.exec.supervised.SupervisedExecutor`); they differ only
in their default ``retries``, and ``pool`` at ``jobs=1`` runs serially.

Each has a compact string form for the CLI and JSON specs —
``"serial"``, ``"pool:4"``, ``"supervised:jobs=2,timeout=30,retries=1"``,
``"distributed:bind=127.0.0.1:8400,local=2"`` — parsed by
:meth:`ExecutorSpec.parse`.  Mistyped values (``"jobs": "4"``,
``"allow_partial": "no"``, ``partial=ture``) are rejected with an
:class:`~repro.errors.ExperimentError`, never guessed at.

:func:`use_executor` installs a spec (or a live executor) ambiently —
the same ContextVar pattern as ``use_run_cache`` — so the CLI's
``--executor`` flag reaches every registered experiment without
signature changes.
"""

from __future__ import annotations

import contextlib
import contextvars
import dataclasses
import random
from dataclasses import dataclass
from typing import Any, Dict, Optional, Tuple, Union

from ..errors import ExperimentError

__all__ = [
    "ExecutorSpec",
    "EXECUTOR_KINDS",
    "use_executor",
    "active_executor",
]

EXECUTOR_KINDS = ("serial", "pool", "supervised", "distributed")

#: Compact-form key aliases accepted by :meth:`ExecutorSpec.parse`.
_PARSE_ALIASES = {
    "jobs": "jobs",
    "timeout": "cell_timeout_s",
    "cell_timeout_s": "cell_timeout_s",
    "retries": "retries",
    "seed": "seed",
    "partial": "allow_partial",
    "allow_partial": "allow_partial",
    "bind": "bind",
    "lease": "lease_timeout_s",
    "lease_timeout_s": "lease_timeout_s",
    "local": "local_workers",
    "local_workers": "local_workers",
}

_FLOAT_FIELDS = ("cell_timeout_s", "lease_timeout_s",
                 "backoff_base_s", "backoff_cap_s")
_INT_FIELDS = ("jobs", "retries", "seed", "local_workers")
_BOOL_FIELDS = ("allow_partial",)
#: Fields where ``None`` means "the kind's default".
_OPTIONAL_FIELDS = ("cell_timeout_s", "retries")
#: Spellings :meth:`ExecutorSpec.parse` accepts for a boolean option.
_BOOL_WORDS = {
    "true": True, "1": True, "yes": True, "on": True,
    "false": False, "0": False, "no": False, "off": False,
}


@dataclass(frozen=True)
class ExecutorSpec:
    """Declarative execution policy for one campaign (or a whole session).

    Only the fields a kind consults matter to it: ``jobs`` is the
    worker-process count (pool, supervised);
    ``cell_timeout_s``/``retries``/backoff fields drive the worker
    pool's watchdog and retries; ``bind``/``lease_timeout_s``/
    ``local_workers`` configure the distributed coordinator.
    ``retries`` counts attempts *beyond* the first (``None`` means the
    kind's default: 0 for pool, 2 for supervised and distributed).
    """

    kind: str = "serial"
    #: Concurrent worker processes (pool, supervised).
    jobs: int = 1
    #: Per-cell wall-clock watchdog (pool, supervised); ``None`` = none.
    cell_timeout_s: Optional[float] = None
    #: Retries beyond the first attempt; ``None`` = the kind's default
    #: (0 for pool, 2 for supervised and distributed).
    retries: Optional[int] = None
    #: Capped-exponential retry backoff (pool, supervised).
    backoff_base_s: float = 0.25
    backoff_cap_s: float = 8.0
    #: Seed for the deterministic backoff jitter.
    seed: int = 0
    #: Return ``None`` slots for quarantined cells instead of raising.
    allow_partial: bool = False
    #: Distributed: ``host:port`` the self-hosted coordinator binds
    #: (port 0 picks a free port; ignored when attached to a server).
    bind: str = "127.0.0.1:0"
    #: Distributed: a lease not heartbeat-renewed within this window
    #: expires and its cell returns to pending.
    lease_timeout_s: float = 30.0
    #: Distributed: loopback worker subprocesses (the ``repro-caem
    #: worker`` loop) the executor spawns and reaps itself, and which exit
    #: with it — handy for single-command multi-core runs and CI smoke
    #: tests.
    local_workers: int = 0

    def __post_init__(self) -> None:
        for field in dataclasses.fields(self):
            _check_type(field.name, getattr(self, field.name))
        if self.kind not in EXECUTOR_KINDS:
            raise ExperimentError(
                f"unknown executor kind {self.kind!r}; "
                f"know {', '.join(EXECUTOR_KINDS)}"
            )
        if self.jobs < 1:
            raise ExperimentError("executor jobs must be >= 1")
        if self.cell_timeout_s is not None and self.cell_timeout_s <= 0:
            raise ExperimentError("cell_timeout_s must be > 0 (or None)")
        if self.retries is not None and self.retries < 0:
            raise ExperimentError("retries must be >= 0")
        if self.lease_timeout_s <= 0:
            raise ExperimentError("lease_timeout_s must be > 0")
        if self.local_workers < 0:
            raise ExperimentError("local_workers must be >= 0")
        if self.backoff_base_s < 0 or self.backoff_cap_s < 0:
            raise ExperimentError("backoff delays must be >= 0")

    # -- derived views ---------------------------------------------------------

    @property
    def max_attempts(self) -> int:
        """Total attempts per cell (first try + retries)."""
        default = 0 if self.kind == "pool" else 2
        return (default if self.retries is None else self.retries) + 1

    def backoff_delay(self, index: int, attempt: int) -> float:
        """The deterministic retry delay after ``attempt`` of cell
        ``index`` failed (pool, supervised).

        Capped exponential with jitter in [50%, 100%] of the nominal
        delay; a pure function of ``(seed, index, attempt)`` so recovery
        schedules replay identically in tests.
        """
        nominal = min(
            self.backoff_cap_s, self.backoff_base_s * (2 ** (attempt - 1))
        )
        rng = random.Random(
            self.seed * 1_000_003 + index * 10_007 + attempt
        )
        return nominal * (0.5 + rng.random() / 2)

    def bind_address(self) -> Tuple[str, int]:
        host, _, port = self.bind.rpartition(":")
        if not host or not port.isdigit():
            raise ExperimentError(
                f"bad distributed bind address {self.bind!r} "
                f"(expected host:port)"
            )
        return host, int(port)

    # -- construction ----------------------------------------------------------

    @classmethod
    def normalize(
        cls, value: Union["ExecutorSpec", str, Dict[str, Any]]
    ) -> "ExecutorSpec":
        """Coerce any accepted spelling — spec, compact string, JSON dict
        (the campaign server's ``"executor"`` key) — into a spec."""
        if isinstance(value, cls):
            return value
        if isinstance(value, str):
            return cls.parse(value)
        if isinstance(value, dict):
            return cls.from_dict(value)
        raise ExperimentError(
            f"cannot interpret {value!r} as an executor (expected an "
            f"ExecutorSpec, a string like 'pool:4', or a JSON object)"
        )

    @classmethod
    def parse(cls, text: str) -> "ExecutorSpec":
        """Parse the compact CLI form: ``kind[:key=value,...]``.

        ``pool:4`` is shorthand for ``pool:jobs=4``.  Keys: ``jobs``,
        ``timeout`` (cell watchdog seconds), ``retries``, ``seed``,
        ``partial``, ``bind`` (host:port), ``lease`` (seconds),
        ``local`` (loopback worker subprocesses).
        """
        text = text.strip()
        kind, _, rest = text.partition(":")
        kind = kind.strip()
        if kind not in EXECUTOR_KINDS:
            raise ExperimentError(
                f"unknown executor kind {kind!r}; know "
                f"{', '.join(EXECUTOR_KINDS)} "
                f"(e.g. 'pool:4', 'distributed:bind=127.0.0.1:8400,local=2')"
            )
        fields: Dict[str, Any] = {"kind": kind}
        rest = rest.strip()
        if rest and "=" not in rest and "," not in rest:
            # Bare count shorthand: pool:4 / supervised:2.
            fields["jobs"] = _coerce("jobs", rest)
            rest = ""
        for part in filter(None, (p.strip() for p in rest.split(","))):
            key, eq, value = part.partition("=")
            key = key.strip()
            if not eq or key not in _PARSE_ALIASES:
                raise ExperimentError(
                    f"bad executor option {part!r}; know "
                    f"{', '.join(sorted(set(_PARSE_ALIASES)))}"
                )
            field = _PARSE_ALIASES[key]
            fields[field] = _coerce(field, value.strip())
        return cls(**fields)

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "ExecutorSpec":
        """Build from a JSON object (unknown keys and mistyped values
        rejected loudly)."""
        known = {f.name for f in dataclasses.fields(cls)}
        bad = set(data) - known
        if bad:
            raise ExperimentError(
                f"unknown executor fields {sorted(bad)}; know "
                f"{sorted(known)}"
            )
        return cls(**data)

    # -- serialisation ---------------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        """JSON-safe view (defaults omitted for compact specs)."""
        out: Dict[str, Any] = {"kind": self.kind}
        for field in dataclasses.fields(self):
            if field.name == "kind":
                continue
            value = getattr(self, field.name)
            if value != field.default:
                out[field.name] = value
        return out

    def describe(self) -> str:
        parts = [self.kind]
        if self.kind == "pool" or (self.kind == "supervised" and self.jobs > 1):
            parts.append(f"jobs={self.jobs}")
        if self.kind in ("supervised", "distributed"):
            parts.append(f"retries={self.max_attempts - 1}")
            if self.cell_timeout_s is not None:
                parts.append(f"timeout={self.cell_timeout_s:g}s")
        if self.kind == "distributed":
            parts.append(f"lease={self.lease_timeout_s:g}s")
            if self.local_workers:
                parts.append(f"local={self.local_workers}")
        return " ".join(parts)


def _coerce(field: str, value: str) -> Any:
    """A compact-form option's text as its field's type."""
    try:
        if field in _INT_FIELDS:
            return int(value)
        if field in _FLOAT_FIELDS:
            return float(value)
        if field in _BOOL_FIELDS:
            return _BOOL_WORDS[value.lower()]
    except (KeyError, ValueError):
        raise ExperimentError(
            f"bad value {value!r} for executor option {field!r}"
        ) from None
    return value


def _check_type(field: str, value: Any) -> None:
    """Reject a field value of the wrong JSON type (bools are not ints)."""
    if value is None and field in _OPTIONAL_FIELDS:
        return
    if field in _INT_FIELDS:
        ok, expected = isinstance(value, int), "an integer"
    elif field in _FLOAT_FIELDS:
        ok, expected = isinstance(value, (int, float)), "a number"
    elif field in _BOOL_FIELDS:
        ok, expected = isinstance(value, bool), "true or false"
    else:
        ok, expected = isinstance(value, str), "a string"
    if not ok or (isinstance(value, bool) and field not in _BOOL_FIELDS):
        raise ExperimentError(
            f"executor field {field!r} must be {expected}, got {value!r}"
        )


#: The ambient executor (see :func:`use_executor`): an ExecutorSpec or a
#: live CampaignExecutor instance.
_ACTIVE_EXECUTOR: contextvars.ContextVar = contextvars.ContextVar(
    "repro_executor", default=None
)


@contextlib.contextmanager
def use_executor(executor):
    """Route every campaign execution in this context through
    ``executor`` — an :class:`ExecutorSpec`, its compact string form, or
    a live :class:`~repro.exec.base.CampaignExecutor`.

    When given a spec (or string) the executor backend is instantiated
    once and closed on exit, so a distributed spec keeps one coordinator
    (and its spawned local workers) alive across every experiment the
    context runs — this is what the CLI's ``--executor`` flag wraps the
    whole command in.  A live instance is used as-is and left open.
    """
    from .base import CampaignExecutor, get_executor

    created = None
    if executor is not None and not isinstance(executor, CampaignExecutor):
        executor = created = get_executor(ExecutorSpec.normalize(executor))
    token = _ACTIVE_EXECUTOR.set(executor)
    try:
        yield executor
    finally:
        _ACTIVE_EXECUTOR.reset(token)
        if created is not None:
            created.close()


def active_executor():
    """The executor installed by :func:`use_executor`, or ``None``."""
    return _ACTIVE_EXECUTOR.get()
