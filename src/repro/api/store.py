"""Result persistence: append :class:`RunResult` rows, reload them later.

A :class:`ResultStore` lets a campaign's raw runs outlive the process so
figures and tables can be re-rendered without re-simulating::

    store = ResultStore("results/fig10.jsonl")
    campaign.run(executor="pool:8", store=store)
    ...                                  # later / elsewhere
    runs = ResultStore("results/fig10.jsonl").load()

The file is JSON Lines (``.jsonl``): one JSON object per line, full
fidelity (time series included), round-tripping exactly through
:meth:`RunResult.to_dict`/:meth:`RunResult.from_dict`.

(The SQLite-backed :class:`repro.service.DbResultStore` implements the
same append/extend/load/iterate/``rows_for_digests`` interface with
indexed reads; use :func:`repro.service.open_store` to pick the backend
by suffix.)

Durability: JSONL appends are write-then-flush-then-fsync, and the reader
tolerates a torn trailing record (a writer killed mid-append leaves a
partial last line with no newline — it is skipped, every completed row
before it loads).  The next append cuts that fragment off before it
writes, so a resumed campaign never fuses it with a new record.  A
corrupt record *inside* the file still fails loudly.

Every written row carries ``format_version`` (see
:data:`STORE_FORMAT_VERSION`); reading a store written by an incompatible
(newer) version raises an :class:`~repro.errors.ExperimentError` with an
upgrade hint instead of a ``KeyError`` deep in re-rendering.  Rows with no
version field are pre-versioning stores (format 1 layout) and load fine.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import IO, Any, Dict, Iterable, Iterator, List, Sequence, Tuple, Union

from ..errors import ExperimentError
from .result import RunResult

__all__ = ["ResultStore", "STORE_FORMAT_VERSION", "check_format_version"]

#: Version stamped into every row this build writes.  Bump when the row
#: layout changes incompatibly (renamed/retyped fields); readers refuse
#: rows from a *newer* format loudly.
STORE_FORMAT_VERSION = 1

def _active_faults():
    """The ambient fault injector (chaos tests), or ``None``.

    Imported lazily so the api layer only touches the service tier when
    a fault plan is actually active-able; the production path is one
    environment lookup.
    """
    from ..service.faults import active_faults

    return active_faults()


def check_format_version(value: Any, source: Union[str, Path]) -> None:
    """Refuse rows written by an incompatible store format, loudly.

    ``None`` (no ``format_version`` field) means a pre-versioning store,
    whose layout is format 1 — accepted.  Anything newer than this build's
    :data:`STORE_FORMAT_VERSION` gets the upgrade hint instead of a
    ``KeyError`` when re-rendering reaches a field that moved.
    """
    if value is None:
        return
    try:
        version = int(value)
    except (TypeError, ValueError):
        raise ExperimentError(
            f"store {source} carries a malformed format_version "
            f"{value!r} (expected an integer)"
        ) from None
    if version < 1 or version > STORE_FORMAT_VERSION:
        raise ExperimentError(
            f"store {source} was written with format version {version}, "
            f"but this build reads versions 1..{STORE_FORMAT_VERSION} — "
            f"upgrade repro (pip install -U) to read it, or re-run the "
            f"campaign with this build to regenerate the store"
        )


def _seal_tail(fh: IO[bytes]) -> bytes:
    """Make a store opened for append end on a line boundary.

    Returns the bytes to write before the next record.  A last line
    without its newline is either a complete record, which the reader
    serves (terminate it: ``b"\\n"``), or the torn fragment of a writer
    killed mid-append, which the reader skips (cut it off).  Appending
    onto either would fuse it with the new record into one corrupt line
    mid-file.
    """
    end = fh.seek(0, os.SEEK_END)
    if end == 0:
        return b""
    fh.seek(end - 1)
    if fh.read(1) == b"\n":
        return b""
    # Rare (only after a kill): read the whole file, as every load does.
    fh.seek(0)
    data = fh.read()
    start = data.rfind(b"\n") + 1
    try:
        json.loads(data[start:])
    except ValueError:
        fh.truncate(start)
        return b""
    return b"\n"


class ResultStore:
    """Append-only JSONL store of :class:`RunResult` rows at one path."""

    format = "jsonl"

    def __init__(self, path: Union[str, Path]):
        self.path = Path(path)
        suffix = self.path.suffix.lower()
        if suffix != ".jsonl":
            raise ExperimentError(
                f"unsupported store format {suffix!r} (use .jsonl, or a "
                f".sqlite/.sqlite3/.db result database via "
                f"repro.service.open_store)"
            )

    # -- writing ---------------------------------------------------------------

    def append(self, run: RunResult) -> None:
        """Append one run (creates the file)."""
        self.extend([run])

    def extend(self, runs: Sequence[RunResult]) -> None:
        """Append many runs with a single open/write/fsync.

        The fsync makes the append crash-safe: once ``extend`` returns,
        the rows survive a killed process or a power cut, and a crash
        *during* the write leaves at most one torn trailing line, which
        the reader skips (earlier rows stay loadable) and the next
        ``extend`` cuts off before it writes.
        """
        if not runs:
            return
        faults = _active_faults()
        fault_key = (
            f"{runs[0].config_digest}|{runs[0].protocol}|"
            f"{runs[0].load_pps!r}|{runs[0].seed}|{len(runs)}"
        )
        self.path.parent.mkdir(parents=True, exist_ok=True)
        with self.path.open("a+b") as fh:
            lead = _seal_tail(fh)
            lines = []
            for run in runs:
                row = run.to_dict()
                row["format_version"] = STORE_FORMAT_VERSION
                lines.append((json.dumps(row) + "\n").encode())
            if faults is not None and faults.torn_write(fault_key):
                # Injected power-cut: all but the last record land,
                # the last stops mid-line with no newline — exactly
                # the torn tail the reader knows how to skip.
                fh.write(lead + b"".join(lines[:-1]))
                fh.write(lines[-1][: max(1, len(lines[-1]) // 2)])
                fh.flush()
                os.fsync(fh.fileno())
                from ..service.faults import InjectedFault

                raise InjectedFault(
                    f"injected torn JSONL append "
                    f"(site=store.torn_write key={fault_key})"
                )
            fh.write(lead + b"".join(lines))
            fh.flush()
            if faults is not None:
                faults.check_fsync(fault_key)
            os.fsync(fh.fileno())

    # -- reading ---------------------------------------------------------------

    def load(self) -> List[RunResult]:
        """Read every stored run back (empty list if the file is absent)."""
        return list(self)

    def __iter__(self) -> Iterator[RunResult]:
        for record in self._records():
            yield RunResult.from_dict(record)

    def rows_for_digests(
        self, digests: Iterable[str]
    ) -> List[Tuple[RunResult, int]]:
        """Cache read path: ``(run, payload_bytes)`` for these digests.

        One pass over the file, in file order; only the rows asked for
        become :class:`RunResult` objects.  The size is the row's JSON
        without its ``format_version``, the payload a
        :class:`~repro.service.DbResultStore` holds for the same row.
        """
        wanted = set(digests)
        return [
            (RunResult.from_dict(record), len(json.dumps(record).encode()))
            for record in self._records()
            if record.get("config_digest") in wanted
        ]

    def _records(self) -> Iterator[Dict[str, Any]]:
        """Every stored row as parsed JSON, ``format_version`` checked
        and removed (nothing if the file is absent)."""
        if not self.path.exists():
            return
        with self.path.open() as fh:
            for lineno, line in enumerate(fh, start=1):
                stripped = line.strip()
                if not stripped:
                    continue
                try:
                    data = json.loads(stripped)
                except ValueError:
                    if not line.endswith("\n"):
                        # Torn trailing record: the writer died mid-append
                        # (extend() only completes lines).  Every finished
                        # row before it is good — serve those.
                        return
                    raise ExperimentError(
                        f"corrupt record at {self.path}:{lineno} — the "
                        f"store is damaged mid-file (not a torn tail); "
                        f"re-run the campaign or trim the file manually"
                    ) from None
                check_format_version(
                    data.pop("format_version", None), self.path
                )
                yield data

    def __len__(self) -> int:
        return sum(1 for _ in self)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ResultStore({str(self.path)!r})"
