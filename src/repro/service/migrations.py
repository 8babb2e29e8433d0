"""Versioned schema for the result database, with a migration runner.

The schema version lives in SQLite's ``PRAGMA user_version`` (0 on a
fresh file).  :func:`ensure_schema` applies every migration past the
file's current version, in order, each inside one transaction — so a
database created by an older build upgrades in place the first time a
newer build opens it, and a database created by a *newer* build is
refused loudly instead of being misread.

Adding a migration: append ``(version, [statements...])`` to
:data:`MIGRATIONS` with the next integer version.  Never edit or reorder
shipped entries — files in the wild have already recorded their version.
"""

from __future__ import annotations

import sqlite3
from typing import List, Sequence, Tuple

from ..errors import ExperimentError

__all__ = ["MIGRATIONS", "SCHEMA_VERSION", "ensure_schema", "schema_version"]

#: Ordered ``(version, statements)`` pairs; versions are contiguous from 1.
MIGRATIONS: List[Tuple[int, Sequence[str]]] = [
    (
        1,
        [
            # The row store: scalar key columns for indexed lookups, the
            # full-fidelity RunResult JSON in `payload` (same bytes the
            # JSONL store would hold, so round-trips are exact).
            """
            CREATE TABLE runs (
                id             INTEGER PRIMARY KEY AUTOINCREMENT,
                experiment     TEXT,
                config_digest  TEXT    NOT NULL,
                seed           INTEGER NOT NULL,
                protocol       TEXT    NOT NULL,
                load_pps       REAL    NOT NULL,
                horizon_s      REAL    NOT NULL,
                n_nodes        INTEGER NOT NULL DEFAULT 0,
                format_version INTEGER NOT NULL,
                payload        TEXT    NOT NULL
            )
            """,
            # The service read path: browse by experiment, then narrow.
            """
            CREATE INDEX idx_runs_experiment
                ON runs (experiment, config_digest, seed)
            """,
        ],
    ),
    (
        2,
        [
            # The cache read path: digest-first lookup (the cache pairs
            # cells by config digest regardless of experiment stamp).
            """
            CREATE INDEX idx_runs_digest
                ON runs (config_digest, horizon_s)
            """,
        ],
    ),
    (
        3,
        [
            # Campaign manifests: kept so files of every version open,
            # but no longer written (stored rows alone say what is done).
            """
            CREATE TABLE manifests (
                fingerprint TEXT PRIMARY KEY,
                experiment  TEXT,
                updated_at  REAL NOT NULL,
                payload     TEXT NOT NULL
            )
            """,
        ],
    ),
]

#: The version a fully migrated database reports.
SCHEMA_VERSION = MIGRATIONS[-1][0]


def schema_version(conn: sqlite3.Connection) -> int:
    """The database file's recorded schema version (0 = fresh file)."""
    return int(conn.execute("PRAGMA user_version").fetchone()[0])


def ensure_schema(conn: sqlite3.Connection, source: str = "<db>") -> None:
    """Bring ``conn``'s database up to :data:`SCHEMA_VERSION`.

    No-op when already current; raises :class:`ExperimentError` when the
    file is *ahead* of this build (written by a newer version).
    """
    current = schema_version(conn)
    if current > SCHEMA_VERSION:
        raise ExperimentError(
            f"result database {source} has schema version {current}, but "
            f"this build knows versions up to {SCHEMA_VERSION} — upgrade "
            f"repro (pip install -U) to open it"
        )
    if current == SCHEMA_VERSION:
        return
    for version, statements in MIGRATIONS:
        if version <= current:
            continue
        # Explicit BEGIN..COMMIT: Python's sqlite3 module does not open
        # implicit transactions around DDL, and each migration step must
        # apply atomically with its version stamp (user_version is
        # transactional in SQLite).  Connections here run in autocommit
        # (isolation_level=None — see DbResultStore._connect).
        conn.execute("BEGIN IMMEDIATE")
        try:
            for statement in statements:
                conn.execute(statement)
            conn.execute(f"PRAGMA user_version = {version}")
        except BaseException:
            conn.execute("ROLLBACK")
            raise
        conn.execute("COMMIT")
