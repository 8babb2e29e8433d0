"""The service result database: schema, migrations, fidelity, concurrency."""

import json
import sqlite3
import threading

import pytest

from repro.api import ResultStore, RunResult
from repro.errors import ExperimentError
from repro.service import (
    SCHEMA_VERSION,
    DbResultStore,
    ensure_schema,
    open_store,
    parse_predicate,
    query_runs,
    schema_version,
)
from repro.service.migrations import MIGRATIONS


def _run(seed=1, digest="d" * 64, experiment=None, protocol="scheme1",
         load=5.0, **extra):
    extra.setdefault("delivery_rate", 0.9)
    extra.setdefault("delivered", 90)
    return RunResult(
        protocol=protocol,
        seed=seed,
        load_pps=load,
        horizon_s=30.0,
        n_nodes=12,
        config_digest=digest,
        experiment=experiment,
        sample_times_s=[1.0, 2.0, 3.0],
        mean_energy_j=[0.5, 0.25, 0.125],
        alive_counts=[12, 12, 11],
        generated=100,
        **extra,
    )


class TestOpenStore:
    def test_suffix_routing(self, tmp_path):
        assert isinstance(open_store(tmp_path / "a.sqlite"), DbResultStore)
        assert isinstance(open_store(tmp_path / "a.db"), DbResultStore)
        assert isinstance(open_store(tmp_path / "a.jsonl"), ResultStore)
        with pytest.raises(ExperimentError, match="unsupported store format"):
            open_store(tmp_path / "a.csv")
        assert not (tmp_path / "a.csv").exists()

    def test_bad_suffix_refused(self, tmp_path):
        with pytest.raises(ExperimentError, match="suffix"):
            DbResultStore(tmp_path / "a.txt")

    def test_migrate_into_csv_is_refused_and_creates_nothing(
        self, tmp_path, monkeypatch, capsys
    ):
        from repro.cli import main

        monkeypatch.chdir(tmp_path)
        DbResultStore("a.sqlite").append(_run())
        before = sorted(tmp_path.iterdir())
        assert main(["migrate", "a.sqlite", "b.csv"]) == 1
        assert "unsupported store format '.csv'" in capsys.readouterr().err
        assert sorted(tmp_path.iterdir()) == before


class TestReadOnlyCommands:
    """Commands that only read a store refuse a missing path instead of
    creating an empty database there and reporting 0 rows."""

    @pytest.mark.parametrize(
        "argv",
        [
            ("query", "typo/missing.db"),
            ("migrate", "typo/missing.sqlite", "out.jsonl"),
            ("run", "fig11", "--preset", "smoke", "--from", "missing.sqlite"),
        ],
        ids=["query", "migrate", "run-from"],
    )
    def test_missing_store_is_an_error_and_creates_nothing(
        self, tmp_path, monkeypatch, capsys, argv
    ):
        from repro.cli import main

        monkeypatch.chdir(tmp_path)
        assert main(list(argv)) == 1
        missing = next(a for a in argv if "missing" in a)
        assert f"error: no such result store: {missing}" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_failed_migrate_leaves_no_destination(
        self, tmp_path, monkeypatch, capsys
    ):
        from repro.cli import main

        monkeypatch.chdir(tmp_path)
        (tmp_path / "bad.jsonl").write_text("{not json\n")
        assert main(["migrate", "bad.jsonl", "out.sqlite"]) == 1
        assert "corrupt record at bad.jsonl:1" in capsys.readouterr().err
        assert not (tmp_path / "out.sqlite").exists()

    def test_from_names_every_missing_cell_and_writes_nothing(
        self, tmp_path, monkeypatch, capsys
    ):
        from repro.cli import main

        monkeypatch.chdir(tmp_path)
        fig8 = ["run", "fig8", "--preset", "smoke"]
        assert main(fig8 + ["--cache", "runs.jsonl"]) == 0
        assert main(["migrate", "runs.jsonl", "runs.sqlite"]) == 0
        capsys.readouterr()
        for store in ("runs.jsonl", "runs.sqlite"):
            before = (tmp_path / store).read_bytes()
            argv = fig8 + ["--seeds", "1", "2", "--from", store]
            assert main(argv) == 1
            out, err = capsys.readouterr()
            assert out == ""
            assert "experiment=fig8; missing:" in err
            cells = [line for line in err.splitlines() if line.startswith("  - ")]
            assert [cell.split()[1:4] for cell in cells] == [
                ["protocol=pure_leach", "load=5", "seed=2"],
                ["protocol=scheme1", "load=5", "seed=2"],
                ["protocol=scheme2", "load=5", "seed=2"],
            ]
            assert (tmp_path / store).read_bytes() == before


class TestDbResultStore:
    def test_round_trip_full_fidelity(self, tmp_path):
        store = DbResultStore(tmp_path / "runs.sqlite")
        original = _run(experiment="fig8")
        store.append(original)
        (loaded,) = store.load()
        assert loaded.to_dict() == original.to_dict()
        assert len(store) == 1

    def test_insertion_order_preserved(self, tmp_path):
        store = DbResultStore(tmp_path / "runs.sqlite")
        runs = [_run(seed=s, digest=f"{s:064x}") for s in (3, 1, 2)]
        store.extend(runs)
        assert [r.seed for r in store] == [3, 1, 2]

    def test_query_pushdown_filters(self, tmp_path):
        store = DbResultStore(tmp_path / "runs.sqlite")
        store.extend([
            _run(seed=1, digest="a" * 64, experiment="fig8"),
            _run(seed=2, digest="a" * 64, experiment="fig8"),
            _run(seed=1, digest="b" * 64, experiment="fig10",
                 protocol="pure_leach"),
        ])
        assert len(store.query(experiment="fig8")) == 2
        assert len(store.query(experiment="fig8", seed=2)) == 1
        assert len(store.query(config_digest="b" * 64)) == 1
        assert len(store.query(protocol="pure_leach")) == 1
        assert len(store.query(experiment="nope")) == 0
        assert len(store.query(limit=2)) == 2

    def test_rows_for_digests_reports_sizes(self, tmp_path):
        store = DbResultStore(tmp_path / "runs.sqlite")
        run = _run(digest="a" * 64)
        store.append(run)
        store.append(_run(digest="b" * 64))
        rows = store.rows_for_digests({"a" * 64})
        assert len(rows) == 1
        loaded, nbytes = rows[0]
        assert loaded.config_digest == "a" * 64
        assert nbytes == len(json.dumps(run.to_dict()).encode())
        assert store.rows_for_digests(set()) == []

    def test_import_export_jsonl(self, tmp_path):
        jsonl = ResultStore(tmp_path / "runs.jsonl")
        jsonl.extend([_run(seed=s, digest=f"{s:064x}") for s in (1, 2)])
        db = DbResultStore(tmp_path / "runs.sqlite")
        db.extend(jsonl.load())
        assert [r.to_dict() for r in db] == [r.to_dict() for r in jsonl]
        out = ResultStore(tmp_path / "export.jsonl")
        out.extend(db.load())
        assert [r.to_dict() for r in out] == [r.to_dict() for r in db]

    def test_wal_mode_enabled(self, tmp_path):
        store = DbResultStore(tmp_path / "runs.sqlite")
        store.append(_run())
        conn = sqlite3.connect(str(store.path))
        try:
            mode = conn.execute("PRAGMA journal_mode").fetchone()[0]
        finally:
            conn.close()
        assert mode.lower() == "wal"


class TestMigrations:
    def test_fresh_db_is_current(self, tmp_path):
        store = DbResultStore(tmp_path / "runs.sqlite")
        conn = sqlite3.connect(str(store.path))
        try:
            assert schema_version(conn) == SCHEMA_VERSION
        finally:
            conn.close()

    def test_stepwise_upgrade_from_v1(self, tmp_path):
        # Build a version-1 file by hand (what an old build would leave).
        path = tmp_path / "old.sqlite"
        conn = sqlite3.connect(str(path), isolation_level=None)
        version, statements = MIGRATIONS[0]
        assert version == 1
        for statement in statements:
            conn.execute(statement)
        conn.execute("PRAGMA user_version = 1")
        conn.execute(
            "INSERT INTO runs (experiment, config_digest, seed, protocol,"
            " load_pps, horizon_s, n_nodes, format_version, payload)"
            " VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?)",
            ("fig8", "c" * 64, 1, "scheme1", 5.0, 30.0, 12, 1,
             json.dumps(_run(digest="c" * 64).to_dict())),
        )
        conn.close()
        # Opening with the current build upgrades in place, keeping rows.
        store = DbResultStore(path)
        assert len(store) == 1
        conn = sqlite3.connect(str(path))
        try:
            assert schema_version(conn) == SCHEMA_VERSION
            indexes = {
                row[0] for row in conn.execute(
                    "SELECT name FROM sqlite_master WHERE type='index'"
                )
            }
        finally:
            conn.close()
        assert "idx_runs_digest" in indexes  # migration 2 applied

    def test_newer_schema_refused_loudly(self, tmp_path):
        path = tmp_path / "future.sqlite"
        conn = sqlite3.connect(str(path))
        conn.execute(f"PRAGMA user_version = {SCHEMA_VERSION + 7}")
        conn.commit()
        conn.close()
        with pytest.raises(ExperimentError, match="upgrade repro"):
            DbResultStore(path)

    def test_runner_is_idempotent(self, tmp_path):
        path = tmp_path / "runs.sqlite"
        DbResultStore(path)
        conn = sqlite3.connect(str(path), isolation_level=None)
        try:
            ensure_schema(conn)  # second pass: no-op, no error
            assert schema_version(conn) == SCHEMA_VERSION
        finally:
            conn.close()


class TestFormatVersion:
    def test_newer_row_format_refused(self, tmp_path):
        store = DbResultStore(tmp_path / "runs.sqlite")
        store.append(_run())
        conn = sqlite3.connect(str(store.path))
        conn.execute("UPDATE runs SET format_version = 99")
        conn.commit()
        conn.close()
        with pytest.raises(ExperimentError, match="format version 99"):
            store.load()


class TestQueryRuns:
    def test_predicates_and_key_filters(self, tmp_path):
        store = DbResultStore(tmp_path / "runs.sqlite")
        store.extend([
            _run(seed=1, digest="a" * 64, experiment="fig8",
                 delivery_rate=0.95),
            _run(seed=2, digest="b" * 64, experiment="fig8",
                 delivery_rate=0.40),
        ])
        rows = query_runs(
            store, experiment="fig8",
            where=[parse_predicate("delivery_rate>0.9")],
        )
        assert [r.seed for r in rows] == [1]
        # Same result off a JSONL store (no indexed key filter).
        jsonl = ResultStore(tmp_path / "runs.jsonl")
        jsonl.extend(store.load())
        rows2 = query_runs(
            jsonl, experiment="fig8",
            where=[parse_predicate("delivery_rate>0.9")],
        )
        assert [r.to_dict() for r in rows2] == [r.to_dict() for r in rows]

    def test_limit_applies_after_predicates(self, tmp_path):
        store = DbResultStore(tmp_path / "runs.sqlite")
        store.extend([
            _run(seed=s, digest=f"{s:064x}", delivery_rate=0.9 + s / 100)
            for s in range(1, 6)
        ])
        rows = query_runs(
            store, where=[parse_predicate("seed>=2")], limit=2,
        )
        assert [r.seed for r in rows] == [2, 3]


class TestConcurrentAccess:
    def test_wal_reader_sees_consistent_rows_during_writes(self, tmp_path):
        """A reader polling while a writer appends never errors and only
        ever sees fully committed batches (WAL snapshot isolation)."""
        store = DbResultStore(tmp_path / "runs.sqlite")
        batches = 20
        batch_size = 5
        errors = []
        seen_counts = []
        done = threading.Event()

        def reader():
            try:
                while not done.is_set():
                    seen_counts.append(len(store))
            except Exception as exc:  # noqa: BLE001 - reported to assert
                errors.append(exc)

        thread = threading.Thread(target=reader)
        thread.start()
        try:
            for b in range(batches):
                store.extend([
                    _run(seed=b * batch_size + i,
                         digest=f"{b * batch_size + i:064x}")
                    for i in range(batch_size)
                ])
        finally:
            done.set()
            thread.join(timeout=10.0)
        assert not errors
        # Counts only ever land on committed batch boundaries and grow
        # monotonically (each extend() is one transaction).
        assert all(count % batch_size == 0 for count in seen_counts)
        assert seen_counts == sorted(seen_counts)
        assert len(store) == batches * batch_size


class TestAggregation:
    def _populate(self, store):
        rows = []
        for seed in (1, 2, 3):
            for proto, rate in (("scheme1", 0.9), ("pure_leach", 0.6)):
                rows.append(_run(
                    seed=seed, protocol=proto,
                    digest=f"{proto}-{seed}".ljust(64, "0"),
                    delivery_rate=rate + seed / 100.0,
                    mean_delay_s=0.1 * seed,
                ))
        store.extend(rows)
        return rows

    def _order_sensitive(self, store):
        """Rows whose float sum depends on the order it is taken in.

        Inserted as 0.1, 0.2, 0.3; the database's experiment index holds
        them by digest, as 0.3, 0.2, 0.1, and
        ``(0.1 + 0.2) + 0.3 != (0.3 + 0.2) + 0.1`` in plain float
        addition.  ``delivered`` is an integer field.
        """
        store.extend([
            _run(seed=1, digest="c" * 64, experiment="fig8",
                 first_death_s=0.1, delivered=11117),
            _run(seed=1, digest="b" * 64, experiment="fig8",
                 first_death_s=0.2, delivered=9000),
            _run(seed=1, digest="a" * 64, experiment="fig8",
                 first_death_s=0.3, delivered=10001),
        ])

    def test_sql_and_python_paths_agree(self, tmp_path):
        """A database and its JSONL copy reduce to equal groups: one
        reducer, rows in insertion order, integers kept as integers."""
        from repro.service import aggregate_runs

        db = DbResultStore(tmp_path / "r.sqlite")
        self._populate(db)
        self._order_sensitive(db)
        flat = ResultStore(tmp_path / "r.jsonl")
        flat.extend(db.load())
        for group_by in (["protocol"], ["experiment"]):
            for agg in ("mean", "min", "max", "sum"):
                from_db = aggregate_runs(
                    db, group_by, agg=agg,
                    metrics=["delivery_rate", "first_death_s", "delivered"],
                )
                from_jsonl = aggregate_runs(
                    flat, group_by, agg=agg,
                    metrics=["delivery_rate", "first_death_s", "delivered"],
                )
                assert from_db == from_jsonl
                if agg != "mean":
                    assert all(
                        isinstance(g["delivered"], int) for g in from_db
                    )
        (fig8,) = [
            g for g in aggregate_runs(
                db, ["experiment"], agg="sum", metrics=["first_death_s"]
            )
            if g["experiment"] == "fig8"
        ]
        assert fig8["first_death_s"] == sum([0.1, 0.2, 0.3])

    @pytest.mark.parametrize(
        "options",
        [
            ("--agg", "max", "--group-by", "protocol",
             "--columns", "delivered"),
            ("--agg", "sum", "--group-by", "experiment",
             "--columns", "first_death_s", "delivered"),
        ],
        ids=["max-int", "sum-float"],
    )
    @pytest.mark.parametrize("out_format", ["table", "jsonl"])
    def test_cli_agg_prints_the_same_bytes_from_a_database_and_its_copy(
        self, tmp_path, monkeypatch, capsys, options, out_format
    ):
        from repro.cli import main

        monkeypatch.chdir(tmp_path)
        db = DbResultStore("r.sqlite")
        self._populate(db)
        self._order_sensitive(db)
        assert main(["migrate", "r.sqlite", "r.jsonl"]) == 0
        capsys.readouterr()
        printed = []
        for store in ("r.sqlite", "r.jsonl"):
            argv = ["query", store, *options, "--format", out_format]
            assert main(argv) == 0
            printed.append(capsys.readouterr().out)
        assert printed[0] == printed[1]
        if options[1] == "max":
            assert "11117" in printed[0]

    def test_mean_over_seeds(self, tmp_path):
        from repro.service import aggregate_runs

        db = DbResultStore(tmp_path / "r.sqlite")
        self._populate(db)
        (grp,) = aggregate_runs(
            db, ["protocol"], agg="mean", metrics=["delivery_rate"],
            protocol="scheme1",
        )
        assert grp["delivery_rate"] == pytest.approx(0.92)

    def test_none_metrics_skipped_not_zeroed(self, tmp_path):
        from repro.service import aggregate_runs

        db = DbResultStore(tmp_path / "r.sqlite")
        db.extend([
            _run(seed=1, lifetime_s=None),
            _run(seed=2, digest="e" * 64, lifetime_s=30.0),
        ])
        (grp,) = aggregate_runs(
            db, ["protocol"], agg="mean", metrics=["lifetime_s"]
        )
        # None metrics are skipped, not counted as zero.
        assert grp["lifetime_s"] == pytest.approx(30.0)
        assert grp["n"] == 2

    def test_where_predicates_force_python_path(self, tmp_path):
        from repro.service import aggregate_runs

        db = DbResultStore(tmp_path / "r.sqlite")
        self._populate(db)
        groups = aggregate_runs(
            db, ["protocol"], agg="mean", metrics=["delivery_rate"],
            where=[parse_predicate("delivery_rate>0.8")],
        )
        (grp,) = groups
        assert grp["protocol"] == "scheme1"
        assert grp["n"] == 3

    def test_group_aliases_and_validation(self, tmp_path):
        from repro.service import aggregate_runs

        db = DbResultStore(tmp_path / "r.sqlite")
        self._populate(db)
        groups = aggregate_runs(
            db, ["load"], agg="mean", metrics=["delivery_rate"]
        )
        assert groups[0]["load_pps"] == 5.0
        with pytest.raises(ExperimentError, match="group"):
            aggregate_runs(db, ["payload"], agg="mean")
        with pytest.raises(ExperimentError, match="aggregate"):
            aggregate_runs(db, ["protocol"], agg="median")
        with pytest.raises(ExperimentError, match="unknown RunResult"):
            aggregate_runs(db, ["protocol"], metrics=["nope"])


class TestGc:
    def test_keeps_latest_generation_per_cell(self, tmp_path):
        from repro.service import collect_garbage

        db = DbResultStore(tmp_path / "r.sqlite")
        old = _run(seed=1, delivery_rate=0.1)
        new = _run(seed=1, delivery_rate=0.9)
        other = _run(seed=2, digest="e" * 64)
        db.extend([old, new, other])
        report = collect_garbage(db, keep_latest=1)
        assert report["deleted"] == 1
        assert report["groups"] == 2
        kept = db.load()
        assert len(kept) == 2
        # The *newest* generation of the duplicated cell survives.
        assert {r.delivery_rate for r in kept} == {0.9, other.delivery_rate}

    def test_distinct_cells_never_evicted(self, tmp_path):
        from repro.service import collect_garbage

        db = DbResultStore(tmp_path / "r.sqlite")
        db.extend([
            _run(seed=s, digest=f"{s:064x}", experiment=exp)
            for s in (1, 2) for exp in (None, "fig8")
        ])
        report = collect_garbage(db, keep_latest=1)
        assert report["deleted"] == 0
        assert len(db) == 4

    def test_keep_latest_k_and_dry_run(self, tmp_path):
        from repro.service import collect_garbage

        db = DbResultStore(tmp_path / "r.sqlite")
        db.extend([_run(seed=1, delivery_rate=i / 10.0) for i in range(5)])
        dry = collect_garbage(db, keep_latest=2, dry_run=True)
        assert dry["deleted"] == 3 and len(db) == 5
        assert dry["bytes_after"] == dry["bytes_before"]
        wet = collect_garbage(db, keep_latest=2)
        assert wet["deleted"] == 3 and len(db) == 2
        assert [r.delivery_rate for r in db.load()] == [0.3, 0.4]

    def test_reclaims_file_bytes(self, tmp_path):
        from repro.service import collect_garbage

        db = DbResultStore(tmp_path / "r.sqlite")
        db.extend([_run(seed=1) for _ in range(200)])
        report = collect_garbage(db, keep_latest=1)
        assert report["deleted"] == 199
        assert report["reclaimed_bytes"] > 0
        assert report["bytes_after"] < report["bytes_before"]

    def test_guards(self, tmp_path):
        from repro.service import collect_garbage

        with pytest.raises(ExperimentError, match="keep-latest"):
            collect_garbage(tmp_path / "r.sqlite", keep_latest=0)
        with pytest.raises(ExperimentError, match="no such"):
            collect_garbage(tmp_path / "missing.sqlite")
