"""Crash-safety and forward-compatibility of the result stores.

Covered here: torn-tail JSONL tolerance, row-level ``format_version``
gating, the JSONL store's run-cache read (``rows_for_digests``), the
full missing-cell report ``run --from`` gives on a partial store, and
WAL crash recovery when a database writer is SIGKILLed mid-batch.
"""

import json
import os
import signal
import subprocess
import sys
from pathlib import Path

import pytest

from repro.api import Campaign, ResultStore, Scenario
from repro.api.pairing import describe_key, pair_stored_runs, scenario_key
from repro.api.store import STORE_FORMAT_VERSION, check_format_version
from repro.config import Protocol
from repro.errors import ExperimentError


def _scenarios(n_seeds=2):
    base = Scenario.from_preset("smoke").with_runtime(
        horizon_s=5.0, sample_interval_s=1.0
    )
    campaign = (
        Campaign(base)
        .over(protocol=[Protocol.PURE_LEACH, Protocol.CAEM_ADAPTIVE])
        .seeds(list(range(1, n_seeds + 1)))
    )
    return campaign.scenarios()


def _populated(tmp_path, scenarios):
    store = ResultStore(tmp_path / "runs.jsonl")
    from repro.api import run_scenarios

    runs = run_scenarios(scenarios, store=store)
    return store, runs


def _tear_last_line(path):
    """Cut the file mid-way through its final record, as a writer killed
    mid-append leaves it."""
    raw = path.read_bytes()
    path.write_bytes(raw[: len(raw) - len(raw.splitlines()[-1]) // 2 - 1])


class TestTornTail:
    def test_truncated_trailing_record_is_tolerated(self, tmp_path):
        """A crash mid-append leaves a torn final line; the reader serves
        every completed row instead of refusing the whole file."""
        scenarios = _scenarios()
        store, runs = _populated(tmp_path, scenarios)
        assert store.path.read_bytes().endswith(b"\n")
        _tear_last_line(store.path)
        survivors = store.load()
        assert len(survivors) == len(runs) - 1
        assert [r.to_dict() for r in survivors] == \
            [r.to_dict() for r in runs[:-1]]

    def test_append_after_torn_tail_would_be_detected(self, tmp_path):
        """Only a torn *final* line is forgiven: a corrupt line mid-file
        still raises loudly (``extend`` never writes one; see below)."""
        store, runs = _populated(tmp_path, _scenarios(n_seeds=1))
        lines = store.path.read_text().splitlines(keepends=True)
        lines[0] = lines[0][: len(lines[0]) // 2].rstrip("\n") + "\n"
        store.path.write_text("".join(lines))
        with pytest.raises(ExperimentError, match="corrupt record"):
            store.load()

    def test_empty_and_blank_lines_are_fine(self, tmp_path):
        store = ResultStore(tmp_path / "runs.jsonl")
        store.path.write_text("\n")
        assert store.load() == []

    def test_append_after_torn_tail_keeps_the_store_readable(self, tmp_path):
        """A resumed campaign appends after the torn line a killed writer
        left: the fragment is cut off, not fused into the new record."""
        scenarios = _scenarios()
        store, runs = _populated(tmp_path, scenarios)
        _tear_last_line(store.path)
        served = store.load()
        assert len(served) == len(runs) - 1

        store.extend(runs[-1:])
        assert [r.to_dict() for r in store.load()] == \
            [r.to_dict() for r in served + runs[-1:]]
        assert store.path.read_bytes().endswith(b"\n")
        # A second append lands on a clean line boundary too.
        store.extend(runs[:1])
        assert len(store.load()) == len(runs) + 1

    def test_append_after_unterminated_last_record_keeps_it(self, tmp_path):
        """A complete last record that lacks only its newline is served
        before an append and stays served after it."""
        store, runs = _populated(tmp_path, _scenarios())
        store.path.write_bytes(store.path.read_bytes().rstrip(b"\n"))
        assert len(store.load()) == len(runs)

        store.extend(runs[:1])
        assert [r.to_dict() for r in store.load()] == \
            [r.to_dict() for r in runs + runs[:1]]

    def test_cached_resume_after_torn_tail(self, tmp_path):
        """The run cache over a JSONL store resumes after a torn tail:
        the re-run simulates only the torn cell, and the pass after it
        is served wholly from the store."""
        from repro.service import RunCache

        scenarios = _scenarios()
        store, runs = _populated(tmp_path, scenarios)
        _tear_last_line(store.path)

        resumed = RunCache(store)
        resumed.execute(scenarios)
        assert (resumed.stats.hits, resumed.stats.misses) == (
            len(runs) - 1, 1
        )
        warm = RunCache(ResultStore(store.path))
        served = warm.execute(scenarios)
        assert (warm.stats.hits, warm.stats.misses) == (len(runs), 0)
        for a, b in zip(runs, served):
            da, db = a.to_dict(), b.to_dict()
            da.pop("wall_time_s"), db.pop("wall_time_s")
            assert da == db


class TestFormatVersion:
    def test_rows_are_stamped(self, tmp_path):
        store, _ = _populated(tmp_path, _scenarios(n_seeds=1))
        for line in store.path.read_text().splitlines():
            assert json.loads(line)["format_version"] == STORE_FORMAT_VERSION

    def test_legacy_unstamped_rows_accepted(self, tmp_path):
        """Pre-version stores (earlier PRs) load without complaint."""
        store, runs = _populated(tmp_path, _scenarios(n_seeds=1))
        stripped = []
        for line in store.path.read_text().splitlines():
            record = json.loads(line)
            record.pop("format_version")
            stripped.append(json.dumps(record))
        store.path.write_text("\n".join(stripped) + "\n")
        assert len(store.load()) == len(runs)

    def test_newer_rows_refused_with_upgrade_hint(self, tmp_path):
        store = ResultStore(tmp_path / "runs.jsonl")
        scenarios = _scenarios(n_seeds=1)
        from repro.api import run_scenarios

        run_scenarios(scenarios[:1], store=store)
        record = json.loads(store.path.read_text())
        record["format_version"] = 99
        store.path.write_text(json.dumps(record) + "\n")
        with pytest.raises(ExperimentError, match="upgrade"):
            store.load()

    def test_check_format_version_contract(self):
        check_format_version(None, "x")  # legacy: fine
        check_format_version(STORE_FORMAT_VERSION, "x")
        with pytest.raises(ExperimentError, match="format version"):
            check_format_version(STORE_FORMAT_VERSION + 1, "x")
        with pytest.raises(ExperimentError, match="format_version"):
            check_format_version("banana", "x")
        with pytest.raises(ExperimentError, match="format version"):
            check_format_version(0, "x")


class TestJsonlRowsForDigests:
    """The run cache reads a JSONL store the way it reads a database:
    the same rows and payload sizes, through the one JSONL reader."""

    def test_rows_and_sizes_match_the_migrated_database(
        self, tmp_path, monkeypatch
    ):
        from repro.cli import main
        from repro.service import DbResultStore

        store, runs = _populated(tmp_path, _scenarios())
        monkeypatch.chdir(tmp_path)
        assert main(["migrate", "runs.jsonl", "runs.sqlite"]) == 0
        digests = {run.config_digest for run in runs[1:]}
        from_jsonl = store.rows_for_digests(digests)
        from_db = DbResultStore(tmp_path / "runs.sqlite").rows_for_digests(digests)
        assert len(from_jsonl) == len(runs) - 1
        assert [(run.to_dict(), size) for run, size in from_jsonl] == [
            (run.to_dict(), size) for run, size in from_db
        ]

    def test_torn_tail_is_skipped(self, tmp_path):
        store, runs = _populated(tmp_path, _scenarios())
        _tear_last_line(store.path)
        rows = store.rows_for_digests({run.config_digest for run in runs})
        assert [run.to_dict() for run, _ in rows] == [
            run.to_dict() for run in runs[:-1]
        ]

    def test_corrupt_mid_file_record_raises(self, tmp_path):
        store, runs = _populated(tmp_path, _scenarios())
        lines = store.path.read_text().splitlines(keepends=True)
        lines[1] = lines[1][: len(lines[1]) // 2] + "\n"
        store.path.write_text("".join(lines))
        with pytest.raises(ExperimentError, match="corrupt record"):
            store.rows_for_digests({runs[0].config_digest})

    def test_newer_format_version_refused(self, tmp_path):
        store, runs = _populated(tmp_path, _scenarios())
        lines = store.path.read_text().splitlines()
        record = json.loads(lines[-1])
        record["format_version"] = STORE_FORMAT_VERSION + 1
        lines[-1] = json.dumps(record)
        store.path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ExperimentError, match="upgrade"):
            store.rows_for_digests({runs[0].config_digest})


class TestMissingCellReport:
    def test_every_missing_cell_listed_not_just_first(self, tmp_path):
        """`run --from` on a partial store names ALL the holes."""
        scenarios = _scenarios(n_seeds=2)  # 4 cells
        _, runs = _populated(tmp_path, scenarios)
        paired, missing = pair_stored_runs(scenarios, runs[:1], "exp-x")
        assert len(missing) == 3
        assert missing == [scenario_key(s) for s in scenarios[1:]]
        assert paired[0] is not None and paired[1] is None
        # And each hole renders to a human-readable coordinate line.
        for key in missing:
            text = describe_key(key)
            assert "seed=" in text and "config=" in text

    def test_duplicate_rows_consumed_in_order(self, tmp_path):
        scenarios = _scenarios(n_seeds=1)[:1]
        _, runs = _populated(tmp_path, scenarios)
        doubled = list(runs) + list(runs)
        paired, missing = pair_stored_runs(
            scenarios * 2, doubled, "exp-x"
        )
        assert missing == []
        assert len(paired) == 2

    def test_other_experiment_stamp_rejected(self, tmp_path):
        scenarios = _scenarios(n_seeds=1)[:1]
        _, runs = _populated(tmp_path, scenarios)
        runs[0].experiment = "somebody-else"
        _, missing = pair_stored_runs(scenarios, runs, "exp-x")
        assert len(missing) == 1


_WRITER_SCRIPT = """\
import json, sqlite3, sys, time

from repro.api.result import RunResult
from repro.api.store import STORE_FORMAT_VERSION
from repro.service import DbResultStore

db_path, runs_json = sys.argv[1], sys.argv[2]
runs = [RunResult.from_dict(d)
        for d in json.loads(open(runs_json).read())]

store = DbResultStore(db_path)
store.extend(runs[:2])  # a committed batch: must survive the crash

# Now die "mid-batch": rows INSERTed inside an open transaction, no
# COMMIT ever issued — exactly the window DbResultStore.extend is in
# when a box loses power.
conn = sqlite3.connect(db_path, isolation_level=None)
conn.execute("BEGIN IMMEDIATE")
for run in runs[2:]:
    conn.execute(
        "INSERT INTO runs (experiment, config_digest, seed, protocol, "
        "load_pps, horizon_s, n_nodes, format_version, payload) "
        "VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?)",
        (run.experiment, run.config_digest, run.seed, run.protocol,
         run.load_pps, run.horizon_s, run.n_nodes,
         STORE_FORMAT_VERSION, json.dumps(run.to_dict())),
    )
print("MIDBATCH", flush=True)
time.sleep(120)  # the parent SIGKILLs us here
"""


class TestWriterCrash:
    def test_sigkilled_writer_mid_batch_recovers_and_resumes(
        self, tmp_path
    ):
        """SIGKILL a database writer inside an uncommitted batch: WAL
        recovery keeps every committed batch and discards the torn one,
        and a cached resume completes the campaign without
        re-simulating the survivors."""
        from repro.api import run_scenarios
        from repro.service import DbResultStore, RunCache

        scenarios = _scenarios(n_seeds=2)  # 4 cells
        runs = run_scenarios(scenarios)
        runs_json = tmp_path / "runs.json"
        runs_json.write_text(json.dumps([r.to_dict() for r in runs]))
        script = tmp_path / "writer.py"
        script.write_text(_WRITER_SCRIPT)
        db = tmp_path / "crash.sqlite"

        src = str(Path(__file__).resolve().parent.parent / "src")
        proc = subprocess.Popen(
            [sys.executable, str(script), str(db), str(runs_json)],
            env=dict(os.environ, PYTHONPATH=src),
            stdout=subprocess.PIPE, text=True,
        )
        try:
            line = proc.stdout.readline()  # blocks until mid-batch
            assert line.strip() == "MIDBATCH"
            proc.send_signal(signal.SIGKILL)
            proc.wait(timeout=30)
        finally:
            if proc.poll() is None:
                proc.kill()

        # Reopen: the committed batch is there, the torn one is not.
        store = DbResultStore(db)
        survivors = store.load()
        assert [r.to_dict() for r in survivors] == \
            [r.to_dict() for r in runs[:2]]

        # Resume: the survivors are cache hits, only the torn batch's
        # cells re-simulate.
        cache = RunCache(store)
        resumed = cache.execute(scenarios)
        assert cache.stats.hits == 2
        assert cache.stats.misses == 2
        for a, b in zip(runs, resumed):
            da, db_ = a.to_dict(), b.to_dict()
            da.pop("wall_time_s"), db_.pop("wall_time_s")
            assert da == db_
