"""The repository benchmark: one workload per call, one JSON result line.

    python3 perfbench/run.py --workload churn-vector --seed 1 --seconds 60 --trace 0
    python3 perfbench/run.py --workload all      # every workload in turn

Run from the root of a source checkout (``src/repro`` must exist).  With
``--trace 0`` the run reports the end-to-end metrics, measured with no
tracing; with ``--trace 1`` a separate traced run reports the per-layer
metrics (see ``metrics.py`` for every name and what it should move).
Every measurement runs in a fresh interpreter (``worker.py`` or the
CLI), whose peak RSS is read from ``wait4`` when it exits.

End-to-end metrics, reported by every workload.  The hosts this runs on
drift in speed by up to ~2x over minutes, so every timing is calibrated
against a fixed reference loop timed between the measured calls on the
same CPU (``calib.py``): a value is the time on a machine where the
reference takes ``calib.REFERENCE_S``.  An untraced run keeps itself and
its children on one CPU, so timing and reference see the same
contention, and a timing is a median over the run's samples.

* ``setup_s`` — fresh interpreter until the entry modules are imported
  and the first network is constructed (campaign: ``import repro.cli``);
  median over the run's fresh processes.
* ``cold_s`` — launch of a fresh process until its first ``simulate``
  result (campaign: the CLI call into an empty ``--cache``, launch to
  rendered figure); median over the run's fresh processes.
* ``warm_s`` — one warm pass over the inputs: the sum over inputs of
  each input's median call in an already warm process (campaign: the
  median CLI call served from the filled cache).
* ``node_s_per_s`` — simulated node-seconds per calibrated second: of
  the warm pass, and of the cold call for the campaign (the call that
  simulates).
* ``peak_rss_mb`` — the highest peak RSS of the measured processes (the
  CLI process for the campaign).

Every run also prints its provenance and ``failed_share`` (failed
operations over attempted ones) above the result line.  An operation
fails on a raised error, a nonzero exit, an output that differs from
the pinned one (seed 1) or from its own first pass (any other seed), or
a warm campaign pass that simulated anything.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from importlib import metadata
from pathlib import Path

from calib import calibration, settled_reference
from metrics import END_TO_END, PER_LAYER, UNITS
from workloads import (
    CAMPAIGN,
    PINNED_SEED,
    ROOT,
    WORKLOADS,
    cache_counts,
    campaign_argv,
    load_pins,
    text_fingerprint,
)

HERE = Path(__file__).resolve().parent
WORK_ROOT = ROOT / ".perfbench_work"
#: Fresh processes per engine run; each sets up once, makes its cold
#: call, then times warm calls for its share of the run.
PROCESSES = {"churn-vector": 8}
#: Campaign cycles (a cold and a warm CLI call, and a set-up probe every
#: other cycle) per run, at least.
MIN_CYCLES = 3
CHILD_TIMEOUT_S = 170.0


class BenchError(Exception):
    """The program under test is missing or broke the harness itself."""


# -- child processes ----------------------------------------------------------


class Child:
    """A finished subprocess: its stdout lines, stderr and peak RSS.

    Output goes to unlinked files, and the process is reaped with
    ``wait4``, whose ``ru_maxrss`` is the child's peak RSS — no thread or
    poll shares the CPU with it while it runs.
    """

    def __init__(self, cmd) -> None:
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
        )
        with tempfile.TemporaryFile("w+", dir=WORK_ROOT) as out, \
                tempfile.TemporaryFile("w+", dir=WORK_ROOT) as err:
            self.launched = time.perf_counter()
            proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=out, stderr=err)
            status, peak_kb = _reap(proc.pid, self.launched + CHILD_TIMEOUT_S)
            self.exited = time.perf_counter()
            proc.returncode = os.waitstatus_to_exitcode(status)
            out.seek(0)
            err.seek(0)
            self.lines = out.read().splitlines(keepends=True)
            self.stderr = err.read()
        self.returncode = proc.returncode
        self.peak_kb = peak_kb

    @property
    def wall_s(self) -> float:
        return self.exited - self.launched

    def records(self):
        """The decoded JSON of every stdout line."""
        return [json.loads(line) for line in self.lines]


def _reap(pid: int, deadline: float):
    """Wait for ``pid``, killing it at ``deadline`` or if this process is
    interrupted; returns (wait status, peak RSS in kB)."""
    try:
        while time.perf_counter() < deadline:
            done, status, usage = os.wait4(pid, os.WNOHANG)
            if done:
                return status, usage.ru_maxrss
            time.sleep(0.02)
    except BaseException:
        os.kill(pid, signal.SIGKILL)
        os.wait4(pid, 0)
        raise
    os.kill(pid, signal.SIGKILL)
    _, status, usage = os.wait4(pid, 0)
    return status, usage.ru_maxrss


def worker(*args: str) -> Child:
    child = Child([sys.executable, str(HERE / "worker.py"), *args])
    if child.returncode != 0:
        raise BenchError(
            f"worker {' '.join(args)} exited {child.returncode}:\n{child.stderr}"
        )
    return child


def setup_probe(workload: str, seed: int) -> float:
    """Launch-to-ready time of one fresh probe interpreter."""
    child = worker("probe", workload, str(seed))
    if not child.lines:
        raise BenchError(f"probe printed nothing:\n{child.stderr}")
    return child.records()[0]["ready"] - child.launched


# -- output checks ------------------------------------------------------------


class Ledger:
    """Operations attempted and failed, with the reasons for failures."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.reasons = []

    def check(self, ok: bool, reason: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.reasons.append(reason)


def check_fingerprints(ledger, records, expected, what) -> None:
    """Each pass's per-input fingerprints against ``expected``."""
    for rec in records:
        for i, fp in enumerate(rec["fingerprints"]):
            ledger.check(fp is not None and fp == expected[i],
                         f"{what}: input {i} fingerprint {fp} != {expected[i]}")
        ledger.reasons.extend(f"{what}: {err}" for err in rec["errors"])


# -- engine workloads ---------------------------------------------------------


def engine_metrics(workload, seed, seconds, ledger):
    """Fresh processes in turn, each set up, then timed call by call.

    Process ``p`` of ``P`` stops starting calls at ``(p + 1) / P`` of the
    run.  Each timing is calibrated by the settled references around it:
    set-up and the cold call by the one run here before the launch and
    the process's first, warm calls by the process's own.
    """
    pinned = load_pins()[workload]["fingerprints"] if seed == PINNED_SEED else None
    expected = {}
    setup, cold, warm, peak_kb = [], [], {}, 0
    parts = PROCESSES[workload]
    start = time.perf_counter()
    for part in range(parts):
        ref = settled_reference()
        deadline = start + seconds * (part + 1) / parts
        child = worker("engine", workload, str(seed), repr(deadline), f"{part}/{parts}")
        ready, *records = child.records()
        calls = [rec for rec in records if "input" in rec]
        if not calls:
            raise BenchError(f"{workload}: no simulate call finished")
        peak_kb = max(peak_kb, child.peak_kb)
        pending = [("setup", ready["ready"] - child.launched, None),
                   ("cold", calls[0]["done"] - child.launched, None)]
        for rec in records:
            if "input" not in rec:
                scale = calibration([ref, rec["ref_s"]])
                for kind, wall_s, i in pending:
                    if kind == "setup":
                        setup.append(scale * wall_s)
                    elif kind == "cold":
                        cold.append(scale * wall_s)
                    else:
                        warm.setdefault(i, []).append(scale * wall_s)
                ref, pending = rec["ref_s"], []
            elif rec is not calls[0]:
                pending.append(("warm", rec["wall_s"], rec["input"]))
        for rec in calls:
            i, fp = rec["input"], rec["fingerprint"]
            want = pinned[i] if pinned else expected.setdefault(i, fp)
            ledger.check(fp is not None and fp == want,
                         f"{workload}: input {i}: {rec['error'] or fp} != {want}")
    if len(warm) != ready["inputs"]:
        raise BenchError(f"{workload}: only {len(warm)} inputs were timed warm")
    warm_s = sum(statistics.median(samples) for samples in warm.values())
    return {
        "setup_s": statistics.median(setup),
        "cold_s": statistics.median(cold),
        "warm_s": warm_s,
        "node_s_per_s": ready["node_s"] / warm_s,
        "peak_rss_mb": peak_kb / 1024.0,
    }


def engine_trace_metrics(workload, seed, workdir, ledger):
    out = worker("engine-trace", workload, str(seed), str(workdir)).records()[-1]
    expected = (
        load_pins()[workload]["fingerprints"] if seed == PINNED_SEED
        else out["untraced"]["fingerprints"]
    )
    check_fingerprints(ledger, [out["untraced"], out["traced"]], expected, workload)
    return out["metrics"]


# -- campaign -----------------------------------------------------------------


def cli(argv) -> Child:
    return Child([sys.executable, "-m", "repro", *argv])


def check_pass(ledger, kind, code, sha, expected, simulated) -> None:
    """A campaign pass: exit 0, the expected render, and no simulation if warm."""
    ok = code == 0 and sha == expected and (kind != "warm" or simulated == 0)
    ledger.check(ok, f"{kind} pass: exit {code}, sha256 {sha}, simulated {simulated}")


def check_call(ledger, kind, child, expected_sha):
    """Check one CLI call; returns the reference sha (the first render seen)."""
    sha = text_fingerprint("".join(child.lines))
    expected_sha = expected_sha or sha
    check_pass(ledger, kind, child.returncode, sha, expected_sha,
               cache_counts(child.stderr)[1])
    return expected_sha


def campaign_rows(db):
    from repro.service.db import DbResultStore

    return DbResultStore(db).load()


def campaign_metrics(seed, seconds, workdir, ledger):
    """Cycles of a cold call into an empty cache and a warm call from it,
    with a set-up probe before every other cycle.

    A settled reference runs before the first call and after every call,
    and each call is calibrated by the mean of the two around it.
    """
    expected = load_pins()[CAMPAIGN]["sha256"] if seed == PINNED_SEED else None
    setup, cold, warm, peak_kb = [], [], [], 0
    refs = [settled_reference()]

    def timed(samples, wall_s):
        refs.append(settled_reference())
        samples.append(wall_s * calibration(refs[-2:]))

    start = time.perf_counter()
    last = 0.0
    while len(cold) < MIN_CYCLES or time.perf_counter() - start + last <= seconds:
        t0 = time.perf_counter()
        if len(cold) % 2 == 0:
            timed(setup, setup_probe(CAMPAIGN, seed))
        db = workdir / f"c{len(cold)}.sqlite"
        for kind, samples in (("cold", cold), ("warm", warm)):
            child = cli(campaign_argv(seed, str(db), "serial"))
            timed(samples, child.wall_s)
            expected = check_call(ledger, kind, child, expected)
            peak_kb = max(peak_kb, child.peak_kb)
        if len(cold) == 1:
            rows = campaign_rows(db)
        last = time.perf_counter() - t0
    cold_s = statistics.median(cold)
    return {
        "setup_s": statistics.median(setup),
        "cold_s": cold_s,
        "warm_s": statistics.median(warm),
        "node_s_per_s": sum(r.n_nodes * r.horizon_s for r in rows) / cold_s,
        "peak_rss_mb": peak_kb / 1024.0,
    }


def campaign_trace_metrics(seed, workdir, ledger):
    expected = load_pins()[CAMPAIGN]["sha256"] if seed == PINNED_SEED else None
    # exec.parallel_efficiency needs an untraced pool:2 cold pass.
    setup = setup_probe(CAMPAIGN, seed)
    db = workdir / "pool.sqlite"
    cold = cli(campaign_argv(seed, str(db), "pool:2"))
    expected = check_call(ledger, "cold", cold, expected)
    cell_wall = sum(r.wall_time_s for r in campaign_rows(db))
    out = worker("campaign-trace", str(seed), str(workdir)).records()[-1]
    for label in ("untraced", "traced"):
        for kind, rec in out[label].items():
            check_pass(ledger, kind, rec["code"], rec["sha256"], expected,
                       rec["simulated"])
    metrics = out["metrics"]
    metrics["exec.parallel_efficiency"] = cell_wall / (2 * (cold.wall_s - setup))
    return metrics


# -- provenance ---------------------------------------------------------------


def _git_commit():
    try:
        out = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    lines = out.stdout.split()
    if out.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return None
    return lines[1]


def _src_sha256() -> str:
    """Digest of every file under ``src/`` (identifies a checkout without git)."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _version(dist: str):
    try:
        return metadata.version(dist)
    except metadata.PackageNotFoundError:
        return None


def provenance(workload, args) -> dict:
    return {
        "workload": workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "commit": _git_commit(),
        "src_sha256": _src_sha256(),
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": _version("numpy"),
        "scipy": _version("scipy"),
    }


# -- main ---------------------------------------------------------------------


def measure(workload, args, workdir: Path, ledger: Ledger) -> dict:
    if workload == CAMPAIGN:
        if args.trace:
            return campaign_trace_metrics(args.seed, workdir, ledger)
        return campaign_metrics(args.seed, args.seconds, workdir, ledger)
    if args.trace:
        return engine_trace_metrics(workload, args.seed, workdir, ledger)
    return engine_metrics(workload, args.seed, args.seconds, ledger)


def run_workload(workload, args) -> int:
    """Measure one workload; print provenance, a table and the result line."""
    prov = provenance(workload, args)
    nproc = prov["nproc"] or 1
    prov["load_before"] = os.getloadavg()
    prov["busy_start"] = prov["load_before"][0] > nproc
    if prov["busy_start"]:
        sys.stderr.write(
            f"warning: load average {prov['load_before'][0]:.2f} exceeds nproc "
            f"{nproc} at start; this run's timings are suspect\n"
        )

    if not args.trace:
        # One CPU for the whole untraced run: the reference loop then sees
        # the contention the measured processes see.
        cpu = max(os.sched_getaffinity(0))
        os.sched_setaffinity(0, {cpu})
        prov["cpu"] = cpu

    ledger = Ledger()
    WORK_ROOT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=WORK_ROOT))
    try:
        values = measure(workload, args, workdir, ledger)
        if not ledger.attempted:
            raise BenchError(f"{workload}: no output was checked")
    except BenchError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    prov["load_after"] = os.getloadavg()

    names = [m[0] for m in (PER_LAYER if args.trace else END_TO_END)]
    for reason in ledger.reasons:
        sys.stderr.write(f"check failed: {reason}\n")
    print(json.dumps({"provenance": prov}))
    for name in names:
        print(f"{workload:18} {name:26} {values[name]:>14.6g} {UNITS[name]}")
    print(f"{workload:18} {'failed_share':26} "
          f"{ledger.failed / ledger.attempted:>14.6g} ratio "
          f"({ledger.failed}/{ledger.attempted})")
    print(json.dumps({
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {n: {"value": values[n], "unit": UNITS[n]} for n in names},
    }), flush=True)
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=PINNED_SEED)
    parser.add_argument("--seconds", type=float, default=60.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # A terminated run unwinds, so it kills and reaps the child it waits for.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        sys.stderr.write(f"error: no program to measure: {ROOT / 'src'} has no repro\n")
        return 2
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    return max(run_workload(w, args) for w in workloads)


if __name__ == "__main__":
    sys.exit(main())
