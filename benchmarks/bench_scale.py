#!/usr/bin/env python
"""Scale-tier benchmark: nodes versus wall clock and peak RSS.

Runs the ``ext-scale`` workload (constant-density Table II network, two
full LEACH rounds — see :func:`repro.experiments.scale.scale_config`) at
a ladder of network sizes and records the scaling curve:

* each size runs in a **fresh subprocess** so its memory high-water mark
  is a true per-size peak, not the monotone maximum of the whole sweep;
  the parent polls the child's ``/proc/<pid>/status`` ``VmHWM`` while it
  runs, so the recorded peak reflects mid-run transients (topology
  build, round formation) even when they dwarf the exit-time RSS;
* ``--backend`` picks the engine: ``event`` (the per-packet reference
  kernel), ``vector`` (the structure-of-arrays population engine, see
  :mod:`repro.vector`), or ``both`` to render the two curves side by
  side;
* committed baselines close the loop: event rows compare against
  ``benchmarks/BENCH_scale.json`` (the pre-PR-5 brute-force kernel) and
  vector rows compare against ``benchmarks/BENCH_vector.json`` (the
  tuned **event kernel** at the same ladder, measured on the reference
  1-CPU container) — so ``--backend vector --require-speedup 10`` gates
  the vector engine at >= 10x over the event kernel at the largest
  baselined size, and ``--nodes 100 --rounds 3 --require-speedup 0.64``
  is the event kernel's regression gate (it fails once the N=100 run
  takes more than 0.8037 s / 0.64 = 1.26 s).

Usage::

    PYTHONPATH=src python benchmarks/bench_scale.py                # quick ladder
    PYTHONPATH=src python benchmarks/bench_scale.py --nodes 100 300 1000 3000
    PYTHONPATH=src python benchmarks/bench_scale.py --require-speedup 1.5
    PYTHONPATH=src python benchmarks/bench_scale.py --nodes 100 --rounds 3 \
                                                    --require-speedup 0.64
    PYTHONPATH=src python benchmarks/bench_scale.py --backend vector \
                                                    --require-speedup 10
    PYTHONPATH=src python benchmarks/bench_scale.py --with-brute   # also time
                                                   # the brute/no-pool path

Everything runs serially — the reference container has one CPU.
"""

from __future__ import annotations

import argparse
import json
import resource
import subprocess
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
BASELINE_PATH = Path(__file__).resolve().parent / "BENCH_scale.json"
VECTOR_BASELINE_PATH = Path(__file__).resolve().parent / "BENCH_vector.json"

DEFAULT_NODES = (100, 300, 1000)
HORIZON_S = 40.0  # two full 20 s LEACH rounds (matches BENCH_scale.json)


def _measure_single(n_nodes: int, rounds: int, brute: bool,
                    backend: str, profile_dir: str = None) -> dict:
    """One size, in-process: best-of-``rounds`` wall seconds + peak RSS."""
    from repro.config import Protocol
    from repro.experiments.scale import scale_config

    cfg = scale_config(
        n_nodes, Protocol.CAEM_ADAPTIVE, seed=1, backend=backend
    )
    if brute:
        cfg = cfg.with_scale(
            spatial_index="brute", link_pool=False, reuse_head_stack=False
        )
    best = float("inf")
    # The vector engine processes no events (its events_processed counts
    # coherence steps), so its rows record none.
    events = None
    if backend == "vector":
        from repro.api import RunOptions, simulate

        profile_path = None
        if profile_dir is not None:
            Path(profile_dir).mkdir(parents=True, exist_ok=True)
            profile_path = str(Path(profile_dir) / f"rounds_n{n_nodes}.json")
        opts = RunOptions(
            horizon_s=HORIZON_S, sample_interval_s=5.0,
            max_series_samples=64, profile_rounds=profile_path,
        )
        for _ in range(rounds):
            t0 = time.perf_counter()
            simulate(cfg, opts)
            elapsed = time.perf_counter() - t0
            if elapsed < best:
                best = elapsed
    else:
        from repro.network import SensorNetwork

        for _ in range(rounds):
            net = SensorNetwork(cfg)
            t0 = time.perf_counter()
            net.run_until(HORIZON_S)
            elapsed = time.perf_counter() - t0
            events = net.sim.events_processed
            if elapsed < best:
                best = elapsed
    return {
        "nodes": n_nodes,
        "seconds": best,
        "rounds": rounds,
        "events": events,
        "backend": backend,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "brute": brute,
    }


def _vm_hwm_kb(pid: int) -> int:
    """The kernel-maintained peak-RSS high-water mark of ``pid``, in kB."""
    try:
        with open(f"/proc/{pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def _measure_subprocess(n_nodes: int, rounds: int, brute: bool,
                        backend: str, profile_dir: str = None) -> dict:
    """Run one size in a fresh interpreter (clean per-size peak RSS).

    The parent polls the child's ``VmHWM`` while it runs and keeps the
    maximum observed, so the recorded peak is the mid-run high-water
    mark, not whatever the RSS happens to be at exit.  (On systems
    without ``/proc`` the child's own ``ru_maxrss`` is used instead.)
    """
    cmd = [
        sys.executable, str(Path(__file__).resolve()),
        "--single", str(n_nodes), "--rounds", str(rounds),
        "--backend", backend,
    ]
    if brute:
        cmd.append("--brute")
    if profile_dir is not None:
        cmd += ["--profile-rounds", profile_dir]
    proc = subprocess.Popen(
        cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        cwd=str(REPO_ROOT),
    )
    peak_kb = 0
    while proc.poll() is None:
        peak_kb = max(peak_kb, _vm_hwm_kb(proc.pid))
        time.sleep(0.05)
    stdout, stderr = proc.communicate()
    if proc.returncode != 0:
        raise RuntimeError(
            f"bench subprocess for N={n_nodes} failed:\n{stderr}"
        )
    result = json.loads(stdout)
    if peak_kb > 0:
        result["peak_rss_kb"] = peak_kb
    return result


def _event_columns(r: dict) -> str:
    """The ``events`` and ``kev/s`` cells of one row (``—`` when none)."""
    if r["events"] is None:
        return f"{'—':>9} {'—':>7}"
    return f"{r['events']:>9} {r['events'] / r['seconds'] / 1e3:>7.1f}"


def _load_baseline(path: Path) -> dict:
    try:
        doc = json.loads(path.read_text())
    except FileNotFoundError:
        return {}
    return {int(k): v for k, v in doc.get("baseline", {}).items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--nodes", type=int, nargs="+",
                        default=list(DEFAULT_NODES),
                        help="network sizes to sweep (default: 100 300 1000)")
    parser.add_argument("--rounds", type=int, default=2,
                        help="best-of-N rounds per size (default 2)")
    parser.add_argument("--backend", default="event",
                        choices=("event", "vector", "both"),
                        help="engine(s) to time (default: event)")
    parser.add_argument("--with-brute", action="store_true",
                        help="also time the brute-force/no-pool path per size "
                             "(event backend only)")
    parser.add_argument("--require-speedup", type=float, default=None,
                        metavar="X",
                        help="fail unless the largest baselined size runs at "
                             "least X times faster than its baseline "
                             "(BENCH_scale.json for the event backend, "
                             "BENCH_vector.json for the vector backend)")
    parser.add_argument("--profile-rounds", default=None, metavar="DIR",
                        help="write each vector run's per-round phase "
                             "timeline (JSON, see repro.vector.profile) "
                             "into DIR as rounds_n<N>.json")
    parser.add_argument("--max-seconds", type=float, default=None,
                        metavar="S",
                        help="fail unless the largest size's wall time is "
                             "at most S seconds (the nightly N=1e5 "
                             "under-a-minute gate)")
    parser.add_argument("--single", type=int, default=None,
                        help=argparse.SUPPRESS)  # subprocess worker mode
    parser.add_argument("--brute", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.single is not None:
        print(json.dumps(
            _measure_single(args.single, args.rounds, args.brute,
                            args.backend, profile_dir=args.profile_rounds)
        ))
        return 0

    backends = (
        ["event", "vector"] if args.backend == "both" else [args.backend]
    )
    baselines = {
        "event": _load_baseline(BASELINE_PATH),
        "vector": _load_baseline(VECTOR_BASELINE_PATH),
    }
    results = []
    print(f"scale benchmark: horizon {HORIZON_S:g} s, "
          f"best-of-{args.rounds}, serial (1-CPU container)")
    header = (f"{'backend':>7} {'nodes':>6} {'wall':>9} {'events':>9} "
              f"{'kev/s':>7} {'rss MB':>7} {'baseline':>9} {'speedup':>8}")
    print(header)
    for n in args.nodes:
        for backend in backends:
            r = _measure_subprocess(
                n, args.rounds, brute=False, backend=backend,
                profile_dir=(args.profile_rounds
                             if backend == "vector" else None),
            )
            results.append(r)
            base = baselines[backend].get(n)
            base_s = f"{base['seconds']:.3f}s" if base else "—"
            speed = f"{base['seconds'] / r['seconds']:.2f}x" if base else "—"
            print(f"{backend:>7} {n:>6} {r['seconds']:>8.3f}s "
                  f"{_event_columns(r)} "
                  f"{r['peak_rss_kb'] / 1024:>7.1f} {base_s:>9} {speed:>8}")
        if args.with_brute:
            b = _measure_subprocess(n, args.rounds, brute=True,
                                    backend="event")
            print(f"{'event':>7} {n:>6} {b['seconds']:>8.3f}s "
                  f"{_event_columns(b)} "
                  f"{b['peak_rss_kb'] / 1024:>7.1f} "
                  f"{'(brute/no-pool)':>18}")

    if args.require_speedup is not None:
        # With both backends the gate applies to the vector rows — that
        # is the claim under test (vector vs the event-kernel baseline).
        gate_backend = "vector" if "vector" in backends else "event"
        baseline = baselines[gate_backend]
        gated = [r for r in results
                 if r["backend"] == gate_backend and r["nodes"] in baseline]
        if not gated:
            print("speedup gate: FAIL (no baselined size was run)")
            return 1
        top = max(gated, key=lambda r: r["nodes"])
        speedup = baseline[top["nodes"]]["seconds"] / top["seconds"]
        verdict = "OK" if speedup >= args.require_speedup else "FAIL"
        print(f"speedup gate [{gate_backend}] at N={top['nodes']}: "
              f"{speedup:.2f}x (required {args.require_speedup:g}x) "
              f"-> {verdict}")
        if verdict == "FAIL":
            return 1

    if args.max_seconds is not None:
        top = max(results, key=lambda r: r["nodes"])
        verdict = "OK" if top["seconds"] <= args.max_seconds else "FAIL"
        print(f"wall-time gate at N={top['nodes']}: {top['seconds']:.2f}s "
              f"(budget {args.max_seconds:g}s) -> {verdict}")
        if verdict == "FAIL":
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
