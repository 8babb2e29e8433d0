"""Perf-regression harness behind ``repro-caem bench``.

Three rungs, mirroring ``benchmarks/bench_kernel.py``:

* **kernel** — event-heap throughput and MAC-like push/cancel churn, the
  two microbenchmarks that bound how many events per second the
  simulator can carry;
* **quick-run** — a 100-node paper-scale network advanced one full LEACH
  round (20 s), the macro number that tracks whole-stack regressions;
* **figure** — one registry experiment rendered end to end (fig8 at the
  quick preset), so harness overhead (campaign grid, metrics, renderer)
  is covered too.

Everything runs **serially** — the reference container has a single CPU,
so parallel timing would only measure scheduler interference.  Each
invocation appends one trajectory entry to ``benchmarks/BENCH_run.json``
and compares wall times against the committed pytest-benchmark baseline
(``benchmarks/BENCH_kernel.json``), reporting the speedup factor per
benchmark.  ``fail_threshold`` turns the comparison into a CI gate:
``now > threshold × baseline`` on any benchmark fails the run (CI uses a
generous 2.0× to absorb shared-runner jitter).

Timings use best-of-N (min), the standard choice for latency benches:
the minimum is the least contaminated by scheduler noise, and it is the
statistic least likely to flag a phantom regression on a busy host.
"""

from __future__ import annotations

import json
import platform
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional

from ..errors import ReproError

__all__ = [
    "BenchResult",
    "BenchReport",
    "run_bench",
    "load_baseline_times",
    "DEFAULT_BASELINE",
    "DEFAULT_TRAJECTORY",
]

DEFAULT_BASELINE = Path("benchmarks") / "BENCH_kernel.json"
DEFAULT_TRAJECTORY = Path("benchmarks") / "BENCH_run.json"

#: bench name -> pytest-benchmark test name in the committed baseline.
_BASELINE_NAMES = {
    "kernel/event-throughput": "test_kernel_event_throughput",
    "kernel/push-pop-cancel-churn": "test_kernel_push_pop_cancel_churn",
    "network/quick-run-100": "test_network_100_node_quick_run",
}


@dataclass
class BenchResult:
    """One timed benchmark: best-of-N wall seconds plus baseline context."""

    name: str
    seconds: float
    rounds: int
    baseline_s: Optional[float] = None

    @property
    def speedup(self) -> Optional[float]:
        """Baseline / now (>1 means faster than the committed baseline)."""
        if self.baseline_s is None or self.seconds <= 0:
            return None
        return self.baseline_s / self.seconds


@dataclass
class BenchReport:
    """A full suite run: per-bench results plus the regression verdict."""

    tier: str
    results: List[BenchResult] = field(default_factory=list)
    fail_threshold: Optional[float] = None

    @property
    def regressions(self) -> List[BenchResult]:
        """Benches slower than ``fail_threshold ×`` their baseline."""
        if self.fail_threshold is None:
            return []
        return [
            r
            for r in self.results
            if r.baseline_s is not None
            and r.seconds > self.fail_threshold * r.baseline_s
        ]

    @property
    def ok(self) -> bool:
        return not self.regressions

    def render(self) -> str:
        """Fixed-width comparison table."""
        lines = [
            f"benchmark suite: tier={self.tier} (serial; best-of-N wall time)",
            f"{'benchmark':<30} {'now':>10} {'baseline':>10} {'speedup':>9}",
        ]
        for r in self.results:
            base = f"{r.baseline_s:.4f}s" if r.baseline_s is not None else "—"
            speed = f"{r.speedup:.2f}x" if r.speedup is not None else "—"
            lines.append(
                f"{r.name:<30} {r.seconds:>9.4f}s {base:>10} {speed:>9}"
            )
        if self.fail_threshold is not None:
            if self.ok:
                lines.append(
                    f"regression gate: OK "
                    f"(all within {self.fail_threshold:g}x of baseline)"
                )
            else:
                names = ", ".join(r.name for r in self.regressions)
                lines.append(
                    f"regression gate: FAIL "
                    f"(> {self.fail_threshold:g}x baseline: {names})"
                )
        return "\n".join(lines) + "\n"


# -- the benchmarks -----------------------------------------------------------


def _bench_event_throughput() -> None:
    """10k-event self-re-arming timer chain (pure heap + dispatch cost)."""
    from ..sim import Simulator

    sim = Simulator()
    count = 0

    def tick() -> None:
        nonlocal count
        count += 1
        if count < 10_000:
            sim.call_in(0.001, tick)

    sim.call_in(0.001, tick)
    sim.run()
    if count != 10_000:  # pragma: no cover - self-check
        raise ReproError(f"event-throughput bench ran {count} events")


def _bench_churn() -> None:
    """Interleaved push/cancel plus lazy-deletion pops (MAC timer pattern)."""
    from ..sim import Simulator

    sim = Simulator()
    keep = []
    for i in range(20_000):
        handle = sim.call_in(1.0 + (i % 997) * 1e-3, _noop)
        if i % 2:
            handle.cancel()
        else:
            keep.append(handle)
    for handle in keep[::4]:
        handle.cancel()
    sim.run()
    if sim.events_processed != 7_500:  # pragma: no cover - self-check
        raise ReproError(f"churn bench ran {sim.events_processed} events")


def _noop() -> None:
    pass


def _bench_quick_run_100() -> None:
    """100-node CAEM network advanced one full LEACH round (20 s)."""
    from ..config import NetworkConfig, Protocol
    from ..network import SensorNetwork

    cfg = NetworkConfig(n_nodes=100, protocol=Protocol.CAEM_ADAPTIVE, seed=1)
    net = SensorNetwork(cfg)
    net.run_until(20.0)
    if net.sim.events_processed <= 10_000:  # pragma: no cover - self-check
        raise ReproError("quick-run bench processed suspiciously few events")


def _bench_figure_fig8() -> None:
    """fig8 (quick preset, one seed, one load) through the full registry."""
    from .registry import get_experiment

    fig = get_experiment("fig8").run(
        preset="quick", seeds=(1,), loads_pps=(5.0,)
    )
    fig.render()


#: (name, callable, rounds) per tier; "full" extends "quick".  The
#: committed baseline mins come from pytest-benchmark's ~1 s of warm
#: rounds, so the microbenches get enough rounds here for their best-of
#: to reach comparably warm caches/branch predictors.
_QUICK_SUITE: List = [
    ("kernel/event-throughput", _bench_event_throughput, 30),
    ("kernel/push-pop-cancel-churn", _bench_churn, 15),
    ("network/quick-run-100", _bench_quick_run_100, 3),
]
_FULL_SUITE: List = _QUICK_SUITE + [
    ("figure/fig8-quick", _bench_figure_fig8, 1),
]

TIERS: Dict[str, List] = {"quick": _QUICK_SUITE, "full": _FULL_SUITE}


# -- baseline + trajectory I/O ------------------------------------------------


def load_baseline_times(path: Path) -> Dict[str, float]:
    """Per-bench baseline seconds from a pytest-benchmark JSON file.

    Uses each benchmark's ``min`` — the same statistic ``run_bench``
    measures — keyed by our bench names via ``_BASELINE_NAMES``.  A
    missing file means "no comparison" (empty dict); a file that exists
    but cannot be parsed is a hard error, not a silent no-comparison run.
    """
    try:
        doc = json.loads(Path(path).read_text())
    except FileNotFoundError:
        return {}
    try:
        by_test = {
            b["name"]: float(b["stats"]["min"])
            for b in doc.get("benchmarks", [])
        }
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise ReproError(
            f"baseline {path} is not pytest-benchmark JSON "
            f"(regenerate it with benchmarks/bench_kernel.py): {exc!r}"
        ) from exc
    return {
        ours: by_test[theirs]
        for ours, theirs in _BASELINE_NAMES.items()
        if theirs in by_test
    }


def _append_trajectory(path: Path, report: BenchReport) -> None:
    """Append one entry to the BENCH_run.json trajectory (a JSON list)."""
    entries: List[dict] = []
    path = Path(path)
    if path.exists():
        try:
            entries = json.loads(path.read_text())
            if not isinstance(entries, list):  # pragma: no cover - defensive
                entries = [entries]
        except json.JSONDecodeError:  # pragma: no cover - defensive
            entries = []
    entries.append(
        {
            "datetime": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
            "python": platform.python_version(),
            "machine": platform.machine(),
            "tier": report.tier,
            "results": {
                r.name: {
                    "seconds": r.seconds,
                    "rounds": r.rounds,
                    "baseline_s": r.baseline_s,
                    "speedup": r.speedup,
                }
                for r in report.results
            },
        }
    )
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(entries, indent=2) + "\n")


# -- driver -------------------------------------------------------------------


def run_bench(
    tier: str = "full",
    baseline_path: Path = DEFAULT_BASELINE,
    trajectory_path: Optional[Path] = DEFAULT_TRAJECTORY,
    fail_threshold: Optional[float] = None,
    progress: Optional[Callable[[str], None]] = None,
) -> BenchReport:
    """Run the ``tier`` suite serially; time best-of-N; append trajectory.

    Parameters
    ----------
    tier:
        ``"quick"`` (kernel + 100-node macro run) or ``"full"`` (adds the
        figure-scale bench).
    baseline_path:
        Committed pytest-benchmark JSON to compare against (missing file
        → no comparison, never an error).
    trajectory_path:
        Where to append this run's entry; ``None`` skips persistence.
    fail_threshold:
        If set, any bench slower than ``threshold × baseline`` marks the
        report as failed (see :attr:`BenchReport.ok`).
    progress:
        Optional callable fed one line per bench as results arrive.
    """
    try:
        suite = TIERS[tier]
    except KeyError:
        raise ReproError(
            f"unknown bench tier {tier!r}; have {sorted(TIERS)}"
        ) from None
    baselines = load_baseline_times(baseline_path)
    if fail_threshold is not None:
        # A gate with nothing to compare against passes vacuously, and a
        # partially matching baseline silently drops benches from it —
        # every bench that is supposed to have a baseline must find one
        # (wrong cwd, moved baseline, renamed tests all fail loudly here).
        missing = [
            name
            for name, _, _ in suite
            if name in _BASELINE_NAMES and name not in baselines
        ]
        if missing:
            raise ReproError(
                f"--fail-threshold set but no baseline entries for "
                f"{', '.join(missing)} in {baseline_path} (run from the "
                f"repo root, or point --baseline at the committed "
                f"BENCH_kernel.json)"
            )
    report = BenchReport(tier=tier, fail_threshold=fail_threshold)
    perf_counter = time.perf_counter
    for name, fn, rounds in suite:
        best = float("inf")
        for _ in range(rounds):
            t0 = perf_counter()
            fn()
            elapsed = perf_counter() - t0
            if elapsed < best:
                best = elapsed
        result = BenchResult(
            name=name,
            seconds=best,
            rounds=rounds,
            baseline_s=baselines.get(name),
        )
        report.results.append(result)
        if progress is not None:
            speed = (
                f" ({result.speedup:.2f}x vs baseline)"
                if result.speedup is not None
                else ""
            )
            progress(f"{name}: {best:.4f}s best-of-{rounds}{speed}")
    if trajectory_path is not None:
        _append_trajectory(Path(trajectory_path), report)
    return report
