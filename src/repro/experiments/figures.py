"""The paper's figures as runnable, registry-published experiments.

Each ``figN`` function re-runs the corresponding evaluation and returns a
:class:`FigureResult` — the same rows/series the paper plots, as a table.
Absolute numbers differ from the paper (their testbed constants are not
recoverable); the *shape criteria* each figure must satisfy are checked
by ``tests/test_paper_claims.py`` on the quick preset (``pytest -m
paper``).

Every figure is now a plan/execute/assemble pipeline on :mod:`repro.api`:
it expands its protocol × load × seed grid into :class:`Scenario` objects,
executes them through :func:`repro.api.run_scenarios` (under the ambient
:func:`repro.api.use_executor` policy — the table is bit-identical at
any parallelism), and assembles the table from the index-aligned
:class:`RunResult` records.  Each experiment stamps its runs with its
own id.  To re-render a table from stored runs without re-simulating,
run it under :func:`repro.service.replay`.

All functions accept ``preset`` ("full" = Table II scale, "quick" = CI
scale, "smoke" = harness tests) and a seed tuple for replication, and all
register themselves in the experiment registry (``repro-caem list``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from ..api import RunOptions, RunResult, Scenario, experiment, run_scenarios
from ..config import Protocol
from ..errors import ExperimentError
from ..metrics.fairness import mean_snapshot_std
from ..metrics.lifetime import network_lifetime_s
from ..metrics.summary import float_sum, mean_of
from .presets import Preset, get_preset
from .report import render_table, write_csv

__all__ = [
    "FigureResult",
    "fig8_remaining_energy",
    "fig9_nodes_alive",
    "fig10_lifetime_vs_load",
    "fig11_energy_per_packet",
    "fig12_queue_stddev",
    "ext_performance",
    "DEFAULT_LOADS_PPS",
]

#: Fig. 10's x-axis: "Added Traffic Load ... packets generated by each
#: node per second", 5..30.
DEFAULT_LOADS_PPS: Tuple[float, ...] = (5.0, 10.0, 15.0, 20.0, 25.0, 30.0)

_PROTOCOLS = (Protocol.PURE_LEACH, Protocol.CAEM_ADAPTIVE, Protocol.CAEM_FIXED)
_LABELS = {
    Protocol.PURE_LEACH: "pure LEACH",
    Protocol.CAEM_ADAPTIVE: "Scheme 1",
    Protocol.CAEM_FIXED: "Scheme 2",
}


@dataclass
class FigureResult:
    """One regenerated figure: a titled table plus raw runs."""

    figure_id: str
    title: str
    x_label: str
    headers: List[str]
    rows: List[List] = field(default_factory=list)
    notes: str = ""
    runs: List[RunResult] = field(default_factory=list)

    def render(self) -> str:
        """ASCII rendering (what the CLI and the paper-claim tests print)."""
        text = render_table(self.headers, self.rows,
                            title=f"{self.figure_id}: {self.title}")
        if self.notes:
            text += f"note: {self.notes}\n"
        return text

    def save_csv(self, directory: str) -> Path:
        """Write the table to ``<directory>/<figure_id>.csv``."""
        return write_csv(Path(directory) / f"{self.figure_id}.csv",
                         self.headers, self.rows)

    def series(self, column: str) -> List:
        """Extract one column by header name."""
        try:
            idx = self.headers.index(column)
        except ValueError:
            raise ExperimentError(
                f"no column {column!r} in {self.headers}"
            ) from None
        return [row[idx] for row in self.rows]


def _mean_over_seeds(per_seed: List[List[float]]) -> List[float]:
    """Average aligned series (truncated to the shortest).

    Bit for bit ``np.asarray(...).mean(axis=0)`` over the seeds × samples
    array: numpy adds each column in seed order, except a single column,
    which it reduces as one contiguous vector (pairwise, see
    :func:`~repro.metrics.summary.float_sum`).
    """
    n = min(len(s) for s in per_seed)
    if n == 1:
        return [float_sum(s[0] for s in per_seed) / len(per_seed)]
    sums = [0.0] * n
    for s in per_seed:
        for i in range(n):
            sums[i] += float(s[i])
    return [total / len(per_seed) for total in sums]


def _scenario(tier: Preset, proto: Protocol, load: float, seed: int,
              horizon_s: float, **runtime) -> Scenario:
    """One grid cell of a figure's campaign."""
    return Scenario(
        config=tier.config(proto, load, seed),
        options=RunOptions(
            horizon_s=horizon_s,
            sample_interval_s=tier.sample_interval_s,
            **runtime,
        ),
        tags={"protocol": proto.value, "load_pps": load, "seed": seed},
    )


# ---------------------------------------------------------------------------
# Fig. 8 — Average remaining power versus time.
# ---------------------------------------------------------------------------

@experiment("fig8", kind="figure",
            summary="Average remaining energy versus elapsed time")
def fig8_remaining_energy(
    preset: str = "quick",
    seeds: Sequence[int] = (1,),
    load_pps: float = 5.0,
) -> FigureResult:
    """"Figure 8 shows the average remaining energy in each sensor with
    elapsed time.  The initial battery energy level is 10 Joules, and
    traffic load is fixed at 5 [packets/s] for each sensor."""
    tier = get_preset(preset)
    result = FigureResult(
        figure_id="fig8",
        title="Average remaining power versus time",
        x_label="elapsed time (s)",
        headers=["time_s"] + [_LABELS[p] for p in _PROTOCOLS],
        notes=(
            f"preset={preset}: {tier.n_nodes} nodes, "
            f"{tier.initial_energy_j} J initial, load {load_pps} pkt/s"
        ),
    )
    scenarios = [
        _scenario(tier, proto, load_pps, seed, tier.energy_horizon_s)
        for proto in _PROTOCOLS
        for seed in seeds
    ]
    result.runs = run_scenarios(scenarios, experiment=result.figure_id)

    columns: Dict[Protocol, List[float]] = {}
    times: List[float] = []
    it = iter(result.runs)
    for proto in _PROTOCOLS:
        per_seed = []
        for _seed in seeds:
            run = next(it)
            per_seed.append(run.mean_energy_j)
            times = run.sample_times_s
        columns[proto] = _mean_over_seeds(per_seed)
    n = min(len(times), *(len(c) for c in columns.values()))
    for i in range(n):
        result.rows.append(
            [times[i]] + [columns[p][i] for p in _PROTOCOLS]
        )
    return result


# ---------------------------------------------------------------------------
# Fig. 9 — Number of nodes alive versus time (+ lifetime gains).
# ---------------------------------------------------------------------------

@experiment("fig9", kind="figure",
            summary="Number of nodes alive versus time (+ lifetime gains)")
def fig9_nodes_alive(
    preset: str = "quick",
    seeds: Sequence[int] = (1,),
    load_pps: float = 5.0,
) -> FigureResult:
    """"we are also interested in the number of sensor nodes alive versus
    elapsed time" — runs until every node has died (or the horizon)."""
    tier = get_preset(preset)
    result = FigureResult(
        figure_id="fig9",
        title="Number of nodes alive versus time",
        x_label="elapsed time (s)",
        headers=["time_s"] + [_LABELS[p] for p in _PROTOCOLS],
    )
    scenarios = [
        _scenario(tier, proto, load_pps, seed, tier.lifetime_horizon_s,
                  stop_when_dead=True).with_(dead_fraction=1.0)
        for proto in _PROTOCOLS
        for seed in seeds
    ]
    result.runs = run_scenarios(scenarios, experiment=result.figure_id)

    columns: Dict[Protocol, List[float]] = {}
    lifetimes: Dict[Protocol, List[Optional[float]]] = {p: [] for p in _PROTOCOLS}
    times: List[float] = []
    it = iter(result.runs)
    for proto in _PROTOCOLS:
        per_seed = []
        for _seed in seeds:
            run = next(it)
            # Re-extend the alive series to the full horizon with zeros so
            # all protocols share a grid.
            padded = list(run.alive_counts)
            per_seed.append(padded)
            if len(run.sample_times_s) > len(times):
                times = run.sample_times_s
            lifetimes[proto].append(
                network_lifetime_s(run.death_times_s, tier.n_nodes, 0.8)
            )
        width = max(len(s) for s in per_seed)
        per_seed = [s + [s[-1]] * (width - len(s)) for s in per_seed]
        columns[proto] = _mean_over_seeds(per_seed)
    width = max(len(c) for c in columns.values())
    for proto in _PROTOCOLS:
        col = columns[proto]
        columns[proto] = col + [col[-1]] * (width - len(col))
    for i in range(width):
        t = times[i] if i < len(times) else times[-1] + (i - len(times) + 1) * tier.sample_interval_s
        result.rows.append([t] + [columns[p][i] for p in _PROTOCOLS])

    # Lifetime gains versus pure LEACH (the paper: ~+40% S1, ~+130% S2).
    base = mean_of(lifetimes[Protocol.PURE_LEACH]) if any(
        v is not None for v in lifetimes[Protocol.PURE_LEACH]
    ) else None
    gain_bits = []
    for proto in (Protocol.CAEM_ADAPTIVE, Protocol.CAEM_FIXED):
        vals = [v for v in lifetimes[proto] if v is not None]
        if base and vals:
            gain = (mean_of(vals) / base - 1.0) * 100.0
            gain_bits.append(f"{_LABELS[proto]} {gain:+.0f}%")
    result.notes = (
        "lifetime (80% dead) gains vs pure LEACH: " + ", ".join(gain_bits)
        if gain_bits
        else "lifetimes censored (extend horizon)"
    )
    return result


# ---------------------------------------------------------------------------
# Fig. 10 — Network lifetime versus traffic load.
# ---------------------------------------------------------------------------

@experiment("fig10", kind="figure",
            summary="Network lifetime versus traffic load")
def fig10_lifetime_vs_load(
    preset: str = "quick",
    seeds: Sequence[int] = (1,),
    loads_pps: Sequence[float] = DEFAULT_LOADS_PPS,
) -> FigureResult:
    """"we further increase the traffic load until the network gets
    saturated and measure the network lifetime."""
    tier = get_preset(preset)
    result = FigureResult(
        figure_id="fig10",
        title="Network lifetime versus traffic load",
        x_label="added traffic load (packets/s per node)",
        headers=["load_pps"] + [f"{_LABELS[p]} lifetime_s" for p in _PROTOCOLS],
        notes="lifetime = time until the dead-node fraction exceeds 80%",
    )
    scenarios = [
        _scenario(tier, proto, load, seed, tier.lifetime_horizon_s,
                  stop_when_dead=True)
        for load in loads_pps
        for proto in _PROTOCOLS
        for seed in seeds
    ]
    result.runs = run_scenarios(scenarios, experiment=result.figure_id)

    it = iter(result.runs)
    for load in loads_pps:
        row: List = [load]
        for _proto in _PROTOCOLS:
            vals = [next(it).lifetime_s for _seed in seeds]
            usable = [v for v in vals if v is not None]
            row.append(mean_of(usable) if usable else None)
        result.rows.append(row)
    return result


# ---------------------------------------------------------------------------
# Fig. 11 — Average energy consumed per delivered packet versus load.
# ---------------------------------------------------------------------------

@experiment("fig11", kind="figure",
            summary="Average energy per delivered packet versus load")
def fig11_energy_per_packet(
    preset: str = "quick",
    seeds: Sequence[int] = (1,),
    loads_pps: Sequence[float] = DEFAULT_LOADS_PPS,
) -> FigureResult:
    """"One important metric ... is average energy consumed for
    successfully transmitting one data packet. ... we only compare pure
    LEACH and Scheme 1" (Scheme 2 included as a reference column)."""
    tier = get_preset(preset)
    result = FigureResult(
        figure_id="fig11",
        title="Average energy consumed per delivered packet versus load",
        x_label="added traffic load (packets/s per node)",
        headers=["load_pps", "pure LEACH mJ/pkt", "Scheme 1 mJ/pkt",
                 "Scheme 2 mJ/pkt (ref)", "S1 saving %"],
        notes="fixed observation window; saving = 1 - S1/LEACH",
    )
    scenarios = [
        _scenario(tier, proto, load, seed, tier.rate_horizon_s)
        for load in loads_pps
        for proto in _PROTOCOLS
        for seed in seeds
    ]
    result.runs = run_scenarios(scenarios, experiment=result.figure_id)

    it = iter(result.runs)
    for load in loads_pps:
        per_proto: Dict[Protocol, Optional[float]] = {}
        for proto in _PROTOCOLS:
            vals = []
            for _seed in seeds:
                run = next(it)
                if run.energy_per_packet_j is not None:
                    vals.append(run.energy_per_packet_j * 1e3)
            per_proto[proto] = mean_of(vals) if vals else None
        leach = per_proto[Protocol.PURE_LEACH]
        s1 = per_proto[Protocol.CAEM_ADAPTIVE]
        saving = (
            (1.0 - s1 / leach) * 100.0 if (leach and s1 and leach > 0) else None
        )
        result.rows.append(
            [load, leach, s1, per_proto[Protocol.CAEM_FIXED], saving]
        )
    return result


# ---------------------------------------------------------------------------
# Fig. 12 — Standard deviation of queue length versus load.
# ---------------------------------------------------------------------------

@experiment("fig12", kind="figure",
            summary="Standard deviation of queue length versus load")
def fig12_queue_stddev(
    preset: str = "quick",
    seeds: Sequence[int] = (1,),
    loads_pps: Sequence[float] = DEFAULT_LOADS_PPS,
    warmup_fraction: float = 0.25,
) -> FigureResult:
    """"we have set the buffer size to be substantially large enough to
    accommodate all generated packets ... we have taken several snapshots
    of the [queue-length std] during the observed time [and] average
    them."""
    tier = get_preset(preset)
    result = FigureResult(
        figure_id="fig12",
        title="Standard deviation of queue length versus load",
        x_label="added traffic load (packets/s per node)",
        headers=["load_pps"] + [f"{_LABELS[p]} σ(queue)" for p in _PROTOCOLS],
        notes="buffers effectively unbounded for this experiment (paper's setup)",
    )
    scenarios = [
        _scenario(tier, proto, load, seed, tier.rate_horizon_s,
                  collect_queues=True).with_traffic(buffer_packets=1_000_000)
        for load in loads_pps
        for proto in _PROTOCOLS
        for seed in seeds
    ]
    result.runs = run_scenarios(scenarios, experiment=result.figure_id)

    it = iter(result.runs)
    for load in loads_pps:
        row: List = [load]
        for _proto in _PROTOCOLS:
            vals = []
            for _seed in seeds:
                run = next(it)
                cut = int(len(run.queue_snapshots) * warmup_fraction)
                snaps = run.queue_snapshots[cut:]
                if snaps:
                    vals.append(mean_snapshot_std(snaps))
            row.append(mean_of(vals) if vals else None)
        result.rows.append(row)
    return result


# ---------------------------------------------------------------------------
# Extended — the long-version performance metrics.
# ---------------------------------------------------------------------------

@experiment("ext-perf", kind="extension",
            summary="Delay / throughput / delivery rate versus load")
def ext_performance(
    preset: str = "quick",
    seeds: Sequence[int] = (1,),
    loads_pps: Sequence[float] = DEFAULT_LOADS_PPS,
) -> FigureResult:
    """Delay / aggregate throughput / delivery rate versus load — the
    metrics the paper defines in §IV-A but defers to the long version."""
    tier = get_preset(preset)
    headers = ["load_pps"]
    for p in _PROTOCOLS:
        headers += [
            f"{_LABELS[p]} delay_ms",
            f"{_LABELS[p]} tput_kbps",
            f"{_LABELS[p]} delivery",
        ]
    result = FigureResult(
        figure_id="ext-perf",
        title="Network performance versus load (long-version metrics)",
        x_label="added traffic load (packets/s per node)",
        headers=headers,
    )
    scenarios = [
        _scenario(tier, proto, load, seed, tier.rate_horizon_s)
        for load in loads_pps
        for proto in _PROTOCOLS
        for seed in seeds
    ]
    result.runs = run_scenarios(scenarios, experiment=result.figure_id)

    it = iter(result.runs)
    for load in loads_pps:
        row: List = [load]
        for _proto in _PROTOCOLS:
            delays, tputs, rates = [], [], []
            for _seed in seeds:
                run = next(it)
                delays.append(run.mean_delay_s * 1e3)
                tputs.append(run.throughput_bps / 1e3)
                if run.delivery_rate is not None:
                    rates.append(run.delivery_rate)
            row += [
                mean_of(delays) if delays else None,
                mean_of(tputs) if tputs else None,
                mean_of(rates) if rates else None,
            ]
        result.rows.append(row)
    return result
