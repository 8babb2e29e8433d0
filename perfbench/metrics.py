"""Every metric the benchmark reports, and what each layer metric should move.

``BENCHMARK.json`` is generated from these tables (``python3
perfbench/metrics.py > BENCHMARK.json``) and a test keeps the two equal.
The per-layer table carries, beyond the file's keys, the end-to-end
metric each layer metric should move and the workloads where it moves
most, so a later change can cite its claim from here.
"""

from __future__ import annotations

import json

RUN_SECONDS = 60

#: (name, why) — why each workload was chosen.
WORKLOADS = (
    ("churn-vector",
     "vector engine at N=10^4 with churn, jitter, regime shifts and bursty sources: "
     "the MAC mirror is the largest phase, and traffic/energy grow as heads die"),
    ("campaign-fig11",
     "repro-caem run fig11 --preset smoke as a subprocess: a cold pass into an empty "
     "cache writes the store, a warm pass reads, pairs and renders from it"),
)

#: (name, unit, better, bound)
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("cold_s", "s", "lower", 0.25),
    ("warm_s", "s", "lower", 0.25),
    ("node_s_per_s", "node-s/s", "higher", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
)

_ENGINES = ("churn-vector",)
_CAMPAIGN = ("campaign-fig11",)
_ALL = _ENGINES + _CAMPAIGN

#: (name, unit, better, should move, workloads where it moves most)
PER_LAYER = (
    ("kernel.overhead_s", "s", "lower", "node_s_per_s", _ENGINES),
    ("kernel.events", "count", "lower", "node_s_per_s", _ENGINES),
    ("mac.self_s", "s", "lower", "node_s_per_s", _ENGINES),
    ("mac.calls", "count", "lower", "node_s_per_s", _ENGINES),
    ("mac.collisions", "count", "lower", "node_s_per_s", _ENGINES),
    ("mac.delivered_ratio", "ratio", "higher", "node_s_per_s", _ENGINES),
    ("traffic.self_s", "s", "lower", "node_s_per_s", ("churn-vector",)),
    ("traffic.calls", "count", "lower", "node_s_per_s", ("churn-vector",)),
    ("energy.self_s", "s", "lower", "node_s_per_s", ("churn-vector",)),
    ("energy.calls", "count", "lower", "node_s_per_s", ("churn-vector",)),
    ("channel.self_s", "s", "lower", "node_s_per_s", _CAMPAIGN),
    ("channel.calls", "count", "lower", "node_s_per_s", _CAMPAIGN),
    ("policy.self_s", "s", "lower", "node_s_per_s", _ENGINES),
    ("policy.calls", "count", "lower", "node_s_per_s", _ENGINES),
    ("membership.self_s", "s", "lower", "node_s_per_s", _ENGINES),
    ("membership.calls", "count", "lower", "node_s_per_s", _ENGINES),
    ("phy.self_s", "s", "lower", "node_s_per_s", _CAMPAIGN),
    ("phy.calls", "count", "lower", "node_s_per_s", _CAMPAIGN),
    ("metrics.self_s", "s", "lower", "node_s_per_s", _CAMPAIGN),
    ("metrics.calls", "count", "lower", "node_s_per_s", _CAMPAIGN),
    ("unattributed_s", "s", "lower", "node_s_per_s", _CAMPAIGN),
    ("dynamics.churn_failures", "count", "lower", "none", ("churn-vector",)),
    ("dynamics.orphaned", "count", "lower", "none", ("churn-vector",)),
    ("api.simulate_s", "s", "lower", "cold_s", _CAMPAIGN),
    ("api.cells", "count", "lower", "cold_s", _CAMPAIGN),
    ("exec.parallel_efficiency", "ratio", "higher", "cold_s", _CAMPAIGN),
    ("service.store_write_s", "s", "lower", "cold_s", _CAMPAIGN),
    ("service.rows_written", "count", "lower", "cold_s", _CAMPAIGN),
    ("service.store_read_s", "s", "lower", "warm_s", _CAMPAIGN),
    ("api.pairing_s", "s", "lower", "warm_s", _CAMPAIGN),
    ("experiments.render_s", "s", "lower", "warm_s", _CAMPAIGN),
    ("service.cache_hits", "count", "higher", "warm_s", _CAMPAIGN),
    ("service.cache_misses", "count", "lower", "warm_s", _CAMPAIGN),
    ("trace.overhead_ratio", "ratio", "lower", "none", _ALL),
)

UNITS = {name: unit for name, unit, *_ in END_TO_END + PER_LAYER}


def benchmark_json() -> dict:
    """The content of ``BENCHMARK.json``."""
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": why} for n, why in WORKLOADS],
        "end_to_end": [
            {"name": n, "unit": u, "better": b, "bound": bound}
            for n, u, b, bound in END_TO_END
        ],
        "per_layer": [
            {"name": n, "unit": u, "better": b} for n, u, b, _, _ in PER_LAYER
        ],
    }


if __name__ == "__main__":
    print(json.dumps(benchmark_json(), indent=2))
