"""The benchmark's workloads: inputs derived from a seed, and output checks.

Every workload is a closed-loop batch job from one client process.  The
seed given on the command line only chooses the inputs (the network
seeds); the program never sees it.

* ``churn-vector`` — the vector engine at N=10^4 at constant density
  (``experiments.scale.scale_config``), CAEM scheme 1, with node churn,
  battery jitter, channel regime shifts and bursty sources: heads die
  mid-round.  The MAC mirror is its largest phase.  Each input runs the
  first 5 s of a LEACH round (election, cluster formation and steady
  traffic), so that a run holds enough fresh processes for its medians.
* ``campaign-fig11`` — the paper's Fig. 11 through the CLI, ``repro-caem
  run fig11 --preset smoke`` (18 event-kernel cells of 12 nodes), as a
  subprocess: a cold pass into an empty ``--cache`` database, then a warm
  pass served from the cache.  The smoke preset keeps the CLI, store,
  pairing and render a large share of the call and lets a run repeat the
  cycle often enough for medians.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import random
import re
import sys
from pathlib import Path
from typing import List

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

ENGINE_WORKLOADS = ("churn-vector",)
CAMPAIGN = "campaign-fig11"
WORKLOADS = ENGINE_WORKLOADS + (CAMPAIGN,)

#: The seed whose outputs are pinned in ``pins.json``.
PINNED_SEED = 1

_VECTOR_NODES = 10_000
_CHURN = dict(
    failure_rate_hz=0.005,
    mean_downtime_s=40,
    battery_jitter=0.3,
    regime_mean_interval_s=20,
    regime_sigma_db=3,
    bursty_fraction=0.5,
)


@dataclasses.dataclass(frozen=True)
class EngineWorkload:
    """``n_inputs`` vector-engine networks, each simulated for ``horizon_s``."""

    name: str
    n_inputs: int
    horizon_s: float

    def input_seeds(self, seed: int) -> List[int]:
        rng = random.Random(f"{self.name}/{seed}")
        return [rng.randrange(1, 2**31) for _ in range(self.n_inputs)]

    def configs(self, seed: int):
        from repro.config import Protocol
        from repro.experiments.scale import scale_config

        return [
            scale_config(
                _VECTOR_NODES, Protocol.CAEM_ADAPTIVE, s, backend="vector"
            ).with_dynamics(**_CHURN)
            for s in self.input_seeds(seed)
        ]

    def options(self):
        from repro.api import RunOptions

        # ext-scale's observation settings (bounded series).
        return RunOptions(
            horizon_s=self.horizon_s, sample_interval_s=5.0, max_series_samples=64
        )

    def node_seconds(self, configs) -> float:
        return sum(cfg.n_nodes * self.horizon_s for cfg in configs)


ENGINES = {"churn-vector": EngineWorkload("churn-vector", 1, 5.0)}


def campaign_seed(seed: int) -> int:
    return random.Random(f"{CAMPAIGN}/{seed}").randrange(1, 2**31)


def campaign_argv(seed: int, cache: str, executor: str) -> List[str]:
    """The CLI line of one campaign pass (without the interpreter)."""
    return [
        "run", "fig11", "--preset", "smoke", "--seeds", str(campaign_seed(seed)),
        "--cache", cache, "--executor", executor,
    ]


_CACHE_LINE = re.compile(
    r"cache: (\d+)/\d+ cells served from store .*?, (\d+) simulated"
)


def cache_counts(stderr: str):
    """(hits, simulated) from the CLI's ``cache:`` stderr line, or Nones."""
    match = _CACHE_LINE.search(stderr)
    return (int(match.group(1)), int(match.group(2))) if match else (None, None)


def fingerprint(run) -> str:
    """sha256 of a ``RunResult`` without its observational wall time."""
    data = run.to_dict()
    data.pop("wall_time_s")
    return hashlib.sha256(json.dumps(data, sort_keys=True).encode()).hexdigest()


def text_fingerprint(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def load_pins() -> dict:
    with open(Path(__file__).with_name("pins.json"), encoding="utf-8") as fh:
        return json.load(fh)
