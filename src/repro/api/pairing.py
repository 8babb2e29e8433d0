"""Digest pairing: line stored :class:`RunResult` rows up with scenario grids.

One scenario grid cell is identified by the 5-tuple
``(protocol, load_pps, seed, horizon_s, config_digest)``.  The first four
coordinates make mismatches human-readable; the config digest is the
decisive discriminator — sweep cells that differ only inside a sub-config
(churn rate, sink offset, network size, ...) share every scalar coordinate
but can never silently fill each other's slot.

This module is the single home of that pairing logic.  It serves two
consumers:

* :class:`repro.service.cache.RunCache` — the content-addressed run cache
  (paired cells are served from the database, missing cells are
  simulated; under :func:`repro.service.replay`, the ``--from``
  re-renderer, every missing cell is reported instead);
* ad-hoc tools that need to ask "which of these scenarios does this store
  already cover?".
"""

from __future__ import annotations

from collections import defaultdict, deque
from typing import Deque, Dict, List, Optional, Sequence, Tuple

from .result import RunResult

__all__ = [
    "PairKey",
    "scenario_key",
    "run_key",
    "describe_key",
    "pair_stored_runs",
]

#: ``(protocol, load_pps, seed, horizon_s, config_digest)``.
PairKey = Tuple[str, float, int, float, str]


def scenario_key(scenario) -> PairKey:
    """The pairing key of one scenario grid cell."""
    c = scenario.config
    return (
        c.protocol.value,
        c.traffic.packets_per_second,
        c.seed,
        scenario.options.horizon_s,
        c.digest(),
    )


def run_key(run: RunResult) -> PairKey:
    """The pairing key a stored run answers to."""
    return (run.protocol, run.load_pps, run.seed, run.horizon_s,
            run.config_digest)


def describe_key(key: PairKey) -> str:
    """Human-readable cell coordinates (digest abbreviated)."""
    digest = key[4][:12] if key[4] else "<none>"
    return (
        f"protocol={key[0]} load={key[1]:g} seed={key[2]} "
        f"horizon={key[3]:g}s config={digest}"
    )


def pair_stored_runs(
    scenarios: Sequence,
    runs: Sequence[RunResult],
    experiment_id: Optional[str] = None,
) -> Tuple[List[Optional[RunResult]], List[PairKey]]:
    """Pair every scenario with a stored run, reporting **all** misses.

    Returns ``(paired, missing)``: ``paired`` lines up index-for-index
    with ``scenarios`` (``None`` where no stored run fits) and ``missing``
    lists the pairing key of every unfilled cell, in grid order — so a
    partially populated store can report the complete remainder instead of
    failing on the first hole.

    Runs stamped by a *different* experiment are never admitted (fig11 and
    fig12 share the rate horizon but differ in buffers and queue
    collection); experiment-unstamped runs (ad-hoc Campaign output) are
    admitted when their digest matches.  Duplicate rows for one cell are
    consumed in store order, one per matching scenario.
    """
    pool: Dict[PairKey, Deque[RunResult]] = defaultdict(deque)
    for run in runs:
        if (
            experiment_id is not None
            and run.experiment is not None
            and run.experiment != experiment_id
        ):
            continue
        pool[run_key(run)].append(run)
    paired: List[Optional[RunResult]] = []
    missing: List[PairKey] = []
    for sc in scenarios:
        key = scenario_key(sc)
        bucket = pool.get(key)
        if bucket:
            paired.append(bucket.popleft())
        else:
            paired.append(None)
            missing.append(key)
    return paired, missing
