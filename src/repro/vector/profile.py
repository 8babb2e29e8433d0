"""Per-round phase timing for the vector engine (``--profile-rounds``).

The vector engine's wall time at population scale concentrates in a
handful of array phases — membership assignment at round boundaries,
the CSMA mirrors, the AR(1) channel advance.  :class:`RoundProfiler`
accumulates ``perf_counter`` laps per phase, flushes one record per
LEACH round, and dumps a JSON timeline that names the dominant phases
directly (no pstats spelunking).  The engine's step laps through
whichever profiler :func:`attach` gives it; an unprofiled run gets a
:class:`NullProfiler`, whose calls record nothing.

Schema (``profile_rounds/v1``)::

    {
      "schema": "profile_rounds/v1",
      "n_nodes": ..., "seed": ..., "horizon_s": ...,
      "steps": ..., "rounds": <count>, "wall_time_s": ...,
      "phase_totals_s": {"membership": ..., "mac": ..., ...},
      "timeline": [
        {"round": 0, "sim_time_s": 20.0, "steps": 200,
         "phases_s": {"membership": ..., "channel": ..., ...}},
        ...
      ]
    }

``phase_totals_s`` sums the timeline, so the two dominant phases fall
out of one ``sorted(...)`` call; the timeline itself shows how costs
drift as queues fill and nodes die.
"""

from __future__ import annotations

import json
import time
from typing import Dict, List, Union

__all__ = ["PHASES", "NullProfiler", "RoundProfiler"]

#: Canonical phase order for reports.  ``membership`` is the whole
#: round-boundary setup (election, routing plan, nearest-head grid query);
#: the rest are the per-step phases in execution order.
PHASES = (
    "membership",
    "channel",
    "traffic",
    "policy",
    "mac",
    "uplink",
    "energy",
)


class RoundProfiler:
    """Accumulates per-phase seconds and flushes one record per round."""

    def __init__(self) -> None:
        self.timeline: List[Dict[str, object]] = []
        self._cur: Dict[str, float] = {}
        self._steps = 0
        self._wall0 = time.perf_counter()

    def lap(self, phase: str, since: float) -> float:
        """Charge ``now - since`` to ``phase``; returns ``now`` for chaining."""
        now = time.perf_counter()
        self._cur[phase] = self._cur.get(phase, 0.0) + (now - since)
        return now

    def step(self) -> None:
        self._steps += 1

    def flush(self, sim_time_s: float) -> None:
        """Close the current round's accumulator at sim time ``sim_time_s``."""
        if not self._cur and not self._steps:
            return
        self.timeline.append(
            {
                "round": len(self.timeline),
                "sim_time_s": float(sim_time_s),
                "steps": self._steps,
                "phases_s": {k: round(v, 6) for k, v in sorted(self._cur.items())},
            }
        )
        self._cur = {}
        self._steps = 0

    def report(self, **meta: object) -> Dict[str, object]:
        totals: Dict[str, float] = {}
        for rec in self.timeline:
            for k, v in rec["phases_s"].items():  # type: ignore[union-attr]
                totals[k] = totals.get(k, 0.0) + float(v)
        ordered = {k: round(totals[k], 6) for k in PHASES if k in totals}
        for k in sorted(totals):  # any phase outside the canonical list
            ordered.setdefault(k, round(totals[k], 6))
        out: Dict[str, object] = {"schema": "profile_rounds/v1"}
        out.update(meta)
        out["rounds"] = len(self.timeline)
        out["steps"] = sum(int(r["steps"]) for r in self.timeline)
        out["wall_time_s"] = round(time.perf_counter() - self._wall0, 6)
        out["phase_totals_s"] = ordered
        out["timeline"] = self.timeline
        return out

    def dump(self, path: str, **meta: object) -> None:
        """Write the JSON report to ``path`` (flushes any open round first)."""
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.report(**meta), fh, indent=2, sort_keys=False)
            fh.write("\n")


class NullProfiler:
    """The profiler of an unprofiled run: every call records nothing."""

    def lap(self, phase: str, since: float) -> float:
        return since

    def step(self) -> None:
        pass

    def flush(self, sim_time_s: float) -> None:
        pass


def attach(opts) -> Union[RoundProfiler, NullProfiler]:
    """The engine-side constructor hook: a :class:`RoundProfiler` iff the
    option is set, else a :class:`NullProfiler`.

    ``getattr`` keeps the engine compatible with hand-rolled options
    objects (tests construct bare namespaces) that predate the field.
    """
    if getattr(opts, "profile_rounds", None):
        return RoundProfiler()
    return NullProfiler()
