"""The canonical per-run measurement record: :class:`RunResult`.

Every simulation — whether launched through :func:`repro.api.Scenario.run`
or a :class:`repro.api.Campaign` — distils into one :class:`RunResult`
through :func:`repro.api.simulate`.  The record is a plain dataclass so
it pickles across worker processes and round-trips through JSON for
the :class:`repro.api.ResultStore`.

Both engines fill it the same way: each returns the fields it measured
(:data:`COUNTER_FIELDS` among them) and a :class:`RunTotals`, and
:func:`repro.api.engine.derive` computes the rest.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Any, Dict, List, NamedTuple, Optional, Sequence

__all__ = ["COUNTER_FIELDS", "RunResult", "RunTotals", "SERIES_FIELDS"]

#: RunResult fields that hold time series / per-node vectors rather than
#: scalars.  :meth:`RunResult.scalar_summary` (the query/browse view)
#: omits them.
SERIES_FIELDS = (
    "sample_times_s",
    "mean_energy_j",
    "alive_counts",
    "up_counts",
    "queue_snapshots",
    "death_times_s",
    "energy_breakdown",
)

#: Counters both engines keep under these names and report as measured.
#: The event kernel's :class:`~repro.network.NetworkStats` holds all but
#: the first four, which the network sums over its nodes.
COUNTER_FIELDS = (
    "generated", "dropped_overflow", "dropped_retry", "collisions",
    "delivered", "delivered_local", "lost_channel", "cluster_delivered",
    "uplink_lost_channel", "uplink_dropped_retry", "uplink_dropped_overflow",
    "uplink_stranded", "churn_failures", "churn_recoveries", "regime_shifts",
    "orphaned", "first_failure_s",
)


class RunTotals(NamedTuple):
    """What the derived fields need from an engine but the record omits."""

    #: Simulated seconds covered: the horizon, or the instant
    #: ``stop_when_dead`` ended the run.
    elapsed_s: float
    #: Payload bits delivered, radio and local.
    delivered_bits: int
    #: Sum and count of every radio delivery's delay, and the delays the
    #: percentiles read: all of them, or a reservoir sample under
    #: ``ScaleConfig.max_delay_samples``.
    delay_sum_s: float
    delay_count: int
    delay_samples: Sequence[float]
    #: Sum and count of the radio hops of every sink delivery.
    hop_sum: float
    hop_count: int
    #: Churn-aware death times: a node down at the end (failed, never
    #: recovered) is dead from its last failure.  None without dynamics.
    effective_deaths: Optional[List[Optional[float]]]
    #: Payload bits delivered from nodes still up at the end.  None
    #: without dynamics, or when no delivery was credited to a source.
    survivor_bits: Optional[int]


@dataclass
class RunResult:
    """Everything measured in one simulation run.

    Delivery accounting
    -------------------
    Two delivery counters exist and the derived metrics deliberately use
    *different* denominators:

    * ``delivered`` counts packets carried over the **radio** (sensor →
      cluster head bursts).  ``energy_per_packet_j`` divides total consumed
      energy by this count only — it is the paper's Fig. 11 metric
      ("energy consumed for successfully *transmitting* one data packet");
      a cluster head's own packets are aggregated locally without any radio
      transmission and would artificially deflate a per-transmission cost.
    * ``delivered_local`` counts those locally aggregated cluster-head
      packets.  ``delivery_rate`` uses ``total_delivered`` (radio + local)
      over ``generated``, because a locally aggregated packet *has* reached
      the data sink's side of the network and counting it lost would
      understate end-to-end delivery.

    In short: energy-per-packet is a **radio-cost** metric, delivery rate
    is an **end-to-end** metric.  Both choices are intentional and
    consistent throughout the figures, tests, and stores.

    With the uplink tier enabled (``routing.mode`` of ``"direct"`` or
    ``"multihop"``) the same two rules hold with the sink moved to the end
    of the relay stack: ``delivered`` counts packets that *reached the
    network sink* over the air (members' and heads' own packets alike, so
    ``delivered_local`` stays 0), and the ``uplink_*`` fields break down
    what the relay stack lost in transit.  ``cluster_delivered`` counts
    member→head hop completions (the relay ingress), so the cluster hop
    remains observable even though it no longer terminates delivery.
    """

    protocol: str
    seed: int
    load_pps: float
    horizon_s: float
    #: Network size the run simulated (informational; 0 in legacy
    #: stores).  Store-to-scenario pairing is discriminated by
    #: ``config_digest`` below, which covers this and every other config
    #: field.
    n_nodes: int = 0
    #: SHA-256 of the full NetworkConfig that produced this run (stamped
    #: by the engine).  The decisive store-resolution discriminator:
    #: sweep cells that differ only inside a sub-config (churn rate,
    #: sink position, relay mode, ...) share every scalar coordinate
    #: above, and matching on the digest refuses a mis-pair loudly
    #: instead of silently pairing stored runs by file order.  Empty
    #: only in legacy stores, which are refused at re-render.
    config_digest: str = ""
    #: Name of the registered experiment that produced this run (stamped
    #: by the figure harness); None for ad-hoc Scenario/Campaign runs.
    #: Stores use it to refuse re-rendering one experiment's table from
    #: another experiment's runs.
    experiment: Optional[str] = None
    # Time series.
    sample_times_s: List[float] = field(default_factory=list)
    mean_energy_j: List[float] = field(default_factory=list)
    alive_counts: List[int] = field(default_factory=list)
    queue_snapshots: List[List[int]] = field(default_factory=list)
    # Scalars.
    death_times_s: List[Optional[float]] = field(default_factory=list)
    lifetime_s: Optional[float] = None
    first_death_s: Optional[float] = None
    death_spread_s: Optional[float] = None
    generated: int = 0
    delivered: int = 0
    delivered_local: int = 0
    lost_channel: int = 0
    dropped_overflow: int = 0
    dropped_retry: int = 0
    collisions: int = 0
    total_consumed_j: float = 0.0
    #: Radio energy cost: ``total_consumed_j / delivered`` (radio only —
    #: see the class docstring's "Delivery accounting").
    energy_per_packet_j: Optional[float] = None
    mean_delay_s: float = 0.0
    #: End-to-end delay distribution markers (None until any delivery).
    delay_p50_s: Optional[float] = None
    delay_p90_s: Optional[float] = None
    delay_p99_s: Optional[float] = None
    throughput_bps: float = 0.0
    # Uplink tier (all zero/None while routing.mode == "local").
    cluster_delivered: int = 0
    uplink_lost_channel: int = 0
    uplink_dropped_retry: int = 0
    uplink_dropped_overflow: int = 0
    uplink_stranded: int = 0
    #: Mean radio hops per sink delivery (0.0 while routing is disabled).
    mean_hop_count: float = 0.0
    #: Energy ledgered to the long-haul hops (uplink_tx + uplink_rx), J.
    uplink_energy_j: float = 0.0
    # Dynamics.  The counters and series below are identically
    # zero/None/empty while the dynamics block is off;
    # ``lifetime_effective_s`` and ``delivery_rate_offered`` are always
    # computed and *collapse to* ``lifetime_s`` / ``delivery_rate`` on a
    # churn-free run — filter dynamics runs by ``churn_failures`` or
    # ``up_counts``, not by these two.
    #: Operational-node counts sampled alongside ``alive_counts`` (an
    #: "up" node has battery left *and* is not churn-failed); collected
    #: only when dynamics are enabled.
    up_counts: List[int] = field(default_factory=list)
    #: Applied churn failures / recoveries and regime shifts.
    churn_failures: int = 0
    churn_recoveries: int = 0
    regime_shifts: int = 0
    #: Packets lost with the volatile memory of churn-failed nodes.
    orphaned: int = 0
    #: Time of the first applied churn failure (None: no churn).
    first_failure_s: Optional[float] = None
    #: Churn-aware lifetime: like ``lifetime_s`` but a node that was down
    #: at the end of the run (failed, never recovered) counts as dead at
    #: its last failure time.  Equal to ``lifetime_s`` without churn.
    lifetime_effective_s: Optional[float] = None
    #: Churn-aware delivery: ``total_delivered / (generated - orphaned)``
    #: — the denominator excludes packets that died *with their node*
    #: and were never the protocol's to deliver.  Equal to
    #: ``delivery_rate`` when nothing was orphaned.
    delivery_rate_offered: Optional[float] = None
    #: Delivered payload bits/s credited to nodes still up at the end of
    #: the run — what the surviving network actually sustained.
    survivor_throughput_bps: float = 0.0
    #: End-to-end delivery: ``total_delivered / generated`` (radio + local
    #: — see the class docstring's "Delivery accounting").
    delivery_rate: Optional[float] = None
    energy_breakdown: Dict[str, float] = field(default_factory=dict)
    #: Kernel callbacks executed — a deterministic size/work proxy the
    #: scale experiment reports alongside wall time.
    events_processed: int = 0
    #: Decimation factor of the stored time series (1 = exact; > 1 when
    #: RunOptions.max_series_samples bounded the series — samples are
    #: ``stride`` base intervals apart).
    series_stride: int = 1
    wall_time_s: float = 0.0

    @property
    def total_delivered(self) -> int:
        """Radio + local deliveries (the ``delivery_rate`` numerator)."""
        return self.delivered + self.delivered_local

    # -- dict / JSON round-trip ------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        """Flatten to a JSON-serialisable dict (inverse of :meth:`from_dict`)."""
        return dataclasses.asdict(self)

    def scalar_summary(self) -> Dict[str, Any]:
        """Scalar-only view (series dropped) for query/browse output.

        This is what ``repro-caem query`` prints and what the campaign
        server's ``/runs`` endpoint returns per row — the full record
        (series included) stays available via :meth:`to_dict`.
        """
        data = self.to_dict()
        for name in SERIES_FIELDS:
            data.pop(name, None)
        return data

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "RunResult":
        """Rebuild from :meth:`to_dict` output.

        Unknown keys are ignored (forward compatibility with stores written
        by newer versions); missing optional fields fall back to their
        defaults (rows from stores written before a field existed).
        """
        known = {f.name for f in dataclasses.fields(cls)}
        kwargs = {k: v for k, v in data.items() if k in known}
        return cls(**kwargs)
