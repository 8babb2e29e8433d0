"""The runnable sensor network: LEACH rounds over the CAEM stack.

:class:`SensorNetwork` builds everything from a
:class:`~repro.config.NetworkConfig` and drives the paper's operational
loop:

* at every round boundary (20 s): tear down the previous clusters, run the
  LEACH election among alive nodes, flip the elected nodes into heads,
  build one :class:`~repro.channel.medium.DataChannel` +
  :class:`~repro.mac.tone.ToneBroadcaster` per cluster (orthogonal
  frequencies → no inter-cluster interference), draw a fresh
  :class:`~repro.channel.link.Link` for every member→head pair, and attach
  the sensor MACs;
* when a head dies mid-round its members are detached (they lose the tone
  signal, power down, and wait for the next round — §III-B);
* meters are settled on a fixed cadence so battery deaths are detected
  promptly and metric snapshots are exact.

With the uplink tier enabled (``cfg.routing.mode`` of ``"direct"`` or
``"multihop"``) the network additionally owns the :class:`repro.routing`
stack: a placed :class:`~repro.routing.sink.Sink`, one shared long-haul
:class:`~repro.channel.medium.DataChannel` (orthogonal to every cluster
channel), and a per-round :class:`~repro.routing.uplink.UplinkRelay` per
head wired along the :func:`~repro.routing.policies.plan_routes` next-hop
table.  The default ``"local"`` mode builds none of this and reproduces
the paper's head-is-the-sink terminus bit-for-bit.

With dynamics enabled (any :class:`~repro.config.DynamicsConfig` knob
non-zero) the network also owns a :class:`repro.dynamics.EventTimeline`
that injects adversity mid-run: churn failures reuse the head-death
machinery (members detach, relays strand their cargo, the failed node's
queue is orphaned), recoveries re-enter at the next LEACH round, and
shadowing regime shifts move every active link's mean SNR at once.  The
all-default block builds none of this and stays byte-identical to the
static network.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..channel import Link, LinkBudget
from ..channel.medium import DataChannel
from ..cluster import LeachElection, Topology
from ..config import NetworkConfig
from ..dynamics import EventTimeline
from ..energy import RadioEnergyModel
from ..errors import SimulationError
from ..mac import ClusterContext, ToneChannelSpec
from ..metrics.lifetime import dead_threshold
from ..phy import AbicmTable
from ..rng import RngRegistry
from ..routing import Sink, UplinkRelay, plan_routes
from ..sim import Simulator, Tracer
from ..traffic.packet import Packet
from .node import NodeRole, SensorNode
from .stats import NetworkStats

__all__ = ["SensorNetwork"]


class SensorNetwork:
    """A complete, runnable CAEM/LEACH sensor network."""

    def __init__(self, cfg: NetworkConfig, tracer: Optional[Tracer] = None) -> None:
        self.cfg = cfg
        self.sim = Simulator()
        self.tracer = tracer
        self.rngs = RngRegistry(cfg.seed)
        self.stats = NetworkStats(
            track_sources=cfg.dynamics.enabled,
            max_delay_samples=cfg.scale.max_delay_samples,
            reservoir_rng=(
                self.rngs.stream("stats/reservoir")
                if cfg.scale.max_delay_samples is not None
                else None
            ),
        )

        # Shared substrate.
        self.abicm = AbicmTable.from_config(cfg.phy)
        self.model = RadioEnergyModel(
            cfg.energy, uplink_tx_power_w=cfg.routing.uplink_tx_power_w
        )
        self.tone_spec = ToneChannelSpec(cfg.tone)
        self.budget = LinkBudget.from_config(cfg.channel)
        #: Long-haul budget: same path loss and noise floor, boosted TX.
        self.uplink_budget = LinkBudget(
            self.budget.pathloss,
            cfg.routing.uplink_tx_power_w,
            cfg.channel.noise_floor_dbm,
        )
        if cfg.placement == "grid":
            self.topology = Topology.grid(cfg.n_nodes, cfg.field_size_m)
        else:
            self.topology = Topology.uniform(
                cfg.n_nodes, cfg.field_size_m, self.rngs.stream("topology")
            )
        self.election = LeachElection(cfg.leach, self.rngs.stream("leach"))

        # Uplink tier (None while routing.mode == "local").
        self.sink: Optional[Sink] = None
        self.uplink_channel: Optional[DataChannel] = None
        if cfg.routing.enabled:
            self.topology.place_sink(cfg.routing.sink_position)
            self.sink = Sink(
                self.topology.sink_position,
                on_delivered=self.stats.on_sink_delivered,
            )
            self.uplink_channel = DataChannel(self.sim, name="uplink")

        # Dynamics (repro.dynamics): per-node construction overrides are
        # drawn up-front from dedicated streams, in node-id order, so
        # they are deterministic and never touch the static streams.
        # With dynamics disabled nothing is drawn and every override is
        # None — construction is bit-identical to the static network.
        energy_overrides: List[Optional[float]] = [None] * cfg.n_nodes
        source_overrides: List[Optional[str]] = [None] * cfg.n_nodes
        if cfg.dynamics.enabled:
            if cfg.dynamics.battery_jitter > 0:
                j = cfg.dynamics.battery_jitter
                factors = self.rngs.stream("dynamics/battery").uniform(
                    1.0 - j, 1.0 + j, cfg.n_nodes
                )
                base_j = cfg.energy.initial_energy_j
                energy_overrides = [base_j * float(f) for f in factors]
            if cfg.dynamics.bursty_fraction > 0:
                picks = self.rngs.stream("dynamics/traffic").random(cfg.n_nodes)
                source_overrides = [
                    "onoff" if float(u) < cfg.dynamics.bursty_fraction else None
                    for u in picks
                ]

        # Nodes.
        self.nodes: List[SensorNode] = [
            SensorNode(
                self.sim,
                i,
                cfg,
                self.abicm,
                self.model,
                self.tone_spec,
                self.rngs.stream(f"node/{i}"),
                on_death=self._on_node_death,
                on_head_ingress=self._on_head_ingress,
                tracer=tracer,
                initial_energy_j=energy_overrides[i],
                source_model=source_overrides[i],
            )
            for i in range(cfg.n_nodes)
        ]

        #: Current network-wide shadowing regime offset, dB (dynamics).
        self._regime_offset_db = 0.0
        #: The dynamics injector (None while every mechanism is off).
        self.timeline: Optional[EventTimeline] = None
        if cfg.dynamics.enabled:
            self.timeline = EventTimeline(
                self.sim,
                cfg.dynamics,
                self.rngs,
                cfg.n_nodes,
                fail=self._fail_node,
                recover=self._recover_node,
                regime_shift=self._apply_regime_shift,
            )

        self.round_index = 0
        #: Link pools: a member's Link (and its block-normal cache) is
        #: recycled across rounds via Link.rebind instead of reallocated —
        #: bit-identical because each round's dedicated stream is rebound
        #: into the recycled cache.
        #: Keyed by member id (cluster tier) / head id (uplink tier).
        self._link_pool: Dict[int, Link] = {}
        self._uplink_link_pool: Dict[int, Link] = {}
        #: head id -> list of member nodes (current round).
        self._members_of: Dict[int, List[SensorNode]] = {}
        #: head id -> this round's uplink relay (routing enabled only).
        self._relays: Dict[int, UplinkRelay] = {}
        self._round_handle = None
        self._settle_handle = None
        #: Cadence for settling meters (death detection granularity).
        self.settle_interval_s = 1.0
        self._started = False

    # -- lifecycle ---------------------------------------------------------------

    def start(self) -> None:
        """Start sources, the round driver, and the settle cadence."""
        if self._started:
            raise SimulationError("network already started")
        self._started = True
        for node in self.nodes:
            node.start()
        if self.timeline is not None:
            self.timeline.start()
        self._start_round()
        self._settle_handle = self.sim.call_in_strict(
            self.settle_interval_s, self._settle_tick
        )

    def run_until(self, t: float) -> None:
        """Advance the simulation (starting it first if needed)."""
        if not self._started:
            self.start()
        self.sim.run_until(t)

    # -- round driver ------------------------------------------------------------------

    def _start_round(self) -> None:
        self._teardown_round()
        # Only operational nodes cluster: battery-dead nodes are gone for
        # good, churn-failed nodes sit this round out (is_up == alive
        # while dynamics are disabled).
        alive = [n for n in self.nodes if n.is_up]
        if alive:
            self._form_clusters(alive)
            self.round_index += 1
        # Keep the driver running even with nobody alive: metrics samplers
        # may still want the tail of the time series.  Strict re-arm: the
        # driver must never pin the clock at one instant.
        self._round_handle = self.sim.call_in_strict(
            self.cfg.leach.round_duration_s, self._start_round
        )

    def _teardown_round(self) -> None:
        # Stop relays first: uplink bursts abort on the ledger and every
        # undelivered packet returns to its head's own buffer (it re-enters
        # as ordinary traffic next round, keeping its birth time; its hop
        # count restarts — see the repro.routing.uplink module docstring)
        # — or is stranded if the head is no longer alive.
        for head_id, relay in self._relays.items():
            leftovers = relay.stop()
            if not leftovers:
                continue
            node = self.nodes[head_id]
            if node.is_up:
                for packet, _hops in leftovers:
                    node.buffer.offer(packet)  # overflow drops are counted
            else:
                self.stats.on_uplink_stranded(len(leftovers))
        self._relays.clear()
        for node in self.nodes:
            if node.mac.is_attached:
                node.mac.detach()
            if node.role is NodeRole.HEAD:
                node.become_sensor()
        self._members_of.clear()

    def _form_clusters(self, alive: List[SensorNode]) -> None:
        alive_ids = [n.id for n in alive]
        assignment = self.election.form_clusters(
            self.round_index, alive_ids, self.topology
        )
        if self.tracer is not None:
            self.tracer.annotate(
                self.sim.now, "leach.round",
                index=self.round_index, heads=list(assignment.heads),
            )
        # Relays must exist before become_head(): electing a head flushes
        # its backlog through the ingress path immediately.
        if self.cfg.routing.enabled:
            self._build_relays(list(assignment.heads))
        contexts: Dict[int, ClusterContext] = {}
        for head_id in assignment.heads:
            head = self.nodes[head_id]
            contexts[head_id] = head.become_head(
                self.rngs.stream(f"per/{head_id}"),
                on_delivered=self._cluster_delivery_sink(head_id),
                on_lost=self.stats.on_lost,
            )
            self._members_of[head_id] = []
        for node in alive:
            head_id = assignment.membership[node.id]
            if head_id == node.id:
                continue
            link = self._lease_link(
                self._link_pool,
                node.id,
                self.topology.distance(node.id, head_id),
                self.budget,
                f"link/r{self.round_index}/{node.id}->{head_id}",
                f"{node.id}->{head_id}",
            )
            node.mac.attach(contexts[head_id], link)
            self._members_of[head_id].append(node)

    def _lease_link(
        self,
        pool: Dict[int, Link],
        key: int,
        distance: float,
        budget,
        stream_name: str,
        name: str,
    ) -> Link:
        """One round's Link for an endpoint pair: the pooled one, rebound.

        Shared by the cluster and uplink tiers so the leasing policy —
        uncached per-round stream derivation (the registry stays bounded
        at scale), pool recycle via :meth:`Link.rebind` (a key's first
        lease allocates), and regime-offset application for links born
        under a shifted regime — lives in one place.
        """
        stream = self.rngs.derive(stream_name)
        link = pool.get(key)
        now = self.sim.now
        if link is None:
            link = pool[key] = Link(
                distance,
                budget,
                self.cfg.channel,
                stream,
                name=name,
                start_time_s=now,
            )
        else:
            link.rebind(distance, budget, stream, name, now)
        if self._regime_offset_db != 0.0:
            link.shift_mean_snr_db(self._regime_offset_db)
        return link

    # -- uplink tier -------------------------------------------------------------------

    def _build_relays(self, heads: List[int]) -> None:
        """Construct and wire this round's head→sink relay stack."""
        routes = plan_routes(self.cfg.routing.mode, heads, self.topology)
        for head_id in heads:
            self._relays[head_id] = UplinkRelay(
                self.sim,
                head_id,
                self.nodes[head_id].meter,
                self.uplink_channel,
                self.abicm,
                self.cfg.phy,
                self.cfg.routing,
                self.rngs.stream(f"uplink/mac/{head_id}"),
                self.stats,
                tracer=self.tracer,
            )
        for head_id in heads:
            next_id = routes[head_id]
            if next_id is None:
                distance = self.topology.sink_distance(head_id)
                far_end = "sink"
            else:
                distance = self.topology.distance(head_id, next_id)
                far_end = str(next_id)
            link = self._lease_link(
                self._uplink_link_pool,
                head_id,
                distance,
                self.uplink_budget,
                f"uplink/link/r{self.round_index}/{head_id}->{far_end}",
                f"uplink {head_id}->{far_end}",
            )
            self._relays[head_id].wire(
                link,
                None if next_id is None else self._relays[next_id],
                self.sink,
            )
        if self.tracer is not None:
            self.tracer.annotate(
                self.sim.now, "uplink.routes",
                round=self.round_index,
                routes={h: routes[h] for h in heads},
            )

    def _cluster_delivery_sink(self, head_id: int):
        """Where a head's cleanly received member bursts go.

        Local routing: straight to the stats ledger (the paper's sink).
        Uplink tier: counted as a cluster-hop delivery, then queued on the
        head's relay with one radio hop already traversed.
        """
        if not self.cfg.routing.enabled:
            return self.stats.on_delivered
        relay = self._relays[head_id]

        def deliver(packets: List[Packet], sender_id: int, now: float) -> None:
            self.stats.on_cluster_delivered(packets, sender_id, now)
            relay.offer([(p, 1) for p in packets])

        return deliver

    def _on_head_ingress(
        self, packets: List[Packet], node_id: int, now: float
    ) -> None:
        """A head aggregated its own data (zero radio cost)."""
        if not self.cfg.routing.enabled:
            self.stats.on_delivered_local(packets, node_id, now)
            return
        relay = self._relays.get(node_id)
        if relay is None:  # pragma: no cover - defensive
            self.stats.on_uplink_stranded(len(packets))
            return
        relay.offer([(p, 0) for p in packets])

    # -- death / churn handling ---------------------------------------------------------

    def _on_node_death(self, node: SensorNode) -> None:
        if self.tracer is not None:
            self.tracer.annotate(self.sim.now, "node.death", node=node.id)
        self._release_cluster_resources(node, reason="head death")

    def _release_cluster_resources(self, node: SensorNode, reason: str) -> None:
        """Unwind whatever cluster machinery a node going dark was running.

        Shared by battery death and churn failure: a downed head's relay
        strands whatever it was carrying (counted exactly once, as
        uplink_stranded) and its members are detached until the next
        round (§III-B).
        """
        relay = self._relays.pop(node.id, None)
        if relay is not None:
            leftovers = relay.stop()
            if leftovers:
                self.stats.on_uplink_stranded(len(leftovers))
                if self.tracer is not None:
                    self.tracer.annotate(
                        self.sim.now, "uplink.dropped",
                        head=node.id, reason=reason,
                        uids=[p.uid for p, _ in leftovers],
                    )
        members = self._members_of.pop(node.id, None)
        if members:
            for member in members:
                if member.mac.is_attached:
                    member.mac.detach()

    # -- dynamics hooks (driven by the EventTimeline) -----------------------------------

    def _fail_node(self, node_id: int) -> None:
        """Apply a churn failure (no-op on already-down nodes)."""
        node = self.nodes[node_id]
        if not node.is_up:
            return
        was_head = node.role is NodeRole.HEAD
        orphans = node.fail()
        self.stats.on_churn_failure(node_id, len(orphans), self.sim.now)
        if self.tracer is not None:
            self.tracer.annotate(
                self.sim.now, "node.fail",
                node=node_id, was_head=was_head,
                uids=[p.uid for p in orphans],
            )
        if was_head:
            self._release_cluster_resources(node, reason="head churn failure")

    def _recover_node(self, node_id: int) -> None:
        """Apply a churn recovery (no-op unless the node is down-but-charged)."""
        node = self.nodes[node_id]
        if not node.recover():
            return
        self.stats.on_churn_recovery(node_id, self.sim.now)
        if self.tracer is not None:
            self.tracer.annotate(self.sim.now, "node.recover", node=node_id)

    def _apply_regime_shift(self, offset_db: float) -> None:
        """Re-draw the network-wide mean attenuation (a moved obstacle).

        The freshly drawn ``offset_db`` replaces the previous regime
        offset; every *active* link shifts by the delta immediately, and
        links built in later rounds are born with the new offset applied
        (see the Link constructions above).
        """
        delta = offset_db - self._regime_offset_db
        self._regime_offset_db = offset_db
        for node in self.nodes:
            link = node.mac.link
            if link is not None:
                link.shift_mean_snr_db(delta)
        for relay in self._relays.values():
            if relay.link is not None:
                relay.link.shift_mean_snr_db(delta)
        self.stats.on_regime_shift(offset_db, self.sim.now)
        if self.tracer is not None:
            self.tracer.annotate(
                self.sim.now, "regime.shift", offset_db=offset_db
            )

    # -- settle cadence ---------------------------------------------------------------------

    def _settle_tick(self) -> None:
        for node in self.nodes:
            if node.alive:
                node.settle()
        self._settle_handle = self.sim.call_in_strict(
            self.settle_interval_s, self._settle_tick
        )

    # -- reporting ----------------------------------------------------------------------------

    @property
    def alive_count(self) -> int:
        """Nodes with battery remaining."""
        return sum(1 for n in self.nodes if n.alive)

    @property
    def up_count(self) -> int:
        """Operational nodes: battery remaining *and* not churn-failed.

        Equals :attr:`alive_count` while dynamics are disabled."""
        return sum(1 for n in self.nodes if n.is_up)

    @property
    def dead_fraction(self) -> float:
        """Fraction of nodes exhausted."""
        return 1.0 - self.alive_count / len(self.nodes)

    @property
    def is_dead(self) -> bool:
        """The paper's network-death rule, :func:`~repro.metrics.dead_threshold`
        (network_lifetime_s applies it too, so a run stopped at death always
        yields a measurable lifetime)."""
        n = len(self.nodes)
        return n - self.alive_count >= dead_threshold(n, self.cfg.dead_fraction)

    def settle_all(self) -> None:
        """Settle every meter now (exact battery levels for snapshots)."""
        for node in self.nodes:
            node.settle()

    def mean_remaining_j(self) -> float:
        """Average battery level across *all* nodes (dead count as 0)."""
        self.settle_all()
        return sum(n.battery.level_j for n in self.nodes) / len(self.nodes)

    def total_consumed_j(self) -> float:
        """Total energy drawn across the network."""
        self.settle_all()
        return sum(n.battery.drawn_j for n in self.nodes)

    def generated_packets(self) -> int:
        """Total packets produced by all sources."""
        return sum(n.source.generated for n in self.nodes)

    def dropped_overflow(self) -> int:
        """Packets lost to buffer overflow."""
        return sum(n.buffer.dropped for n in self.nodes)

    def dropped_retry(self) -> int:
        """Packets shed after the MAC retry budget."""
        return sum(n.mac.stats.packets_dropped_retry for n in self.nodes)

    def queue_lengths(self) -> List[int]:
        """Current queue length per operational node (fairness input)."""
        return [len(n.buffer) for n in self.nodes if n.is_up]

    def energy_breakdown(self) -> Dict[str, float]:
        """Network-wide per-cause energy ledger."""
        self.settle_all()
        out: Dict[str, float] = {}
        for node in self.nodes:
            for cause, joules in node.meter.by_cause.items():
                out[cause] = out.get(cause, 0.0) + joules
        return out

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<SensorNetwork n={len(self.nodes)} alive={self.alive_count} "
            f"t={self.sim.now:.1f}s round={self.round_index} "
            f"protocol={self.cfg.protocol.value}>"
        )
