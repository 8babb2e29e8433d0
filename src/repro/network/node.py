"""A sensor node: battery + radios + buffer + source + MAC, role-switchable.

LEACH rotates the cluster-head duty, so every node carries both
personalities: as a **sensor** it runs :class:`CaemSensorMac` against its
cluster head; as a **head** it runs :class:`CaemClusterHeadMac`
(tone broadcaster + receiver) for one round.  The network layer flips
roles at round boundaries.
"""

from __future__ import annotations

import enum
from typing import Callable, List, Optional

import numpy as np

from ..channel.medium import DataChannel
from ..config import NetworkConfig
from ..energy import Battery, EnergyMeter, RadioEnergyModel
from ..errors import ClusterError
from ..mac import (
    CaemClusterHeadMac,
    CaemSensorMac,
    ClusterContext,
    ToneBroadcaster,
    ToneChannelSpec,
    build_sensor_mac,
)
from ..phy import AbicmTable, DataRadio, ToneRadio
from ..sim import Simulator
from ..traffic import PacketBuffer, make_source
from ..traffic.packet import Packet

__all__ = ["NodeRole", "SensorNode"]


class NodeRole(enum.Enum):
    """What the node is doing this round."""

    SENSOR = "sensor"
    HEAD = "head"


class SensorNode:
    """One node of the network (see module docstring).

    Parameters
    ----------
    on_death:
        Network callback fired once when the battery empties.
    on_head_ingress:
        Called with (packets, node_id, now) when this node, acting as a
        cluster head, aggregates its own sensed data at zero radio cost.
        The network layer decides the terminus: with routing disabled the
        head *is* the sink (the paper's local delivery); with the uplink
        tier enabled the packets enter the head's relay queue instead.
    initial_energy_j:
        Battery capacity override (heterogeneous-battery dynamics); None
        uses the configured ``cfg.energy.initial_energy_j``.
    source_model:
        Traffic source override (bursty-traffic dynamics); None uses the
        configured ``cfg.traffic.source_model``.
    """

    def __init__(
        self,
        sim: Simulator,
        node_id: int,
        cfg: NetworkConfig,
        abicm: AbicmTable,
        model: RadioEnergyModel,
        tone_spec: ToneChannelSpec,
        rng: np.random.Generator,
        on_death: Callable[["SensorNode"], None],
        on_head_ingress: Callable[[List[Packet], int, float], None],
        tracer=None,
        initial_energy_j: Optional[float] = None,
        source_model: Optional[str] = None,
    ) -> None:
        self.sim = sim
        self.id = node_id
        self.cfg = cfg
        self.tone_spec = tone_spec
        self.role = NodeRole.SENSOR
        self._on_death = on_death
        self._on_head_ingress = on_head_ingress

        self.battery = Battery(
            cfg.energy.initial_energy_j
            if initial_energy_j is None
            else initial_energy_j,
            self._battery_died,
        )
        self.meter = EnergyMeter(sim, model, self.battery)
        self.data_radio = DataRadio(sim, self.meter, cfg.energy.startup_time_s)
        self.tone_radio = ToneRadio(
            sim, self.meter, monitor_duty=cfg.tone.monitor_duty_cycle
        )
        self.buffer = PacketBuffer(capacity=cfg.traffic.buffer_packets)
        self.source = make_source(
            cfg.traffic.source_model if source_model is None else source_model,
            sim,
            node_id,
            cfg.phy.packet_length_bits,
            self._on_generated,
            cfg.traffic.packets_per_second,
            rng,
            cfg.traffic.onoff_on_s,
            cfg.traffic.onoff_off_s,
        )
        self.mac: CaemSensorMac = build_sensor_mac(
            cfg.protocol,
            sim,
            node_id,
            self.buffer,
            abicm,
            self.data_radio,
            self.tone_radio,
            cfg.mac,
            cfg.phy,
            cfg.policy,
            rng,
            tracer,
        )
        # Head-role machinery, built at this node's first head term.  The
        # channel/broadcaster/MAC trio survives between head terms and is
        # reset instead of reallocated (construction draws nothing, so
        # reuse is bit-identical — see CaemClusterHeadMac.reset).
        self.head_mac: Optional[CaemClusterHeadMac] = None
        self._head_stack: Optional[tuple] = None
        self.alive = True
        self.death_time_s: Optional[float] = None
        # Churn state (repro.dynamics): a *failed* node is transiently
        # down — battery intact, radios off, source silent — and may
        # recover; ``alive`` keeps its battery-death meaning throughout.
        self.failed = False
        self.last_failure_s: Optional[float] = None

    # -- traffic -----------------------------------------------------------------

    def start(self) -> None:
        """Begin sensing (start the traffic source)."""
        if self.is_up:
            self.source.start()

    def _on_generated(self, packet: Packet) -> None:
        if not self.is_up:
            return
        if self.role is NodeRole.HEAD:
            # Head-local aggregation, no radio cost; the network routes it
            # onward (or counts it delivered when the head is the sink).
            self._on_head_ingress([packet], self.id, self.sim.now)
            return
        accepted = self.buffer.offer(packet)
        if accepted:
            self.mac.policy.observe_arrival(len(self.buffer), self.sim.now)
            self.mac.notify_arrival()

    # -- role switching ------------------------------------------------------------

    def become_head(
        self,
        phy_rng: np.random.Generator,
        on_delivered,
        on_lost,
    ) -> ClusterContext:
        """Assume cluster-head duty; returns the context sensors attach to."""
        if not self.is_up:
            raise ClusterError(f"down node {self.id} elected head")
        self.mac.detach()
        self.role = NodeRole.HEAD
        if self._head_stack is not None:
            channel, broadcaster, head_mac = self._head_stack
            head_mac.reset(phy_rng, on_delivered, on_lost)
            self.head_mac = head_mac
        else:
            channel = DataChannel(self.sim, name=f"cluster-{self.id}")
            broadcaster = ToneBroadcaster(
                self.sim, self.tone_spec, self.meter, name=f"tone-{self.id}"
            )
            self.head_mac = CaemClusterHeadMac(
                self.sim,
                self.id,
                channel,
                broadcaster,
                self.data_radio,
                self.cfg.phy,
                phy_rng,
                on_delivered=on_delivered,
                on_lost=on_lost,
            )
            self._head_stack = (channel, broadcaster, self.head_mac)
        self.head_mac.start()
        # Whatever the node had queued is aggregated at zero radio cost
        # (the head reaches itself for free); the network routes it on.
        backlog = self.buffer.take(len(self.buffer))
        if backlog:
            self._on_head_ingress(backlog, self.id, self.sim.now)
        return ClusterContext(self.id, channel, broadcaster, self.head_mac)

    def become_sensor(self) -> None:
        """Drop head duty (round ended)."""
        if self.head_mac is not None:
            self.head_mac.stop()
            self.head_mac = None
        self.role = NodeRole.SENSOR

    # -- churn (repro.dynamics) ---------------------------------------------------------

    @property
    def is_up(self) -> bool:
        """Operational: battery charged *and* not transiently failed.

        With dynamics disabled ``failed`` is never set, so ``is_up``
        equals ``alive`` and every caller behaves bit-identically to the
        static network.
        """
        return self.alive and not self.failed

    def fail(self) -> List[Packet]:
        """Transient failure (churn): go dark, lose the queue.

        The node powers both radios down and stops sensing, exactly as a
        battery death does, but keeps its charge and may :meth:`recover`.
        Returns the packets orphaned from its buffer (including any burst
        that was on the air — the MAC aborts it on the ledger and requeues
        it first), so the network can account for every one of them.
        Already-down nodes return an empty list (idempotent no-op).
        """
        if not self.is_up:
            return []
        self.failed = True
        self.last_failure_s = self.sim.now
        self.source.stop()
        if self.head_mac is not None:
            self.head_mac.stop()
            self.head_mac = None
        self.role = NodeRole.SENSOR
        # detach() aborts an in-flight burst and requeues it, so the
        # buffer afterwards holds *every* packet this node still owned.
        self.mac.detach()
        return self.buffer.take(len(self.buffer))

    def recover(self) -> bool:
        """Return from a transient failure; no-op unless currently failed.

        The node resumes sensing immediately (fresh, empty queue) and
        rejoins a cluster at the next LEACH round — the same re-entry
        path members stranded by a head death take.  A battery-dead node
        never recovers.  Returns True when the transition applied.
        """
        if not self.alive or not self.failed:
            return False
        self.failed = False
        self.source.start()
        return True

    # -- death -------------------------------------------------------------------------

    def _battery_died(self) -> None:
        if not self.alive:
            return
        self.alive = False
        self.death_time_s = self.sim.now
        self.source.stop()
        if self.head_mac is not None:
            self.head_mac.stop()
            self.head_mac = None
        self.mac.shutdown()
        self._on_death(self)

    # -- reporting -----------------------------------------------------------------------

    def settle(self) -> None:
        """Flush open continuous draws so battery level is current."""
        self.meter.settle_all()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = ("alive" if self.is_up else "down") if self.alive else "dead"
        return (
            f"<SensorNode {self.id} {self.role.value} {state} "
            f"E={self.battery.level_j:.2f}J q={len(self.buffer)}>"
        )
