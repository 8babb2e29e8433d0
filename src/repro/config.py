"""Validated configuration dataclasses for every subsystem.

The top-level object is :class:`NetworkConfig`; it composes one config per
subsystem and corresponds to the paper's Table II plus the Section III
protocol constants.  All configs are frozen (hashable, safely shared),
validate on construction, and round-trip through plain dicts for CSV/JSON
experiment logs.

>>> cfg = NetworkConfig()
>>> cfg.energy.data_tx_power_w
0.66
>>> NetworkConfig.from_dict(cfg.to_dict()) == cfg
True
"""

from __future__ import annotations

import dataclasses
import enum
import math
from dataclasses import dataclass, field
from typing import Any, Dict, Tuple

from . import constants as C
from .errors import ConfigError

__all__ = [
    "Protocol",
    "ChannelConfig",
    "PhyConfig",
    "EnergyConfig",
    "ToneConfig",
    "MacConfig",
    "LeachConfig",
    "TrafficConfig",
    "PolicyConfig",
    "RoutingConfig",
    "DynamicsConfig",
    "ScaleConfig",
    "NetworkConfig",
]


class Protocol(enum.Enum):
    """The three protocols compared in the paper's evaluation."""

    #: LEACH access with no channel-quality gating (baseline).
    PURE_LEACH = "pure_leach"
    #: CAEM + adaptive threshold adjustment (Scheme 1).
    CAEM_ADAPTIVE = "scheme1"
    #: CAEM with the threshold fixed at the highest class (Scheme 2).
    CAEM_FIXED = "scheme2"

    @property
    def label(self) -> str:
        """Human-readable label used in tables/figures."""
        return {
            Protocol.PURE_LEACH: "Pure LEACH",
            Protocol.CAEM_ADAPTIVE: "CAEM LEACH Scheme 1 (adaptive threshold)",
            Protocol.CAEM_FIXED: "CAEM LEACH Scheme 2 (fixed threshold)",
        }[self]


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ConfigError(message)


@dataclass(frozen=True)
class ChannelConfig:
    """Time-varying channel model parameters (paper §II-B).

    The paper models path loss + shadowing (macroscopic, 2-5 s) +
    microscopic Rayleigh fading with ~100 ms coherence for quasi-static
    nodes, reciprocal in both directions.
    """

    #: Log-distance path-loss exponent (2 = free space; 3 covers ground
    #: clutter typical of sensor fields).
    pathloss_exponent: float = 3.0
    #: Reference path loss at d0 = 1 m, in dB (≈ 915 MHz free space + margin).
    pathloss_ref_db: float = 40.0
    pathloss_ref_distance_m: float = 1.0
    #: Log-normal shadowing standard deviation, dB.
    shadowing_sigma_db: float = 4.0
    #: Shadowing decorrelation time, s ("macroscopic time scale (2-5 seconds)").
    shadowing_tau_s: float = 3.0
    #: Rayleigh fading coherence time, s ("of the order of ... ms" for <1 m/s).
    fading_coherence_s: float = 0.1
    #: Autocorrelation kernel: "exponential" (Gauss-Markov) or "jakes" (J0).
    fading_kernel: str = "exponential"
    #: Rician K-factor (linear).  0 = pure Rayleigh, the paper's model.
    rician_k: float = 0.0
    #: Transmit power used for the link-budget SNR, W (Table II data TX).
    tx_power_w: float = C.DATA_TX_POWER_W
    #: Effective noise+interference floor, dBm.  Calibrated so the
    #: *typical intra-cluster* sensor-CH link (≈20 m with 5 cluster heads
    #: in the 100 m field) sees mean SNR ≈ 20 dB, which puts all four
    #: ABICM modes in play on real cluster geometry (see
    #: :func:`repro.channel.budget.calibrate_noise_floor`).
    noise_floor_dbm: float = -71.0
    #: Minimum node separation used to clamp path-loss queries, m.
    min_distance_m: float = 1.0

    def __post_init__(self) -> None:
        _require(self.pathloss_exponent > 0, "pathloss_exponent must be > 0")
        _require(self.pathloss_ref_distance_m > 0, "reference distance must be > 0")
        _require(self.shadowing_sigma_db >= 0, "shadowing sigma must be >= 0")
        _require(self.shadowing_tau_s > 0, "shadowing tau must be > 0")
        _require(self.fading_coherence_s > 0, "fading coherence must be > 0")
        _require(
            self.fading_kernel in ("exponential", "jakes"),
            f"unknown fading kernel {self.fading_kernel!r}",
        )
        _require(self.rician_k >= 0, "Rician K must be >= 0")
        _require(self.tx_power_w > 0, "tx power must be > 0")
        _require(self.min_distance_m > 0, "min distance must be > 0")


@dataclass(frozen=True)
class PhyConfig:
    """ABICM adaptive physical layer (paper §II-B, §III-C).

    Four modes after adaptive coding + modulation: 2 Mbps / 1 Mbps /
    450 kbps / 250 kbps.  ``mode_thresholds_db`` are the CSI (SNR) switching
    points, lowest mode first; below the first threshold the link is in
    outage.  ``None`` derives them from the BER model at ``target_ber``.
    """

    rates_bps: Tuple[float, ...] = C.ABICM_RATES_BPS
    #: Switching thresholds in dB (len == len(rates)); None (default) solves
    #: them from the BER model at ``target_ber`` — see repro.phy.abicm.
    mode_thresholds_db: Tuple[float, ...] | None = None
    #: Target bit-error rate used when solving thresholds and for PER curves.
    target_ber: float = 1e-5
    #: Packet payload, bits (Table II: 2 Kbits).
    packet_length_bits: int = C.PACKET_LENGTH_BITS
    #: Per-burst PHY preamble+header overhead, bits (sync, address, CRC).
    burst_overhead_bits: int = 128

    def __post_init__(self) -> None:
        _require(len(self.rates_bps) >= 1, "need at least one ABICM rate")
        _require(
            all(r > 0 for r in self.rates_bps), "ABICM rates must be positive"
        )
        _require(
            tuple(sorted(self.rates_bps)) == tuple(self.rates_bps),
            "ABICM rates must be sorted ascending (lowest mode first)",
        )
        if self.mode_thresholds_db is not None:
            _require(
                len(self.mode_thresholds_db) == len(self.rates_bps),
                "one threshold per ABICM mode required",
            )
            _require(
                tuple(sorted(self.mode_thresholds_db))
                == tuple(self.mode_thresholds_db),
                "mode thresholds must be sorted ascending",
            )
        _require(0 < self.target_ber < 0.5, "target BER must be in (0, 0.5)")
        _require(self.packet_length_bits > 0, "packet length must be > 0")
        _require(self.burst_overhead_bits >= 0, "burst overhead must be >= 0")


@dataclass(frozen=True)
class EnergyConfig:
    """Radio power draws and battery (Table II)."""

    data_tx_power_w: float = C.DATA_TX_POWER_W
    data_rx_power_w: float = C.DATA_RX_POWER_W
    sleep_power_w: float = C.DATA_SLEEP_POWER_W
    tone_tx_power_w: float = C.TONE_TX_POWER_W
    tone_rx_power_w: float = C.TONE_RX_POWER_W
    #: Sleep -> active switch time of the data radio (the scan's unit is
    #: lost; :data:`repro.constants.RADIO_STARTUP_TIME_S` gives the reading).
    startup_time_s: float = C.RADIO_STARTUP_TIME_S
    #: Power drawn during startup; RFM-class radios burn ~TX power while
    #: the synthesizer locks.
    startup_power_w: float = C.DATA_TX_POWER_W
    #: Initial battery, J (paper: 10 J).
    initial_energy_j: float = C.INITIAL_ENERGY_J
    #: Idle power of the cluster head's data radio while clusters are
    #: quiet; tone scheduling lets it duty-cycle toward sleep level
    #: between bursts (it only needs full RX once a receive-tone episode
    #: starts), so the floor sits between sleep and full RX.
    ch_idle_power_w: float = 15e-3

    def __post_init__(self) -> None:
        for name in (
            "data_tx_power_w",
            "data_rx_power_w",
            "sleep_power_w",
            "tone_tx_power_w",
            "tone_rx_power_w",
            "startup_power_w",
            "ch_idle_power_w",
        ):
            _require(getattr(self, name) >= 0, f"{name} must be >= 0")
        _require(self.startup_time_s >= 0, "startup time must be >= 0")
        _require(self.initial_energy_j > 0, "initial energy must be > 0")
        _require(
            self.sleep_power_w <= self.data_rx_power_w,
            "sleep power should not exceed RX power",
        )


@dataclass(frozen=True)
class ToneConfig:
    """Tone signalling channel (Table I + §III-A prose)."""

    idle_period_s: float = C.TONE_IDLE_PERIOD_S
    idle_duration_s: float = C.TONE_IDLE_DURATION_S
    receive_period_s: float = C.TONE_RECEIVE_PERIOD_S
    receive_duration_s: float = C.TONE_RECEIVE_DURATION_S
    transmit_period_s: float = C.TONE_TRANSMIT_PERIOD_S
    transmit_duration_s: float = C.TONE_TRANSMIT_DURATION_S
    collision_duration_s: float = C.TONE_COLLISION_DURATION_S
    #: Time a sensor must listen before it can classify the tone state
    #: (Table II "Sensing Delay").
    sensing_delay_s: float = C.SENSING_DELAY_S
    #: Effective duty cycle of a monitoring sensor's tone receiver.  Once
    #: synchronized to the pulse schedule the receiver only wakes in
    #: windows around expected pulses (≈2 ms per 50 ms idle period /
    #: ≈2 ms per 10 ms receive period, mostly waiting on an idle channel);
    #: 0.08 is the blended default and 1.0 recovers naive always-on
    #: listening (ablation bench available).
    monitor_duty_cycle: float = 0.08

    def __post_init__(self) -> None:
        for name in (
            "idle_period_s",
            "idle_duration_s",
            "receive_period_s",
            "receive_duration_s",
            "transmit_period_s",
            "transmit_duration_s",
            "collision_duration_s",
            "sensing_delay_s",
        ):
            _require(getattr(self, name) > 0, f"{name} must be > 0")
        _require(
            self.idle_duration_s < self.idle_period_s,
            "idle pulse must be shorter than its period",
        )
        _require(
            self.receive_duration_s < self.receive_period_s,
            "receive pulse must be shorter than its period",
        )
        _require(
            0.0 < self.monitor_duty_cycle <= 1.0,
            "monitor duty cycle must be in (0, 1]",
        )


@dataclass(frozen=True)
class MacConfig:
    """CAEM medium access control (paper §III-B)."""

    contention_window: int = C.CONTENTION_WINDOW
    backoff_slot_s: float = C.BACKOFF_SLOT_S
    max_retries: int = C.MAX_RETRIES
    min_burst_packets: int = C.MIN_BURST_PACKETS
    max_burst_packets: int = C.MAX_BURST_PACKETS
    #: Latency bound: a node with a non-empty queue older than this starts
    #: an access attempt even below ``min_burst_packets`` (keeps the
    #: "smooth gathered data flow" the paper asks for; disabled with inf).
    min_burst_wait_s: float = 2.0

    def __post_init__(self) -> None:
        _require(self.contention_window >= 1, "contention window must be >= 1")
        _require(self.backoff_slot_s > 0, "backoff slot must be > 0")
        _require(self.max_retries >= 0, "max retries must be >= 0")
        _require(self.min_burst_packets >= 1, "min burst must be >= 1")
        _require(
            self.max_burst_packets >= self.min_burst_packets,
            "max burst must be >= min burst",
        )
        _require(self.min_burst_wait_s > 0, "min-burst wait must be > 0")


@dataclass(frozen=True)
class LeachConfig:
    """LEACH clustering substrate (paper §IV)."""

    #: Desired cluster-head fraction P (Table II: 5%).
    ch_fraction: float = C.LEACH_CH_FRACTION
    #: Round duration, s.
    round_duration_s: float = C.LEACH_ROUND_DURATION_S

    def __post_init__(self) -> None:
        _require(0 < self.ch_fraction <= 1, "CH fraction must be in (0, 1]")
        _require(self.round_duration_s > 0, "round duration must be > 0")


@dataclass(frozen=True)
class TrafficConfig:
    """Per-node workload (paper §IV-A: homogeneous Poisson sources)."""

    #: Mean packet generation rate per node, packets/s.
    packets_per_second: float = 5.0
    #: Buffer capacity in packets (Table II: 50).
    buffer_packets: int = C.BUFFER_SIZE_PACKETS
    #: Source model: "poisson" (paper), "cbr", "onoff" (extensions).
    source_model: str = "poisson"
    #: On/off burstiness knobs (only used by the onoff model).
    onoff_on_s: float = 1.0
    onoff_off_s: float = 4.0

    def __post_init__(self) -> None:
        _require(self.packets_per_second > 0, "packet rate must be > 0")
        _require(self.buffer_packets >= 1, "buffer must hold >= 1 packet")
        _require(
            self.source_model in ("poisson", "cbr", "onoff"),
            f"unknown source model {self.source_model!r}",
        )
        _require(self.onoff_on_s > 0 and self.onoff_off_s >= 0,
                 "on/off periods invalid")


@dataclass(frozen=True)
class PolicyConfig:
    """Scheme 1 adaptive-threshold controller constants (Fig. 6)."""

    #: Sample the queue every M packet arrivals (paper: M = 5).
    sample_interval_packets: int = C.QUEUE_SAMPLE_INTERVAL_PACKETS
    #: Arm the controller once queue length reaches this (paper: 15).
    arm_queue_length: int = C.QUEUE_ARM_THRESHOLD
    #: Initial threshold class index (highest = len(rates)-1; paper starts
    #: both schemes at 2 Mbps).
    initial_class: int | None = None

    def __post_init__(self) -> None:
        _require(self.sample_interval_packets >= 1, "sample interval must be >= 1")
        _require(self.arm_queue_length >= 1, "arm threshold must be >= 1")
        if self.initial_class is not None:
            _require(self.initial_class >= 0, "initial class must be >= 0")


@dataclass(frozen=True)
class RoutingConfig:
    """Head→sink uplink tier (extension; the paper stops at the head).

    The paper's §III topology makes each cluster head the sink for its
    cluster, so delivery ends at local aggregation.  With ``mode`` set to
    ``"direct"`` or ``"multihop"`` the reproduction grows a routed uplink:
    heads forward aggregated packets over a shared long-haul data channel
    (orthogonal to every cluster channel) to a network sink, either in one
    hop or greedily head→head→sink by sink distance.  The default
    ``"local"`` keeps the paper's behaviour bit-for-bit.
    """

    #: "local" (paper: head is the sink), "direct" (one head→sink hop), or
    #: "multihop" (greedy head→head→sink forwarding by sink distance).
    mode: str = "local"
    #: Sink coordinates (x, y) in metres; None places the sink at the
    #: field centre.  May lie outside the field (sink-distance sweeps).
    sink_position: Tuple[float, float] | None = None
    #: Drop a packet whose accumulated radio hop count would exceed this
    #: (greedy forwarding is loop-free; the cap is defensive).
    max_hops: int = 8
    #: Relay queue capacity at each head, packets.
    relay_buffer_packets: int = 256
    #: Packets per uplink burst (the cluster MAC's 8-packet cap applies
    #: to the long-haul hop too unless overridden).
    max_burst_packets: int = C.MAX_BURST_PACKETS
    #: Uplink retry budget for a collided burst before it is shed.
    max_retries: int = C.MAX_RETRIES
    #: Base hold-off when the shared uplink channel is busy, s (actual
    #: waits are jittered per head to break ties deterministically).
    retry_delay_s: float = 5e-3
    #: Sense→transmit turnaround of the long-haul radio, s: a head that
    #: sensed the channel idle commits and keys up only after this window
    #: (jittered per head), without re-sensing.  Two heads whose windows
    #: overlap collide on the ledger — the CSMA vulnerable period.
    turnaround_s: float = 0.5e-3
    #: Long-haul TX power, W.  Heads boost power for the uplink (the
    #: classic LEACH head→BS assumption); default 4x Table II's data TX
    #: (+6 dB), which covers ~60 m hops at the calibrated noise floor.
    uplink_tx_power_w: float = 4.0 * C.DATA_TX_POWER_W

    def __post_init__(self) -> None:
        _require(
            self.mode in ("local", "direct", "multihop"),
            f"unknown routing mode {self.mode!r}",
        )
        if self.sink_position is not None:
            _require(
                len(self.sink_position) == 2,
                "sink position must be an (x, y) pair",
            )
            _require(
                all(math.isfinite(v) for v in self.sink_position),
                "sink position must be finite",
            )
        _require(self.max_hops >= 1, "max hops must be >= 1")
        _require(self.relay_buffer_packets >= 1, "relay buffer must hold >= 1")
        _require(self.max_burst_packets >= 1, "uplink burst must be >= 1")
        _require(self.max_retries >= 0, "uplink retries must be >= 0")
        _require(self.retry_delay_s > 0, "uplink retry delay must be > 0")
        _require(self.turnaround_s > 0, "uplink turnaround must be > 0")
        _require(self.uplink_tx_power_w > 0, "uplink tx power must be > 0")

    @property
    def enabled(self) -> bool:
        """True when the uplink tier is active (non-paper modes)."""
        return self.mode != "local"


@dataclass(frozen=True)
class DynamicsConfig:
    """Network-dynamics injection (extension; everything defaults *off*).

    The paper's evaluation runs a static network: nodes live until their
    battery empties, the shadowing environment is stationary, and every
    source is homogeneous Poisson.  This block scripts *adversity* into a
    run — the conditions channel-adaptive energy management claims to
    survive — while keeping the default (all knobs zero) bit-identical to
    the static network.  Four independent mechanisms:

    * **node churn** — transient node failures (crash, jamming, a wilted
      antenna) and recoveries, either stochastic (per-node Poisson
      failures with exponential repair times) or scripted kill/heal
      lists.  A failed node loses its queue (counted ``orphaned``), its
      cluster reacts exactly as it does to a battery death, and a
      recovered node rejoins at the next LEACH round.  Scripted kills
      outrank stochastic repairs: a node on the kill list stays down
      until its scripted recovery (or forever), even while the Poisson
      churn chain keeps drawing around it;
    * **heterogeneous batteries** — per-node initial energy jittered
      uniformly in ``[1-j, 1+j]`` × the configured capacity;
    * **shadowing regime shifts** — at Poisson epochs the network-wide
      mean attenuation offset is re-drawn from N(0, sigma) and applied to
      every active link (a moved obstacle / weather front), shifting the
      operating SNR mid-run;
    * **bursty traffic** — a deterministic fraction of nodes swap their
      configured source for the ON/OFF bursty model (mean rate is
      preserved, so load sweeps stay comparable).

    All randomness draws from dedicated ``dynamics/*`` registry streams,
    so enabling any mechanism never perturbs the draws of the static
    simulation underneath, and runs remain bit-identical across
    processes and parallelism.
    """

    #: Per-node Poisson failure rate, 1/s (0 disables stochastic churn).
    failure_rate_hz: float = 0.0
    #: Mean exponential repair time after a stochastic failure, s
    #: (0 makes stochastic failures permanent).
    mean_downtime_s: float = 30.0
    #: Scripted kill list: ((time_s, node_id), ...).
    scripted_failures: Tuple[Tuple[float, int], ...] = ()
    #: Scripted heal list: ((time_s, node_id), ...).
    scripted_recoveries: Tuple[Tuple[float, int], ...] = ()
    #: Uniform half-width of the initial-battery jitter, as a fraction of
    #: the configured capacity (0 keeps batteries homogeneous).
    battery_jitter: float = 0.0
    #: Mean interval between shadowing regime shifts, s (0 disables).
    regime_mean_interval_s: float = 0.0
    #: Std-dev of the re-drawn network-wide mean attenuation offset, dB.
    regime_sigma_db: float = 4.0
    #: Fraction of nodes switched to the bursty ON/OFF source model.
    bursty_fraction: float = 0.0

    def __post_init__(self) -> None:
        _require(self.failure_rate_hz >= 0, "failure rate must be >= 0")
        _require(self.mean_downtime_s >= 0, "mean downtime must be >= 0")
        for label, events in (
            ("scripted_failures", self.scripted_failures),
            ("scripted_recoveries", self.scripted_recoveries),
        ):
            for entry in events:
                _require(
                    len(entry) == 2,
                    f"{label} entries must be (time_s, node_id) pairs",
                )
                t, node = entry
                _require(t >= 0, f"{label} times must be >= 0")
                _require(
                    int(node) == node and node >= 0,
                    f"{label} node ids must be non-negative integers",
                )
        _require(
            0 <= self.battery_jitter < 1,
            "battery jitter must be in [0, 1)",
        )
        _require(
            self.regime_mean_interval_s >= 0,
            "regime interval must be >= 0",
        )
        _require(self.regime_sigma_db >= 0, "regime sigma must be >= 0")
        _require(
            0 <= self.bursty_fraction <= 1,
            "bursty fraction must be in [0, 1]",
        )

    @property
    def enabled(self) -> bool:
        """True when any dynamics mechanism is active.

        Derived, not stored: there is no way to configure adversity and
        have it silently ignored, and the all-default block is guaranteed
        inert (the golden-hash tests pin the byte-identity).
        """
        return bool(
            self.failure_rate_hz > 0
            or self.scripted_failures
            or self.scripted_recoveries
            or self.battery_jitter > 0
            or (self.regime_mean_interval_s > 0 and self.regime_sigma_db > 0)
            or self.bursty_fraction > 0
        )

    @property
    def churn_enabled(self) -> bool:
        """True when any failure source (stochastic or scripted) exists."""
        return bool(
            self.failure_rate_hz > 0
            or self.scripted_failures
            or self.scripted_recoveries
        )


@dataclass(frozen=True)
class ScaleConfig:
    """Which engine runs a config, and how much delay detail it keeps.

    ``backend`` picks the engine; ``max_delay_samples`` bounds the
    per-delivery sample lists.  Both change what a run records, so both
    are part of the config digest.  The machinery that keeps 1000+ node
    event runs practical (the nearest-head grid, link and head-stack
    recycling, lazy distances) has no switch: it is the one round path
    and changes no output byte.
    """

    #: Simulation engine: "event" (the per-node discrete-event kernel,
    #: every paper figure), "vector" (the numpy structure-of-arrays
    #: population engine in :mod:`repro.vector` for N = 10⁴–10⁵ fields),
    #: or "auto" (vector for large populations, event otherwise — see
    #: :func:`repro.vector.resolve_backend`; the vector engine covers
    #: every channel model, including Jakes and Rician K>0).
    #: The vector engine reuses the event kernel's topology, election and
    #: dynamics streams — so placements, head sets and churn timelines
    #: match exactly — while the per-packet channel/MAC micro-behaviour is
    #: statistically equivalent rather than bit-identical (see
    #: ``repro/vector/equivalence.py`` for the contract).  Serialised
    #: sparsely: ``"auto"`` resolves to its concrete choice and
    #: ``"event"`` is omitted from :meth:`NetworkConfig.to_dict`, so
    #: default digests stay byte-identical across releases and an auto
    #: config digests exactly like the equivalent explicit one.
    backend: str = "event"
    #: Memory bound on the per-delivery delay/hop sample lists: ``None``
    #: keeps the exact unbounded lists (every release so far); an integer
    #: switches :class:`repro.network.stats.NetworkStats` to a seeded
    #: reservoir sample of that size (delay *means* stay exact; the
    #: percentiles become estimates).  Not output-neutral — set it only
    #: on runs too big for exact lists.
    max_delay_samples: int | None = None

    def __post_init__(self) -> None:
        _require(
            self.backend in ("event", "vector", "auto"),
            f"unknown backend {self.backend!r}",
        )
        if self.max_delay_samples is not None:
            _require(
                self.max_delay_samples >= 1,
                "max_delay_samples must be >= 1",
            )


#: Retired knobs by config section, each at the one value every run now
#: takes.  :meth:`NetworkConfig.digest` still hashes them, so every
#: stored row keeps pairing with its cell.
_RETIRED_DIGEST_KEYS = {
    # Once chose between output-neutral event-kernel paths.
    "scale": {
        "spatial_index": "grid",
        "grid_min_heads": 8,
        "link_pool": True,
        "reuse_head_stack": True,
    },
    # Election always takes the alive set; no run ever read the knob.
    "leach": {"skip_dead_nodes": True},
}


@dataclass(frozen=True)
class NetworkConfig:
    """Top-level scenario configuration (paper Table II defaults)."""

    n_nodes: int = C.N_NODES
    field_size_m: float = C.FIELD_SIZE_M
    protocol: Protocol = Protocol.CAEM_ADAPTIVE
    seed: int = 1
    #: Fraction of exhausted nodes at which the network counts as dead.
    dead_fraction: float = C.DEAD_NETWORK_FRACTION
    #: Node placement: "uniform" (paper) or "grid" (tests/examples).
    placement: str = "uniform"

    channel: ChannelConfig = field(default_factory=ChannelConfig)
    phy: PhyConfig = field(default_factory=PhyConfig)
    energy: EnergyConfig = field(default_factory=EnergyConfig)
    tone: ToneConfig = field(default_factory=ToneConfig)
    mac: MacConfig = field(default_factory=MacConfig)
    leach: LeachConfig = field(default_factory=LeachConfig)
    traffic: TrafficConfig = field(default_factory=TrafficConfig)
    policy: PolicyConfig = field(default_factory=PolicyConfig)
    routing: RoutingConfig = field(default_factory=RoutingConfig)
    dynamics: DynamicsConfig = field(default_factory=DynamicsConfig)
    scale: ScaleConfig = field(default_factory=ScaleConfig)

    def __post_init__(self) -> None:
        _require(self.n_nodes >= 2, "need at least 2 nodes (1 CH + 1 sensor)")
        _require(
            0 < self.field_size_m < math.inf, "field size must be finite and > 0"
        )
        _require(isinstance(self.protocol, Protocol), "protocol must be a Protocol")
        _require(self.seed >= 0, "seed must be >= 0")
        _require(0 < self.dead_fraction <= 1, "dead fraction must be in (0, 1]")
        _require(
            self.placement in ("uniform", "grid"),
            f"unknown placement {self.placement!r}",
        )

    # -- conveniences ----------------------------------------------------------

    def with_(self, **changes: Any) -> "NetworkConfig":
        """Return a copy with top-level fields replaced."""
        return dataclasses.replace(self, **changes)

    def with_traffic(self, **changes: Any) -> "NetworkConfig":
        """Return a copy with traffic fields replaced."""
        return dataclasses.replace(
            self, traffic=dataclasses.replace(self.traffic, **changes)
        )

    def with_protocol(self, protocol: Protocol) -> "NetworkConfig":
        """Return a copy running a different protocol."""
        return dataclasses.replace(self, protocol=protocol)

    def with_routing(self, **changes: Any) -> "NetworkConfig":
        """Return a copy with routing fields replaced."""
        return dataclasses.replace(
            self, routing=dataclasses.replace(self.routing, **changes)
        )

    def with_dynamics(self, **changes: Any) -> "NetworkConfig":
        """Return a copy with dynamics fields replaced."""
        return dataclasses.replace(
            self, dynamics=dataclasses.replace(self.dynamics, **changes)
        )

    def with_scale(self, **changes: Any) -> "NetworkConfig":
        """Return a copy with scale-tier fields replaced."""
        return dataclasses.replace(
            self, scale=dataclasses.replace(self.scale, **changes)
        )

    # -- dict round-trip ---------------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        """Flatten to a JSON-serialisable dict.

        ``scale.backend`` serialises sparsely: the default ``"event"`` is
        omitted so every pre-existing config digests (and stores) exactly
        as it did before the vector backend existed, while ``"vector"``
        configs digest differently by design — the engines' per-packet
        micro-behaviour is statistically, not bitwise, equivalent, so
        their rows must never fill each other's cells.  ``"auto"``
        resolves to its concrete choice first (a pure function of this
        config — see :func:`repro.vector.resolve_backend`), so an auto
        config digests and pairs exactly like the explicit equivalent.
        """
        out = dataclasses.asdict(self)
        out["protocol"] = self.protocol.value
        if out["scale"].get("backend") == "auto":
            from .vector.support import resolve_backend

            out["scale"]["backend"] = resolve_backend(self)
        if out["scale"].get("backend") == "event":
            del out["scale"]["backend"]
        return out

    def digest(self) -> str:
        """Stable SHA-256 over the full configuration.

        Stamped into every :class:`repro.api.RunResult` and used by the
        experiment layer to pair stored runs back to scenario grid cells:
        two configs differing anywhere (a churn rate, a sink offset, a
        scale knob) digest differently, so a stale or reordered store can
        never silently fill the wrong cell.  The payload is
        :meth:`to_dict` plus the retired knobs at their one value
        (:data:`_RETIRED_DIGEST_KEYS`), so digests match those of
        releases that still had the knobs.

        Computed once per instance: the config is frozen, and the cached
        value lives outside the dataclass fields, so ``==``, ``hash``,
        :meth:`to_dict` and ``dataclasses.replace`` never see it.
        """
        cached = self.__dict__.get("_digest")
        if cached is not None:
            return cached
        import hashlib
        import json

        data = self.to_dict()
        for section, retired in _RETIRED_DIGEST_KEYS.items():
            data[section].update(retired)
        payload = json.dumps(data, sort_keys=True)
        digest = hashlib.sha256(payload.encode("utf-8")).hexdigest()
        object.__setattr__(self, "_digest", digest)
        return digest

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "NetworkConfig":
        """Inverse of :meth:`to_dict`."""
        data = dict(data)
        sub = {
            "channel": ChannelConfig,
            "phy": PhyConfig,
            "energy": EnergyConfig,
            "tone": ToneConfig,
            "mac": MacConfig,
            "leach": LeachConfig,
            "traffic": TrafficConfig,
            "policy": PolicyConfig,
            "routing": RoutingConfig,
            "dynamics": DynamicsConfig,
            "scale": ScaleConfig,
        }
        kwargs: Dict[str, Any] = {}
        for key, value in data.items():
            if key in sub:
                payload = dict(value)
                # JSON turns tuples into lists; restore tuple-typed fields.
                for tup_field in ("rates_bps", "mode_thresholds_db",
                                  "sink_position"):
                    if tup_field in payload and payload[tup_field] is not None:
                        payload[tup_field] = tuple(payload[tup_field])
                # Nested event lists: ((t, node), ...) pairs.
                for evt_field in ("scripted_failures", "scripted_recoveries"):
                    if evt_field in payload:
                        payload[evt_field] = tuple(
                            (float(t), int(n)) for t, n in payload[evt_field]
                        )
                kwargs[key] = sub[key](**payload)
            elif key == "protocol":
                kwargs[key] = Protocol(value)
            else:
                kwargs[key] = value
        return cls(**kwargs)
