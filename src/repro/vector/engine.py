"""The vectorized population-scale engine (``ScaleConfig.backend="vector"``).

One :class:`VectorNetwork` holds every node's state in numpy
structure-of-arrays — positions, battery levels, ring-buffer queues,
Scheme-1 policy state, per-link AR(1) shadowing/fading states — and
advances the whole population in fixed channel-coherence steps
(``ChannelConfig.fading_coherence_s``) with batched array operations.

Where the two engines must agree exactly (the golden contract pinned by
:mod:`repro.vector.equivalence`), this engine *reuses the event kernel's
named streams with identical consumption order*:

* ``topology`` — one ``uniform`` block for placement;
* ``leach`` — :class:`~repro.cluster.leach.LeachElection` is called with
  the same alive-id lists in the same round order, so head sets match
  bit-for-bit (``np.flatnonzero`` yields ascending ids, exactly the
  event network's node iteration order);
* ``dynamics/battery``, ``dynamics/traffic`` — construction overrides,
  drawn in the event kernel's order;
* ``dynamics/churn/<i>``, ``dynamics/regime`` — the full churn/regime
  timeline is *pre-played* here with draw-for-draw identical consumption
  (gap, then downtime, then next gap; gap, then offset, ...), so applied
  failure/recovery/shift counts and times match exactly.

Cluster membership is exact as well: every member attaches to its
nearest head through one :meth:`repro.topology.GridIndex.nearest_many`
call per round, the batched grid search the event kernel's election
also uses, equal bit for bit to the brute distance row (ties go to the
earliest-elected head) at any head count, with no scipy.

Everything per-packet — traffic arrivals, MAC contention, per-burst PER,
energy metering — runs on dedicated ``vector/*`` streams and a
time-stepped fluid abstraction of the CAEM MAC, so those fields are
statistically equivalent to the event kernel, not bit-identical:

* traffic is drawn as per-step batch counts (Poisson / CBR accumulator /
  two-state on-off), with arrivals stamped mid-step;
* per cluster and step, contenders race once per sub-iteration with the
  event MAC's backoff law (``u · 2^retry · slot · CW``); collisions are
  resolved by an exact fine-structure pass — a sorted-interval overlap
  count inside the radio's 20 µs startup blind window — so episodes are
  k-way, exactly one sensor (the winner, mid-transmission when the
  collision tone fires) counts a heard collision, and the later
  colliders hold the channel for their full corrupted-burst airtime;
* burst size, per-mode airtime, per-packet PER Bernoulli draws, and the
  energy charges per attempt reproduce the event MAC's arithmetic on
  arrays;
* Scheme 1's queue-sampling controller runs batched: a node that
  accumulated ``M`` accepted arrivals in a step takes one sample at the
  step's end (the event kernel samples at the exact M-th arrival).

A step's cost follows its array sizes, not its count of races.  Each
race of :meth:`VectorNetwork._mac_step` keeps only what a later race
reads: burst size, mode and airtime, the cluster busy clocks, the retry
reset, the ring pop, and the four energy charges in their order.  One
delivery pass, :meth:`VectorNetwork._mac_deliver`, then books the whole
step's bursts: ring gather, PER lookup, ``vector/phy`` Bernoulli draws,
delivery counters, delay reservoir, ``bits_by_src`` and relay offers.
It gives the bytes a pass per race would give, because:

* no ring slot popped in a step is rewritten before the pass: only
  :meth:`~VectorNetwork._traffic_step` and the round teardown enqueue,
  and both run outside the MAC phase;
* ``vector/phy`` feeds only these draws, and ``Generator.random(a)``
  followed by ``random(b)`` yields the same doubles as ``random(a + b)``;
* :meth:`~repro.vector.state.BatchReservoir.add` takes the step's delays
  with their per-race sizes: it adds each race's ``float(values.sum())``
  in race order, which keeps numpy's pairwise order per race and so the
  bits of ``delay_sum_s``, then runs one fill/replace pass and one
  ``vector/stats`` draw over the concatenation.  The uplink step's
  ``delays``/``hops`` adds still come after it;
* relay offers go per cluster in ascending order, each with the step's
  packets in race order; a relay appends and tail-drops at its cap
  exactly what one offer per race would.

The energy settle sums the step's charges with one ``np.bincount``.
It adds its weights in input order starting from 0.0, so every node's
demand is its charges summed in charge order, the same bits as one
``np.add.at`` per charge.  The charges keep their order: per-node demand
and the per-cause sums are order-sensitive floats.  When no node's
demand exceeds its level every pro-rating ratio is exactly 1.0, and the
per-cause ledger adds ``float(vals.sum())`` without the gather and
multiply.

Traffic, policy and the settle touch only the nodes that act in a step,
with the bytes a pass over every node would give:

* Steady sources draw ``poisson(rate * dt, size)`` over the up,
  non-bursty nodes alone, and ON/OFF sources only where their step rate
  is positive, i.e. the up sources that were ON during the step.
  numpy's ``random_poisson`` returns 0 for a rate of 0 without touching
  the bit generator, and ``Generator.poisson`` calls it once per element,
  in order, for an array of rates and for one rate with a size.  So
  leaving the zero-rate nodes out skips no draw and reorders none.
* The sources that got arrivals are all up.  Their accepted packets go
  onto the rings in one scatter (:meth:`VectorNetwork._enqueue`):
  packet ``j`` of a node lands in slot ``(qstart + qlen + j) % B``, and
  acceptance leaves room for every packet, so each write hits its own
  free slot and their order cannot matter.  The policy step reads the
  same ``(nodes, counts)``.
* One member pass a step, ``au`` (attached and up) and ``qual`` (the
  access rule at the step's end), serves both the MAC and the
  tone-monitoring charge of the settle.  The rule is elementwise, so
  the MAC's first sub-iteration may apply it before the busy-clock
  filter instead of after.  Within a step only a race moves a member's
  ring (a winner's pop, an exhausted collider's shed), so re-qualifying
  the rows that raced gives the settle what a fresh pass over every
  member would.

The full channel envelope is vectorised: the exponential (Gauss-Markov)
and Jakes-Doppler AR(1) fading bridges (:class:`repro.vector.state.ArStep`
mirrors :class:`repro.channel.fading.RayleighFading`'s per-gap
arithmetic) and Rician K>0 LOS/scatter mixing, all held to the
equivalence contract by :mod:`repro.vector.equivalence`.

:func:`measure` is the engine's whole interface to
:func:`repro.api.simulate`: it runs a :class:`VectorNetwork` and reads
the measured fields off its arrays; every derived ``RunResult`` field
comes from :func:`repro.api.engine.derive`, the same as for the event
kernel.  This module imports nothing from :mod:`repro.api` or
:mod:`repro.network` at load time.
"""

from __future__ import annotations

import math
import time
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..channel import LinkBudget
from ..cluster import LeachElection, Topology
from ..config import NetworkConfig, Protocol
from ..energy import RadioEnergyModel
from ..errors import ConfigError
from ..metrics.lifetime import dead_threshold
from ..phy import AbicmTable
from ..rng import RngRegistry, pcg64_states
from ..routing import plan_routes
from ..topology import GridIndex
from .profile import RoundProfiler
from .profile import attach as _attach_profiler
from .state import ArStep, BatchReservoir, PerTables, SeriesRecorder

__all__ = ["measure", "VectorNetwork"]

#: Contention sub-iterations resolved per cluster per step.  Each round
#: of the loop lets every still-qualified member race again after the
#: previous winner's burst advanced the cluster's busy clock; beyond a
#: few iterations the clock has left the step window anyway.
_MAC_SUB_ITERS = 8

#: Probability that a ready member joins a given race (see the
#: pulse-eligibility comment in :meth:`VectorNetwork._mac_step`).
_MAC_JOIN_P = 0.75

#: Barrier bookkeeping epsilon for merging pre-played dynamics events
#: into the step agenda (barrier times themselves compare exactly).
_EPS = 1e-12


def _ar_advance(sh, fx, fy, z, rho_s, sig_s, rho_f, sig_f) -> None:
    """One AR(1) step of a link set's shadowing and fading, in place.

    ``x = rho * x + sig * z`` with the same two products and one sum per
    element as the out-of-place form, so every state keeps its bits.
    Shadowing holds still when it has no innovation.
    """
    if sig_s > 0.0:
        sh *= rho_s
        z[0] *= sig_s
        sh += z[0]
    fx *= rho_f
    z[1] *= sig_f
    fx += z[1]
    fy *= rho_f
    z[2] *= sig_f
    fy += z[2]


class _DynamicsReplay:
    """Pre-played dynamics timeline (see the module docstring).

    Consumes ``dynamics/churn/<i>`` (node-id order) and
    ``dynamics/regime`` exactly as :class:`repro.dynamics.EventTimeline`
    does, then merges scripted and stochastic events into one
    time-sorted agenda.  The stable sort preserves the event kernel's
    push order for equal-time scripted entries (scripted failures, then
    scripted recoveries, then chain arms).

    The per-node churn streams come from the bulk path
    :func:`repro.rng.pcg64_states`, which must equal
    :meth:`RngRegistry.derive` for every name: one ``PCG64`` is re-seated
    to each node's start state and that node's whole chain (gap,
    downtime, next gap, ...) is drawn before the next node's, so every
    draw is the one ``rngs.stream(f"dynamics/churn/{i}")`` would give.
    Nothing reads those streams again, so none is kept in the registry.
    """

    def __init__(self, cfg: NetworkConfig, rngs: RngRegistry, horizon_s: float):
        dyn = cfg.dynamics
        for label, events in (
            ("scripted_failures", dyn.scripted_failures),
            ("scripted_recoveries", dyn.scripted_recoveries),
        ):
            for _t, node in events:
                if not 0 <= node < cfg.n_nodes:
                    raise ConfigError(
                        f"{label} names node {node}, but the network has "
                        f"{cfg.n_nodes} nodes (valid ids: 0..{cfg.n_nodes - 1})"
                    )
        agenda: List[Tuple[float, str, object]] = []
        for t, node in dyn.scripted_failures:
            if t <= horizon_s:
                agenda.append((float(t), "sfail", int(node)))
        for t, node in dyn.scripted_recoveries:
            if t <= horizon_s:
                agenda.append((float(t), "srecover", int(node)))
        if dyn.failure_rate_hz > 0:
            names = [f"dynamics/churn/{node}" for node in range(cfg.n_nodes)]
            bitgen = np.random.PCG64(0)
            rng = np.random.Generator(bitgen)
            for node, (state, inc) in enumerate(pcg64_states(rngs.master_seed, names)):
                bitgen.state = {
                    "bit_generator": "PCG64",
                    "state": {"state": state, "inc": inc},
                    "has_uint32": 0,
                    "uinteger": 0,
                }
                t = float(rng.exponential(1.0 / dyn.failure_rate_hz))
                while t <= horizon_s:
                    # Downtime drawn before the failure applies, exactly
                    # like EventTimeline._stochastic_fail.
                    downtime = (
                        float(rng.exponential(dyn.mean_downtime_s))
                        if dyn.mean_downtime_s > 0
                        else None
                    )
                    agenda.append((t, "fail", node))
                    if downtime is None:
                        break  # permanent failure: chain ends
                    t_rec = t + downtime
                    if t_rec > horizon_s:
                        break
                    agenda.append((t_rec, "recover", node))
                    t = t_rec + float(rng.exponential(1.0 / dyn.failure_rate_hz))
        if dyn.regime_mean_interval_s > 0 and dyn.regime_sigma_db > 0:
            rng = rngs.stream("dynamics/regime")
            t = float(rng.exponential(dyn.regime_mean_interval_s))
            while t <= horizon_s:
                offset = float(rng.normal(0.0, dyn.regime_sigma_db))
                agenda.append((t, "regime", offset))
                t += float(rng.exponential(dyn.regime_mean_interval_s))
        agenda.sort(key=lambda e: e[0])  # stable: insertion order on ties
        self.events = agenda
        self.cursor = 0

    def next_time(self) -> float:
        if self.cursor >= len(self.events):
            return math.inf
        return self.events[self.cursor][0]


class VectorNetwork:
    """Structure-of-arrays population state plus the stepping loop."""

    def __init__(self, cfg: NetworkConfig, opts, tracer=None) -> None:
        self.cfg = cfg
        self.opts = opts
        self.tracer = tracer
        self._prof = _attach_profiler(opts)
        n = cfg.n_nodes
        self.n = n
        self.rngs = RngRegistry(cfg.seed)

        # Shared substrate — identical construction to SensorNetwork.
        self.abicm = AbicmTable.from_config(cfg.phy)
        self.model = RadioEnergyModel(
            cfg.energy, uplink_tx_power_w=cfg.routing.uplink_tx_power_w
        )
        self.budget = LinkBudget.from_config(cfg.channel)
        self.uplink_budget = LinkBudget(
            self.budget.pathloss,
            cfg.routing.uplink_tx_power_w,
            cfg.channel.noise_floor_dbm,
        )
        if cfg.placement == "grid":
            self.topology = Topology.grid(n, cfg.field_size_m)
        else:
            self.topology = Topology.uniform(
                n, cfg.field_size_m, self.rngs.stream("topology")
            )
        self.election = LeachElection(cfg.leach, self.rngs.stream("leach"))
        if cfg.routing.enabled:
            self.topology.place_sink(cfg.routing.sink_position)

        # Construction-time dynamics overrides: same streams, same order
        # as SensorNetwork.__init__.
        level = np.full(n, cfg.energy.initial_energy_j)
        self._bursty = np.zeros(n, dtype=bool)
        if cfg.dynamics.enabled:
            if cfg.dynamics.battery_jitter > 0:
                j = cfg.dynamics.battery_jitter
                factors = self.rngs.stream("dynamics/battery").uniform(
                    1.0 - j, 1.0 + j, n
                )
                level = cfg.energy.initial_energy_j * factors
            if cfg.dynamics.bursty_fraction > 0:
                picks = self.rngs.stream("dynamics/traffic").random(n)
                self._bursty = picks < cfg.dynamics.bursty_fraction

        # Dedicated vector streams (never touched by the event kernel).
        self._chan_rng = self.rngs.stream("vector/channel")
        self._traf_rng = self.rngs.stream("vector/traffic")
        self._mac_rng = self.rngs.stream("vector/mac")
        self._phy_rng = self.rngs.stream("vector/phy")
        self._up_rng = self.rngs.stream("vector/uplink")
        stats_rng = self.rngs.stream("vector/stats")

        self.replay = _DynamicsReplay(cfg, self.rngs, opts.horizon_s)
        self._scripted_down: set = set()

        # -- node state arrays ------------------------------------------------
        self.positions = self.topology.positions
        self.level = level
        self.drawn = np.zeros(n)
        self.alive = np.ones(n, dtype=bool)
        self.failed = np.zeros(n, dtype=bool)
        self.death_time = np.full(n, np.nan)
        self.last_failure = np.full(n, np.nan)
        self.attached = np.zeros(n, dtype=bool)
        self.is_head = np.zeros(n, dtype=bool)
        self.retry = np.zeros(n, dtype=np.int64)

        # Ring-buffer queues: births, sources, start offsets, lengths.
        B = cfg.traffic.buffer_packets
        self.B = B
        self.qbirth = np.zeros((n, B))
        self.qsrc = np.zeros((n, B), dtype=np.int32)
        self.qstart = np.zeros(n, dtype=np.int64)
        self.qlen = np.zeros(n, dtype=np.int64)

        # Traffic state.
        self._cbr_acc = np.zeros(n)
        rate = cfg.traffic.packets_per_second
        on_s, off_s = cfg.traffic.onoff_on_s, cfg.traffic.onoff_off_s
        duty = on_s / (on_s + off_s) if (on_s + off_s) > 0 else 1.0
        self._onoff_rate = rate / duty if duty > 0 else rate
        self._onoff_nodes = (
            np.flatnonzero(self._bursty)
            if cfg.traffic.source_model != "onoff"
            else np.arange(n)
        )
        if cfg.traffic.source_model == "onoff":
            self._bursty = np.ones(n, dtype=bool)
        self._on_state = np.zeros(n, dtype=bool)  # start in the OFF phase
        self._on_switch = np.full(n, np.inf)
        if self._onoff_nodes.size:
            self._on_switch[self._onoff_nodes] = self._traf_rng.exponential(
                off_s if off_s > 0 else on_s, self._onoff_nodes.size
            )

        # Scheme-1 policy state (persists across rounds, like the event
        # kernel's AdaptiveThresholdPolicy which is never reset).
        n_modes = self.abicm.n_modes
        self.highest_class = n_modes - 1
        init_cls = (
            cfg.policy.initial_class
            if cfg.policy.initial_class is not None
            else self.highest_class
        )
        self.cls = np.full(n, min(init_cls, n_modes - 1), dtype=np.int64)
        self.pol_ctr = np.zeros(n, dtype=np.int64)
        self.pol_last = np.full(n, np.nan)
        self.pol_armed = np.zeros(n, dtype=bool)

        # PHY/MAC constants.
        self.thr = np.asarray(
            [self.abicm.threshold_for_class(k) for k in range(n_modes)]
        )
        self.rates = np.asarray([m.throughput_bps for m in self.abicm.modes])
        self.pertab = PerTables(self.abicm, cfg.phy.packet_length_bits)
        self.bits = cfg.phy.packet_length_bits
        self.overhead_bits = cfg.phy.burst_overhead_bits
        self.gated = cfg.protocol is not Protocol.PURE_LEACH
        mac = cfg.mac
        self._backoff_scale = mac.backoff_slot_s * mac.contention_window
        self._blind_s = cfg.energy.startup_time_s
        # Access-entry cost for a cluster whose channel sat idle: the
        # tone broadcaster emits an idle pulse the instant the channel
        # frees (so back-to-back bursts chain with only backoff+startup
        # between them), but a sensor whose queue qualifies mid-idle
        # waits half an idle period for the next pulse on average, plus
        # the sensing delay before it may classify the train.
        self._idle_entry_s = 0.5 * cfg.tone.idle_period_s + cfg.tone.sensing_delay_s
        tone = cfg.tone
        self._head_tone_duty = (
            tone.idle_duration_s / tone.idle_period_s
            + tone.transmit_duration_s / tone.transmit_period_s
        )
        self._ar = ArStep(
            cfg.channel.shadowing_sigma_db,
            cfg.channel.shadowing_tau_s,
            cfg.channel.fading_coherence_s,
            cfg.channel.fading_kernel,
        )
        # Rician LOS mixing (RayleighFading._los / _scatter_scale): the
        # scatter quadratures are scaled so total mean power stays 1.
        # K=0 degenerates to pure Rayleigh with los=0, scatter=1 — the
        # SNR arithmetic below is then bit-identical to the old path.
        k_ric = cfg.channel.rician_k
        self._los = math.sqrt(k_ric / (k_ric + 1.0))
        self._scatter = math.sqrt(1.0 / (k_ric + 1.0))
        self.dt = cfg.channel.fading_coherence_s

        # Per-round cluster state (filled by _start_round).
        self.heads = np.empty(0, dtype=np.int64)
        self.head_up = np.empty(0, dtype=bool)
        self.busy = np.empty(0)
        self.m_ids = np.empty(0, dtype=np.int64)
        self.m_cl = np.empty(0, dtype=np.int64)
        self.m_mean = np.empty(0)
        self.m_sh = np.empty(0)
        self.m_fx = np.empty(0)
        self.m_fy = np.empty(0)
        self._cluster_of_head: Dict[int, int] = {}
        # Uplink tier per-round state.
        self.next_hop = np.empty(0, dtype=np.int64)
        self.u_mean = np.empty(0)
        self.u_sh = np.empty(0)
        self.u_fx = np.empty(0)
        self.u_fy = np.empty(0)
        self.relay_q: List[List[Tuple[float, int, int]]] = []
        self.u_retry = np.empty(0, dtype=np.int64)
        self._ubusy = 0.0
        self._rr = -1

        self.round_index = 0
        self._regime_offset = 0.0
        self.steps = 0

        # -- counters / ledgers ----------------------------------------------
        self.generated = 0
        self.delivered = 0
        self.delivered_local = 0
        self.lost_channel = 0
        self.dropped_overflow = 0
        self.dropped_retry = 0
        self.collisions = 0
        self.delivered_bits = 0
        self.cluster_delivered = 0
        self.uplink_lost_channel = 0
        self.uplink_dropped_retry = 0
        self.uplink_dropped_overflow = 0
        self.uplink_stranded = 0
        self.churn_failures = 0
        self.churn_recoveries = 0
        self.regime_shifts = 0
        self.orphaned = 0
        self.first_failure_s: Optional[float] = None
        self.breakdown: Dict[str, float] = {}
        cap = cfg.scale.max_delay_samples
        self.delays = BatchReservoir(cap, stats_rng)
        self.hops = BatchReservoir(cap, stats_rng)
        self.bits_by_src = (
            np.zeros(n, dtype=np.int64) if cfg.dynamics.enabled else None
        )
        self._charges: List[Tuple[str, np.ndarray, np.ndarray]] = []

        # Series recorder: one shared cadence, decimated together (the
        # event kernel's collectors decimate independently but
        # identically, so one multi-track recorder is equivalent).
        self.recorder = SeriesRecorder(opts.sample_interval_s, opts.max_series_samples)
        self._tr_energy = self.recorder.add_track()
        self._tr_alive = self.recorder.add_track()
        self._tr_queues = self.recorder.add_track() if opts.collect_queues else None
        self._tr_up = self.recorder.add_track() if cfg.dynamics.enabled else None

    # -- derived masks -------------------------------------------------------

    @property
    def up(self) -> np.ndarray:
        """Operational nodes: battery left and not churn-failed."""
        return self.alive & ~self.failed

    @property
    def is_dead(self) -> bool:
        """The paper's dead-network rule, :func:`~repro.metrics.dead_threshold`."""
        dead = self.n - int(self.alive.sum())
        return dead >= dead_threshold(self.n, self.cfg.dead_fraction)

    def _qualifies(self, nodes: np.ndarray, t: float) -> np.ndarray:
        """The MAC access rule at ``t``: which of ``nodes`` may contend.

        A queue qualifies with a minimum burst queued, or with any packet
        that has waited ``min_burst_wait_s``.  The race in
        :meth:`_mac_step` and the tone-monitoring charge in
        :meth:`_energy_settle` both apply it.
        """
        mac = self.cfg.mac
        q = self.qlen[nodes]
        ready = q >= mac.min_burst_packets
        # Only a queue short of a burst reads its oldest birth.  qstart is
        # always stored reduced mod B: it indexes the ring as is, and
        # slot s of node i sits at i * B + s in the flat ring.
        short = np.flatnonzero((q > 0) & ~ready)
        if short.size:
            waiting = nodes[short]
            oldest = self.qbirth.ravel()[waiting * self.B + self.qstart[waiting]]
            ready[short] = t - oldest >= mac.min_burst_wait_s
        return ready

    # -- main loop -----------------------------------------------------------

    def run(self) -> float:
        """Advance to the horizon (or early death) and return elapsed time.

        Barrier agenda: physics advances in coherence-time steps between
        *exact-time barriers* — dynamics events, round boundaries, sample
        instants, death checks, the horizon.  At a shared barrier instant
        the application order is dynamics → round → sample → check, the
        event kernel's heap order for those event classes (scripted
        events are pushed first at start, round re-arms before sampler
        re-arms).  The t=0 special case is inverted (round first): the
        event kernel forms the first round inline in ``start()`` before
        the event loop pops anything.
        """
        opts = self.opts
        horizon = opts.horizon_s
        t = 0.0
        self._round_at(0.0)
        for ev_t, kind, payload in self._drain_dynamics(0.0):
            self._apply_dynamics(ev_t, kind, payload)
        self._sample(0.0)
        next_round = self.cfg.leach.round_duration_s
        next_sample = self.recorder.interval
        interval0 = opts.sample_interval_s
        next_check = interval0 if opts.stop_when_dead else math.inf
        while t < horizon:
            t_next = min(
                next_round, next_sample, next_check, horizon, self.replay.next_time()
            )
            self._advance(t, t_next)
            t = t_next
            for ev_t, kind, payload in self._drain_dynamics(t):
                self._apply_dynamics(ev_t, kind, payload)
            if t == next_round:
                self._round_at(t)
                next_round += self.cfg.leach.round_duration_s
            if t == next_sample:
                self._sample(t)
                next_sample = t + self.recorder.interval
            if t == next_check:
                if self.is_dead:
                    break
                next_check = min(next_check + interval0, horizon)
        self._prof.flush(t)
        return t

    def _round_at(self, t: float) -> None:
        """Start the round at ``t``, flushing/charging the profiler."""
        self._prof.flush(t)  # close the round that just elapsed
        w0 = time.perf_counter()
        self._start_round(t)
        self._prof.lap("membership", w0)

    def _drain_dynamics(self, t: float):
        out = []
        events = self.replay.events
        while self.replay.cursor < len(events):
            ev = events[self.replay.cursor]
            if ev[0] > t + _EPS:
                break
            out.append(ev)
            self.replay.cursor += 1
        return out

    def _advance(self, t0: float, t1: float) -> None:
        remaining = t1 - t0
        cur = t0
        while remaining > _EPS:
            sdt = self.dt if remaining > self.dt else remaining
            self._step(cur, sdt)
            cur += sdt
            remaining -= sdt

    # -- dynamics application ------------------------------------------------

    def _apply_dynamics(self, t: float, kind: str, payload) -> None:
        if kind == "sfail":
            self._scripted_down.add(payload)
            self._apply_fail(int(payload), t)
        elif kind == "srecover":
            self._scripted_down.discard(payload)
            self._apply_recover(int(payload), t)
        elif kind == "fail":
            self._apply_fail(int(payload), t)
        elif kind == "recover":
            if payload not in self._scripted_down:
                self._apply_recover(int(payload), t)
        elif kind == "regime":
            self._apply_regime(float(payload), t)

    def _apply_fail(self, node: int, now: float) -> None:
        if not (self.alive[node] and not self.failed[node]):
            return
        was_head = bool(self.is_head[node])
        orphans = int(self.qlen[node])
        self.qlen[node] = 0
        self.failed[node] = True
        self.attached[node] = False
        self.last_failure[node] = now
        self.churn_failures += 1
        self.orphaned += orphans
        if self.first_failure_s is None:
            self.first_failure_s = now
        if was_head:
            self._down_head(node)
        if self.tracer is not None:
            self.tracer.annotate(now, "node.fail", node=node, was_head=was_head)

    def _apply_recover(self, node: int, now: float) -> None:
        if not (self.alive[node] and self.failed[node]):
            return
        self.failed[node] = False
        self.churn_recoveries += 1
        if self.tracer is not None:
            self.tracer.annotate(now, "node.recover", node=node)

    def _apply_regime(self, offset_db: float, now: float) -> None:
        delta = offset_db - self._regime_offset
        self._regime_offset = offset_db
        if self.m_mean.size:
            self.m_mean += delta
        if self.u_mean.size:
            self.u_mean += delta
        self.regime_shifts += 1
        if self.tracer is not None:
            self.tracer.annotate(now, "regime.shift", offset_db=offset_db)

    def _down_head(self, node: int) -> None:
        """A head went dark mid-round: strand its relay, detach members."""
        c = self._cluster_of_head.get(node)
        if c is None:
            return
        self.head_up[c] = False
        if self.relay_q:
            stranded = len(self.relay_q[c])
            if stranded:
                self.uplink_stranded += stranded
                self.relay_q[c] = []
        if self.m_ids.size:
            self.attached[self.m_ids[self.m_cl == c]] = False

    # -- round driver --------------------------------------------------------

    def _start_round(self, now: float) -> None:
        self._teardown_round()
        alive_ids = np.flatnonzero(self.up)
        if alive_ids.size == 0:
            return
        heads = self.election.elect(self.round_index, [int(i) for i in alive_ids])
        if self.tracer is not None:
            self.tracer.annotate(
                now, "leach.round", index=self.round_index, heads=list(heads)
            )
        h = len(heads)
        self.heads = np.asarray(heads, dtype=np.int64)
        self.head_up = np.ones(h, dtype=bool)
        self.busy = np.full(h, now)
        self._cluster_of_head = {int(hd): c for c, hd in enumerate(heads)}
        routing = self.cfg.routing.enabled
        if routing:
            routes = plan_routes(self.cfg.routing.mode, heads, self.topology)
            self.next_hop = np.asarray(
                [
                    -1 if routes[hd] is None else self._cluster_of_head[routes[hd]]
                    for hd in heads
                ],
                dtype=np.int64,
            )
            self.relay_q = [[] for _ in range(h)]
            # Uplink AR(1) link state, one per head, from "vector/uplink".
            dist = np.empty(h)
            for c, hd in enumerate(heads):
                nxt = routes[hd]
                dist[c] = (
                    self.topology.sink_distance(hd)
                    if nxt is None
                    else self.topology.distance(hd, nxt)
                )
            self.u_mean = self.uplink_budget.mean_snr_db(dist) + self._regime_offset
            z = self._up_rng.standard_normal((3, h))
            sigma = self.cfg.channel.shadowing_sigma_db
            self.u_sh = sigma * z[0] if sigma > 0 else np.zeros(h)
            self.u_fx = math.sqrt(0.5) * z[1]
            self.u_fy = math.sqrt(0.5) * z[2]
            self.u_retry = np.zeros(h, dtype=np.int64)
            self._rr = -1
        # Flip heads: flush each head's backlog through the ingress path
        # (become_head), in election order like the event kernel.
        for c, hd in enumerate(heads):
            self.is_head[hd] = True
            self.retry[hd] = 0
            q = int(self.qlen[hd])
            if q:
                slots = (self.qstart[hd] + np.arange(q)) % self.B
                births = self.qbirth[hd, slots]
                srcs = self.qsrc[hd, slots]
                self.qlen[hd] = 0
                if routing:
                    self._relay_offer(c, births, np.zeros(q, dtype=np.int64), srcs)
                else:
                    self.delivered_local += q
                    self.delivered_bits += q * self.bits
                    if self.bits_by_src is not None:
                        np.add.at(self.bits_by_src, srcs, self.bits)
        # Membership: each member's nearest head, bit-exact to the brute
        # distance row (ties to the earliest-elected head) — the same
        # search LeachElection.form_clusters makes for the event kernel.
        member_mask = np.zeros(self.n, dtype=bool)
        member_mask[alive_ids] = True
        member_mask[self.heads] = False
        mem = np.flatnonzero(member_mask)
        m = mem.size
        self.m_ids = mem
        index = GridIndex(self.positions[self.heads], self.topology.field_size_m)
        self.m_cl, d = index.nearest_many(self.positions[mem])
        self.m_mean = self.budget.mean_snr_db(d) + self._regime_offset
        z = self._chan_rng.standard_normal((3, m))
        sigma = self.cfg.channel.shadowing_sigma_db
        self.m_sh = sigma * z[0] if sigma > 0 else np.zeros(m)
        self.m_fx = math.sqrt(0.5) * z[1]
        self.m_fy = math.sqrt(0.5) * z[2]
        self.attached[mem] = True
        self.retry[mem] = 0
        self.round_index += 1

    def _teardown_round(self) -> None:
        # Relay leftovers return to their head's buffer (birth and source
        # kept, hop count restarts) or are stranded with a dead head —
        # mirroring SensorNetwork._teardown_round.
        if self.relay_q:
            for c, q in enumerate(self.relay_q):
                if not q:
                    continue
                hd = int(self.heads[c])
                if self.alive[hd] and not self.failed[hd]:
                    for birth, _hops, src in q:
                        if self.qlen[hd] >= self.B:
                            self.dropped_overflow += 1
                            continue
                        slot = (self.qstart[hd] + self.qlen[hd]) % self.B
                        self.qbirth[hd, slot] = birth
                        self.qsrc[hd, slot] = src
                        self.qlen[hd] += 1
                else:
                    self.uplink_stranded += len(q)
            self.relay_q = []
        self.attached[:] = False
        self.is_head[:] = False
        self.heads = np.empty(0, dtype=np.int64)
        self.head_up = np.empty(0, dtype=bool)
        self._cluster_of_head = {}
        self.m_ids = np.empty(0, dtype=np.int64)
        self.m_cl = np.empty(0, dtype=np.int64)

    def _relay_offer(
        self, c: int, births: np.ndarray, hops: np.ndarray, srcs: np.ndarray
    ) -> None:
        """Queue packets on cluster ``c``'s relay, tail-dropping at the cap."""
        q = self.relay_q[c]
        room = self.cfg.routing.relay_buffer_packets - len(q)
        take = min(room, births.size) if room > 0 else 0
        for i in range(take):
            q.append((float(births[i]), int(hops[i]), int(srcs[i])))
        if births.size > take:
            self.uplink_dropped_overflow += births.size - take

    # -- sampling ------------------------------------------------------------

    def _sample(self, now: float) -> None:
        values: List[object] = [None] * len(self.recorder.series)
        values[self._tr_energy] = float(self.level.sum() / self.n)
        values[self._tr_alive] = int(self.alive.sum())
        if self._tr_queues is not None:
            up_ids = np.flatnonzero(self.up)
            values[self._tr_queues] = [int(q) for q in self.qlen[up_ids]]
        if self._tr_up is not None:
            values[self._tr_up] = int(self.up.sum())
        self.recorder.tick(now, values)

    # -- one physics step ----------------------------------------------------

    def _step(self, t0: float, sdt: float) -> None:
        self.steps += 1
        t1 = t0 + sdt
        self._charges = []
        up = self.up
        prof = self._prof
        prof.step()
        w = time.perf_counter()
        self._advance_channel(sdt)
        w = prof.lap("channel", w)
        nodes, counts = self._traffic_step(t0, sdt, up)
        w = prof.lap("traffic", w)
        if self.cfg.protocol is Protocol.CAEM_ADAPTIVE:
            self._policy_step(nodes, counts)
            w = prof.lap("policy", w)
        # Without heads there are no members, so none monitors the tone.
        monitoring = self.m_ids
        if self.heads.size:
            monitoring = self._mac_step(t0, t1)
            w = prof.lap("mac", w)
            if self.cfg.routing.enabled:
                self._uplink_step(t0, t1)
                w = prof.lap("uplink", w)
        self._energy_settle(t0, sdt, monitoring)
        prof.lap("energy", w)

    def _advance_channel(self, sdt: float) -> None:
        rho_s, sig_s, rho_f, sig_f = self._ar.coeffs(sdt)
        m = self.m_ids.size
        if m:
            z = self._chan_rng.standard_normal((3, m))
            _ar_advance(
                self.m_sh, self.m_fx, self.m_fy, z, rho_s, sig_s, rho_f, sig_f
            )
        h = self.u_mean.size
        if h and self.cfg.routing.enabled:
            z = self._up_rng.standard_normal((3, h))
            _ar_advance(
                self.u_sh, self.u_fx, self.u_fy, z, rho_s, sig_s, rho_f, sig_f
            )

    def _member_snr(self) -> np.ndarray:
        re = self._los + self._scatter * self.m_fx
        im = self._scatter * self.m_fy
        power = re**2 + im**2
        return self.m_mean + self.m_sh + 10.0 * np.log10(np.maximum(power, 1e-300))

    def _uplink_snr(self) -> np.ndarray:
        re = self._los + self._scatter * self.u_fx
        im = self._scatter * self.u_fy
        power = re**2 + im**2
        return self.u_mean + self.u_sh + 10.0 * np.log10(np.maximum(power, 1e-300))

    # -- traffic -------------------------------------------------------------

    def _traffic_step(
        self, t0: float, sdt: float, up: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Batch-draw arrivals and enqueue them.

        Returns ``(nodes, counts)``: the sensors that accepted arrivals,
        ascending, and how many each accepted.
        """
        cfg = self.cfg.traffic
        rate = cfg.packets_per_second
        n = self.n
        # Steady sources draw only while up (see the module docstring).
        live = np.flatnonzero(up & ~self._bursty)
        k = np.zeros(n, dtype=np.int64)
        if cfg.source_model == "cbr":
            acc = self._cbr_acc[live] + rate * sdt
            got = acc.astype(np.int64)
            self._cbr_acc[live] = acc - got
            k[live] = got
        else:
            k[live] = self._traf_rng.poisson(rate * sdt, live.size)
        # ON/OFF nodes: two-state flip chain (statistical stand-in for
        # the event kernel's OnOffSource; mean rate preserved).
        if self._onoff_nodes.size:
            ids = self._onoff_nodes
            on_frac = np.where(self._on_state[ids], sdt, 0.0)
            tend = t0 + sdt
            crossing = np.flatnonzero(self._on_switch[ids] <= tend)
            if crossing.size:
                # The crossing nodes' clocks and phases as plain floats
                # and bools: the same exponential draws in the same
                # order, the same double arithmetic, one write-back.
                cids = ids[crossing]
                on_mean = cfg.onoff_on_s
                off_mean = cfg.onoff_off_s if cfg.onoff_off_s > 0 else on_mean
                draw = self._traf_rng.exponential
                switch, state, on_times = [], [], []
                for sw, on in zip(
                    self._on_switch[cids].tolist(), self._on_state[cids].tolist()
                ):
                    on_time = 0.0
                    seg_start = t0
                    while sw <= tend:
                        if on:
                            on_time += sw - seg_start
                        seg_start = max(sw, t0)
                        on = not on
                        sw += float(draw(on_mean if on else off_mean))
                    if on:
                        on_time += tend - seg_start
                    switch.append(sw)
                    state.append(on)
                    on_times.append(on_time)
                self._on_switch[cids] = switch
                self._on_state[cids] = state
                on_frac[crossing] = on_times
            burst_lam = np.where(up[ids], self._onoff_rate, 0.0) * on_frac
            lit = np.flatnonzero(burst_lam > 0)
            k[ids[lit]] = self._traf_rng.poisson(burst_lam[lit])
        # Every source with arrivals is up.
        act = np.flatnonzero(k)
        if act.size == 0:
            return act, act
        self.generated += int(k[act].sum())
        birth = t0 + 0.5 * sdt
        # Heads aggregate their own data without the radio.
        hk = k[self.heads]
        if hk.any():
            if self.cfg.routing.enabled:
                for c in np.flatnonzero(hk):
                    cnt = int(hk[c])
                    self._relay_offer(
                        int(c),
                        np.full(cnt, birth),
                        np.zeros(cnt, dtype=np.int64),
                        np.full(cnt, self.heads[c], dtype=np.int64),
                    )
            else:
                cnt = int(hk.sum())
                self.delivered_local += cnt
                self.delivered_bits += cnt * self.bits
                if self.bits_by_src is not None:
                    np.add.at(self.bits_by_src, self.heads, hk * self.bits)
        return self._enqueue(k, act, birth)

    def _enqueue(
        self, k: np.ndarray, act: np.ndarray, birth: float
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Offer ``k[i]`` packets born at ``birth`` to each sensor ``i`` in ``act``.

        Heads in ``act`` are skipped (they aggregate without the radio)
        and what a ring has no room for is overflow.  The accepted
        packets go in with one scatter: packet ``j`` of a node lands in
        slot ``(qstart + qlen + j) % B``, and acceptance left room for
        every one, so no write lands on a queued slot or on another's.
        Returns ``(nodes, counts)``, the sensors that accepted packets
        (in ``act`` order) and how many each took.
        """
        act = act[~self.is_head[act]]
        offered = k[act]
        acc = np.minimum(offered, self.B - self.qlen[act])
        overflow = int((offered - acc).sum())
        if overflow:
            self.dropped_overflow += overflow
        took = acc > 0
        nodes, acc = act[took], acc[took]
        B = self.B
        src = np.repeat(nodes, acc)
        j = np.arange(src.size) - np.repeat(np.cumsum(acc) - acc, acc)
        flat = src * B + (self.qstart[src] + self.qlen[src] + j) % B
        self.qbirth.ravel()[flat] = birth
        self.qsrc.ravel()[flat] = src
        self.qlen[nodes] += acc
        return nodes, acc

    # -- Scheme-1 policy -----------------------------------------------------

    def _policy_step(self, nodes: np.ndarray, counts: np.ndarray) -> None:
        """Batched queue-sampling controller (repro.policy.adaptive).

        ``nodes`` accepted ``counts`` arrivals this step (ascending ids,
        as :meth:`_traffic_step` returns them).  The event kernel
        samples at every M-th accepted arrival; here a node whose
        arrival counter crossed M samples once, at step end, with its
        end-of-step queue length — one controller decision per coherence
        step at most (documented approximation).
        """
        if nodes.size == 0:
            return
        self.pol_ctr[nodes] += counts
        M = self.cfg.policy.sample_interval_packets
        smp = nodes[self.pol_ctr[nodes] >= M]
        if smp.size == 0:
            return
        self.pol_ctr[smp] %= M
        Q = self.cfg.policy.arm_queue_length
        V = self.qlen[smp].astype(float)
        prev = self.pol_last[smp]
        self.pol_last[smp] = V
        was = self.pol_armed[smp]
        arm_now = ~was & (V >= Q)
        dis = was & (V < Q)
        self.pol_armed[smp] = (was | arm_now) & ~dis
        act = (was | arm_now) & ~dis & ~np.isnan(prev)
        dv = V - prev
        hi = self.highest_class
        reset = dis | (act & (dv < 0))
        if reset.any():
            self.cls[smp[reset]] = hi
        down = act & (dv >= 0) & ~dis
        if down.any():
            ids = smp[down]
            self.cls[ids] = np.maximum(self.cls[ids] - 1, 0)

    # -- cluster MAC ---------------------------------------------------------

    def _mac_step(self, t0: float, t1: float) -> np.ndarray:
        """Race the step's contenders, cluster by cluster.

        Returns the attached, up members whose queues qualify for access
        at ``t1`` once the races are over: the ones that pay tone-radio
        monitoring in :meth:`_energy_settle`.
        """
        ids = self.m_ids
        if ids.size == 0:
            return ids
        snr = self._member_snr()
        mac = self.cfg.mac
        h = self.heads.size
        # Step-invariant eligibility, hoisted out of the race loop:
        # deaths and head outages land at the dynamics/energy barriers
        # and class updates in the policy phase, so within one step only
        # queue state and the cluster busy clocks move.  The working set
        # also only shrinks (busy clocks are monotone within a step), so
        # each sub-iteration re-evaluates the queues of a dwindling
        # candidate list instead of the whole population.  The member
        # pass ``au``/``qual`` is the step's one: the energy settle
        # reads it too (see the module docstring).
        au = self.attached[ids] & self.up[ids]
        qual = self._qualifies(ids, t1)
        base = au & self.head_up[self.m_cl]
        if self.gated:
            base &= snr >= self.thr[self.cls[ids]]
        rows = np.flatnonzero(base & qual)
        sent = []  # one _mac_transmit record per race, in race order
        raced = []  # member rows whose rings a race may have changed
        for it in range(_MAC_SUB_ITERS):
            if rows.size:
                rows = rows[self.busy[self.m_cl[rows]] < t1]
            if rows.size == 0:
                break
            # Readiness only falls within a step: a member's queue moves
            # in the MAC phase only if it raced (a winner's burst is
            # popped, an exhausted collider's is shed), and a member
            # that is not ready never races.  So dropping the unready
            # rows for good drops no one a later sub-iteration would
            # find ready; winners stay and are re-tested next time.  The
            # first sub-iteration's rows were qualified by ``qual``.
            if it:
                rows = rows[self._qualifies(ids[rows], t1)]
                if rows.size == 0:
                    break
            # Pulse-eligibility flicker: a ready sensor only joins the
            # race if it has accumulated the 8 ms sensing delay by the
            # time the idle pulse fires — losers cancelled mid-backoff
            # usually haven't and sit that pulse out.  Calibrated so the
            # per-race collision probability matches the event kernel
            # (without it every ready member races every sub-iteration
            # and episodes over-count ~1.4x).
            join = self._mac_rng.random(rows.size) < _MAC_JOIN_P
            cidx = rows[join]
            if cidx.size == 0:
                continue
            cl = self.m_cl[cidx]
            u = self._mac_rng.random(cidx.size)
            dly = (
                u
                * np.exp2(np.minimum(self.retry[ids[cidx]], mac.max_retries))
                * self._backoff_scale
            )
            # Winner per cluster: the smallest delay; on ties the last
            # occurrence in ``cidx`` order wins (tied candidates 20 and 30
            # give 30), through the last write of the tied candidates.
            d1 = np.full(h, np.inf)
            np.minimum.at(d1, cl, dly)
            d1_cl = d1[cl]
            tie = dly == d1_cl
            winner = np.full(h, -1, dtype=np.int64)
            winner[cl[tie]] = cidx[tie]
            sub = winner[cl] != cidx
            d2 = np.full(h, np.inf)
            np.minimum.at(d2, cl[sub], dly[sub])
            contested = winner >= 0
            # Exact fine-structure: sorted-interval overlap inside the
            # winner's startup blind window.  Every contender whose
            # backoff expires before the winner's radio is audible keys
            # up too — the collision is k-way, not pairwise.
            in_window = dly < d1_cl + self._blind_s
            count = np.bincount(cl[in_window], minlength=h)
            collide = contested & (count >= 2)
            clean = contested & ~collide
            if collide.any():
                coll = in_window & collide[cl]
                raced.append(cidx[coll])
                self._mac_collide(
                    np.flatnonzero(collide),
                    winner,
                    cidx[coll],
                    cl[coll],
                    d1,
                    d2,
                    snr,
                    t0,
                )
            if clean.any():
                sc = np.flatnonzero(clean)
                raced.append(winner[sc])
                sent.append(self._mac_transmit(sc, winner, d1, snr, t0))
        if sent:
            self._mac_deliver(sent)
        if raced:
            rows = np.concatenate(raced)
            qual[rows] = self._qualifies(ids[rows], t1)
        return ids[qual & au]

    def _mac_collide(
        self,
        cc: np.ndarray,
        winner: np.ndarray,
        rows: np.ndarray,
        rcl: np.ndarray,
        d1: np.ndarray,
        d2: np.ndarray,
        snr: np.ndarray,
        t0: float,
    ) -> None:
        """Resolve k-way collision episodes exactly.

        ``cc`` are the collided cluster indices; ``rows``/``rcl`` name
        every collider (member row, cluster) whose backoff landed inside
        the winner's blind window.  The event kernel's fine structure,
        reproduced here: the head's collision tone fires when the second
        radio keys up, at which instant only the *winner* is audible
        mid-transmission — it hears the tone, aborts, and is the one
        sensor that counts a collision (``collisions_heard``).  The
        later colliders are still in radio startup when the tone fires,
        so they transmit their full burst corrupted, holding the channel
        for the whole airtime.
        """
        mac = self.cfg.mac
        coll_dur = self.cfg.tone.collision_duration_s
        colliders = self.m_ids[rows]
        w_nodes = self.m_ids[winner[cc]]
        self.collisions += cc.size
        self.retry[colliders] += 1
        # Exhausted retry budgets shed one burst's worth of packets.
        exhausted = colliders[self.retry[colliders] > mac.max_retries]
        if exhausted.size:
            shed = np.minimum(self.qlen[exhausted], mac.max_burst_packets)
            self.dropped_retry += int(shed.sum())
            self.qstart[exhausted] = (self.qstart[exhausted] + shed) % self.B
            self.qlen[exhausted] -= shed
            self.retry[exhausted] = 0
        # Energy: every collider keys up and paid the CSI classify
        # listen before its backoff (mirrors the clean-attempt charge).
        nc = colliders.size
        self._charges.append(
            (
                "startup",
                colliders,
                np.full(nc, self.model.startup_energy_j),
            )
        )
        self._charges.append(
            (
                "tone_rx",
                colliders,
                np.full(
                    nc,
                    self.model.power_w("tone_rx")
                    * self.cfg.tone.sensing_delay_s,
                ),
            )
        )
        # The winner transmits until the tone fires (d2 - d1 into its
        # burst), hears the 0.5 ms collision tone, and aborts.
        self._charges.append(
            (
                "data_tx",
                w_nodes,
                self.model.power_w("data_tx") * (d2[cc] - d1[cc]),
            )
        )
        self._charges.append(
            (
                "tone_rx",
                w_nodes,
                np.full(cc.size, self.model.power_w("tone_rx") * coll_dur),
            )
        )
        # Runners never hear the tone: full corrupted-burst airtime at
        # their own measured SNR's mode, channel held until the longest
        # one drains.
        is_win = rows == winner[rcl]
        run_rows = rows[~is_win]
        air_max = np.zeros(self.heads.size)
        if run_rows.size:
            run_cl = rcl[~is_win]
            run_nodes = self.m_ids[run_rows]
            b = np.minimum(self.qlen[run_nodes], mac.max_burst_packets)
            mode = np.maximum(
                np.searchsorted(self.thr, snr[run_rows], side="right") - 1,
                0,
            )
            airtime = (b * self.bits + self.overhead_bits) / self.rates[mode]
            np.maximum.at(air_max, run_cl, airtime)
            self._charges.append(
                (
                    "data_tx",
                    run_nodes,
                    self.model.power_w("data_tx") * airtime,
                )
            )
        heads = self.heads[cc]
        self._charges.append(
            (
                "tone_tx",
                heads,
                np.full(cc.size, self.model.power_w("tone_tx") * coll_dur),
            )
        )
        # Head data radio is in RX for the (corrupted) reception, like
        # the event kernel's state-time metering.
        self._charges.append(
            (
                "data_rx",
                heads,
                self.model.power_w("data_rx") * air_max[cc],
            )
        )
        entry = np.where(self.busy[cc] < t0, self._idle_entry_s, 0.0)
        self.busy[cc] = (
            np.maximum(self.busy[cc], t0)
            + entry
            + d2[cc]
            + self._blind_s
            + air_max[cc]
        )

    def _mac_transmit(
        self,
        sc: np.ndarray,
        winner: np.ndarray,
        d1: np.ndarray,
        snr: np.ndarray,
        t0: float,
    ) -> Tuple[np.ndarray, ...]:
        """One race's clean bursts: what a later race of the step reads.

        Sets the clusters' busy clocks, resets the winners' retry
        streaks, pops their bursts off the rings and charges the four
        attempt costs.  Returns ``(clusters, nodes, first ring slots,
        burst sizes, modes, SNRs, burst ends)`` for
        :meth:`_mac_deliver`, which books the packets once per step.
        """
        mac = self.cfg.mac
        w = winner[sc]  # member rows
        nodes = self.m_ids[w]
        b = np.minimum(self.qlen[nodes], mac.max_burst_packets)
        wsnr = snr[w]
        mode = np.searchsorted(self.thr, wsnr, side="right") - 1
        # Gated protocols qualified at >= thr[cls] >= thr[0]; pure LEACH
        # transmits anyway in the most robust mode when in outage.
        mode = np.maximum(mode, 0)
        airtime = (b * self.bits + self.overhead_bits) / self.rates[mode]
        busy = self.busy[sc]
        entry = np.where(busy < t0, self._idle_entry_s, 0.0)
        end = np.maximum(busy, t0) + entry + d1[sc] + self._blind_s + airtime
        self.busy[sc] = end
        self.retry[nodes] = 0
        first = self.qstart[nodes]
        self.qstart[nodes] = (first + b) % self.B
        self.qlen[nodes] -= b
        # Energy: winner TX + startup + CSI listen; head RX for the burst.
        self._charges.append(
            ("data_tx", nodes, self.model.power_w("data_tx") * airtime)
        )
        self._charges.append(
            (
                "startup",
                nodes,
                np.full(nodes.size, self.model.startup_energy_j),
            )
        )
        self._charges.append(
            (
                "tone_rx",
                nodes,
                np.full(
                    nodes.size,
                    self.model.power_w("tone_rx")
                    * self.cfg.tone.sensing_delay_s,
                ),
            )
        )
        self._charges.append(
            (
                "data_rx",
                self.heads[sc],
                self.model.power_w("data_rx") * airtime,
            )
        )
        return sc, nodes, first, b, mode, wsnr, end

    def _mac_deliver(self, sent: List[Tuple[np.ndarray, ...]]) -> None:
        """The step's delivery pass over every race's clean bursts.

        Gathers the popped packets off the rings, draws their per-packet
        PER Bernoulli outcomes on each burst's measured SNR, and books
        the deliveries, all in race order (the module docstring says why
        this gives the bytes a pass per race would).
        """
        sc, nodes, first, b, mode, wsnr, end = (
            np.concatenate(col) for col in zip(*sent)
        )
        tot = int(b.sum())
        owner = np.repeat(np.arange(b.size), b)
        within = np.arange(tot) - np.repeat(np.cumsum(b) - b, b)
        flat = nodes[owner] * self.B + (first[owner] + within) % self.B
        ok = self._phy_rng.random(tot) >= self.pertab.per(mode, wsnr)[owner]
        okb = owner[ok]  # the burst of each delivered packet
        n_ok = okb.size
        self.lost_channel += tot - n_ok
        if n_ok == 0:
            return
        flat = flat[ok]
        obirths = self.qbirth.ravel()[flat]
        osrcs = self.qsrc.ravel()[flat]
        if self.cfg.routing.enabled:
            self.cluster_delivered += n_ok
            # One offer per cluster, ascending, of its packets in race
            # order: the relay appends and tail-drops what one offer per
            # race would.
            oc = sc[okb]
            by_cl = np.argsort(oc, kind="stable")
            oc, obirths, osrcs = oc[by_cl], obirths[by_cl], osrcs[by_cl]
            cuts = np.flatnonzero(oc[1:] != oc[:-1]) + 1
            hops1 = np.ones(n_ok, dtype=np.int64)
            for lo, hi in zip([0, *cuts.tolist()], [*cuts.tolist(), n_ok]):
                self._relay_offer(
                    int(oc[lo]), obirths[lo:hi], hops1[lo:hi], osrcs[lo:hi]
                )
            return
        self.delivered += n_ok
        self.delivered_bits += n_ok * self.bits
        race = np.repeat(np.arange(len(sent)), [rec[0].size for rec in sent])
        self.delays.add(
            end[okb] - obirths,
            sizes=np.bincount(race[okb], minlength=len(sent)).tolist(),
        )
        if self.bits_by_src is not None:
            np.add.at(self.bits_by_src, osrcs, self.bits)

    # -- uplink tier ---------------------------------------------------------

    def _uplink_pop(self, c: int, mode_u: np.ndarray):
        """Take one burst off relay ``c`` and charge its TX airtime."""
        q = self.relay_q[c]
        b = min(len(q), self.cfg.routing.max_burst_packets)
        entries, self.relay_q[c] = q[:b], q[b:]
        airtime = float((b * self.bits + self.overhead_bits) / self.rates[mode_u[c]])
        self._charges.append(
            (
                "uplink_tx",
                np.asarray([self.heads[c]]),
                np.asarray([self.model.power_w("uplink_tx") * airtime]),
            )
        )
        return entries, airtime

    def _uplink_collided(self, c: int, entries) -> None:
        """Burst corrupted on the ledger: retry (front-requeue) or shed."""
        self.u_retry[c] += 1
        if self.u_retry[c] > self.cfg.routing.max_retries:
            self.uplink_dropped_retry += len(entries)
            self.u_retry[c] = 0
        else:
            self.relay_q[c] = entries + self.relay_q[c]

    def _uplink_step(self, t0: float, t1: float) -> None:
        """Serve the shared uplink channel across this step.

        Statistical mirror of the :class:`~repro.routing.uplink.UplinkRelay`
        CSMA: backlogged relays poll the channel on jittered
        ``retry_delay_s`` timers (the relay that just finished a burst
        re-senses immediately and tends to chain); the earliest poll
        commits and keys up after a jittered ``turnaround_s`` — any
        other poll landing inside that key-up window also commits, the
        ledger corrupts both bursts, and both relays pay the full TX
        airtime before retrying.
        """
        h = self.heads.size
        if h == 0:
            return
        snr_u = self._uplink_snr()
        # In outage the relay still transmits at the most robust mode and
        # eats the PER (UplinkRelay: ``mode_for_snr(snr) or lowest``).
        mode_u = np.maximum(np.searchsorted(self.thr, snr_u, side="right") - 1, 0)
        rcfg = self.cfg.routing
        t = max(self._ubusy, t0)
        while t < t1:
            elig = [c for c in range(h) if self.head_up[c] and self.relay_q[c]]
            if not elig:
                break
            # Residual time until each backlogged relay's already-armed
            # retry timer fires next: uniform over one poll interval.
            # The relay that just finished re-senses immediately.
            polls = rcfg.retry_delay_s * self._up_rng.random(len(elig))
            if self._rr in elig:
                polls[elig.index(self._rr)] = 0.0
            order = np.argsort(polls, kind="stable")
            c = elig[int(order[0])]
            d1 = float(polls[order[0]])
            key_up = rcfg.turnaround_s * (0.5 + float(self._up_rng.random()))
            if len(elig) > 1 and float(polls[order[1]]) - d1 < key_up:
                # CSMA vulnerable window: two commits overlap.
                c2 = elig[int(order[1])]
                entries1, a1 = self._uplink_pop(c, mode_u)
                entries2, a2 = self._uplink_pop(c2, mode_u)
                self._uplink_collided(c, entries1)
                self._uplink_collided(c2, entries2)
                t += d1 + key_up + max(a1, a2)
                self._rr = -1  # nobody chains out of a collision
                continue
            entries, airtime = self._uplink_pop(c, mode_u)
            end = t + d1 + key_up + airtime
            t = end
            self.u_retry[c] = 0
            self._rr = c
            per = float(
                self.pertab.per(np.asarray([mode_u[c]]), np.asarray([snr_u[c]]))[0]
            )
            uu = self._up_rng.random(len(entries))
            nxt = int(self.next_hop[c])
            ok_births: List[float] = []
            ok_hops: List[int] = []
            ok_srcs: List[int] = []
            for (birth, hops, src), ud in zip(entries, uu):
                if ud < per:
                    self.uplink_lost_channel += 1
                    continue
                ok_births.append(birth)
                ok_hops.append(hops + 1)
                ok_srcs.append(src)
            if not ok_births:
                continue
            if nxt < 0:  # sink hop
                k = len(ok_births)
                self.delivered += k
                self.delivered_bits += k * self.bits
                self.delays.add(end - np.asarray(ok_births))
                self.hops.add(np.asarray(ok_hops, dtype=float))
                if self.bits_by_src is not None:
                    np.add.at(
                        self.bits_by_src,
                        np.asarray(ok_srcs, dtype=np.int64),
                        self.bits,
                    )
            elif not self.head_up[nxt]:
                self.uplink_stranded += len(ok_births)
            else:
                nh = int(self.heads[nxt])
                self._charges.append(
                    (
                        "uplink_rx",
                        np.asarray([nh]),
                        np.asarray([self.model.power_w("uplink_rx") * airtime]),
                    )
                )
                keep_b, keep_h, keep_s = [], [], []
                for birth, hops, src in zip(ok_births, ok_hops, ok_srcs):
                    if hops >= rcfg.max_hops:
                        self.uplink_stranded += 1
                    else:
                        keep_b.append(birth)
                        keep_h.append(hops)
                        keep_s.append(src)
                if keep_b:
                    self._relay_offer(
                        nxt,
                        np.asarray(keep_b),
                        np.asarray(keep_h, dtype=np.int64),
                        np.asarray(keep_s, dtype=np.int64),
                    )
        self._ubusy = t

    # -- energy --------------------------------------------------------------

    def _energy_settle(self, t0: float, sdt: float, monitoring: np.ndarray) -> None:
        # Continuous draws for this step.
        alive_ids = np.flatnonzero(self.alive)
        if alive_ids.size:
            self._charges.append(
                (
                    "sleep",
                    alive_ids,
                    np.full(
                        alive_ids.size,
                        self.model.power_w("sleep") * sdt,
                    ),
                )
            )
        # Tone-radio monitoring is paid only while the queue qualifies
        # for channel access: the event MAC sends a sensor back to sleep
        # the moment its buffer drops below the burst minimum
        # (CaemSensorMac._consider_access -> _go_sleep), so idle-queue
        # members spend the step at sleep power, not monitor power.
        # ``monitoring`` is those members, as the MAC phase left them.
        if monitoring.size:
            self._charges.append(
                (
                    "tone_rx",
                    monitoring,
                    np.full(
                        monitoring.size,
                        self.model.power_w("tone_rx")
                        * self.cfg.tone.monitor_duty_cycle
                        * sdt,
                    ),
                )
            )
        if self.heads.size:
            hd = self.heads[self.head_up]
            hd = hd[self.up[hd]]
            if hd.size:
                self._charges.append(
                    (
                        "ch_idle",
                        hd,
                        np.full(hd.size, self.model.power_w("ch_idle") * sdt),
                    )
                )
                self._charges.append(
                    (
                        "tone_tx",
                        hd,
                        np.full(
                            hd.size,
                            self.model.power_w("tone_tx")
                            * self._head_tone_duty
                            * sdt,
                        ),
                    )
                )
        # Settle: cap each node's spend at its remaining charge, pro-rate
        # the per-cause ledger for partially covered (dying) nodes.
        # bincount adds the weights in input order from 0.0: each node's
        # demand is its charges summed in charge order.
        charges = self._charges
        if charges:
            demand = np.bincount(
                np.concatenate([ids for _cause, ids, _vals in charges]),
                weights=np.concatenate([vals for _cause, _ids, vals in charges]),
                minlength=self.n,
            )
        else:
            demand = np.zeros(self.n)
        spend = np.minimum(demand, self.level)
        pos = demand > 0
        ratio = None  # every ratio is exactly 1.0 unless a node runs dry
        if (demand > self.level).any():
            ratio = np.ones(self.n)
            ratio[pos] = spend[pos] / demand[pos]
        bd = self.breakdown
        for cause, ids, vals in charges:
            part = vals if ratio is None else vals * ratio[ids]
            bd[cause] = bd.get(cause, 0.0) + float(part.sum())
        self.level -= spend
        self.drawn += spend
        # A node dies when this step's demand drained it: only nodes left
        # at or below _EPS can, so the test runs on those alone.
        low = np.flatnonzero(self.level <= _EPS)
        drained = demand[low] >= self.level[low] + spend[low] - _EPS
        died = low[self.alive[low] & pos[low] & drained]
        if died.size:
            t1 = t0 + sdt
            self.alive[died] = False
            self.level[died] = 0.0
            self.death_time[died] = t1
            self.attached[died] = False
            for i in died:
                if self.is_head[i]:
                    self._down_head(int(i))
                if self.tracer is not None:
                    self.tracer.annotate(t1, "node.death", node=int(i))
        self._charges = []


def measure(cfg: NetworkConfig, opts, tracer=None):
    """Run ``cfg`` under ``opts``; returns ``(fields, totals)``.

    The vector twin of :func:`repro.network.measure`: ``fields`` maps
    :class:`~repro.api.RunResult` field names to what this engine
    measured, ``totals`` is a :class:`~repro.api.result.RunTotals`, and
    :func:`repro.api.engine.derive` computes the rest.
    """
    from ..api.result import COUNTER_FIELDS, RunTotals

    net = VectorNetwork(cfg, opts, tracer=tracer)
    elapsed = net.run()
    if isinstance(net._prof, RoundProfiler):
        net._prof.dump(
            opts.profile_rounds,
            n_nodes=cfg.n_nodes,
            seed=cfg.seed,
            backend="vector",
            horizon_s=opts.horizon_s,
        )

    rec = net.recorder
    deaths = [None if math.isnan(t) else float(t) for t in net.death_time]
    fields = {
        "sample_times_s": list(rec.times),
        "mean_energy_j": [float(v) for v in rec.series[net._tr_energy]],
        "alive_counts": [int(v) for v in rec.series[net._tr_alive]],
        "series_stride": rec.stride,
        "death_times_s": deaths,
        "events_processed": net.steps,
        "total_consumed_j": float(net.drawn.sum()),
        "energy_breakdown": dict(net.breakdown),
    }
    if net._tr_queues is not None:
        fields["queue_snapshots"] = [list(v) for v in rec.series[net._tr_queues]]
    if net._tr_up is not None:
        fields["up_counts"] = [int(v) for v in rec.series[net._tr_up]]
    fields.update((name, getattr(net, name)) for name in COUNTER_FIELDS)

    effective_deaths = survivor_bits = None
    if cfg.dynamics.enabled:
        effective_deaths = [
            deaths[i]
            if deaths[i] is not None
            else (
                float(net.last_failure[i])
                if net.failed[i] and not math.isnan(net.last_failure[i])
                else None
            )
            for i in range(cfg.n_nodes)
        ]
        if net.bits_by_src.any():
            survivor_bits = int(net.bits_by_src[net.up].sum())
    return fields, RunTotals(
        elapsed_s=elapsed,
        delivered_bits=net.delivered_bits,
        delay_sum_s=net.delays.sum,
        delay_count=net.delays.count,
        delay_samples=net.delays.samples(),
        hop_sum=net.hops.sum,
        hop_count=net.hops.count,
        effective_deaths=effective_deaths,
        survivor_bits=survivor_bits,
    )
