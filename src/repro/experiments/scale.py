"""Extension experiment: the protocols at 1000+ node scale.

The paper's evaluation runs ~100 nodes; the scale tier asks how the CAEM
machinery behaves — and how fast the reproduction runs it — as the
network grows to thousands of nodes at **constant density** (the field
edge grows with √N, so cluster geometry and per-link SNR statistics stay
comparable to Table II).  Each cell runs one protocol at one network
size for two full LEACH rounds and reports the deterministic workload
measures (kernel events, delivery, exact mean delay) alongside the
wall-clock scaling curve.

The runs exercise the scale subsystem end to end: the spatial grid index
and the link/MAC reuse pools are on (as everywhere — they are
output-neutral), and the memory-bounded stats knobs are set
(``ScaleConfig.max_delay_samples`` reservoir + series decimation), so a
sweep cell never grows unbounded state.  Everything reported except the
wall-time columns is bit-identical under every ``--executor`` and
round-trips through a ResultStore; wall times are measurements of this
machine, stored with the run.
"""

from __future__ import annotations

import math
import os
from typing import Dict, Optional, Sequence, Tuple

from ..api import RunOptions, Scenario, experiment, run_scenarios
from ..config import NetworkConfig, Protocol
from ..errors import ExperimentError
from .figures import _LABELS, _PROTOCOLS, FigureResult

__all__ = ["ext_scale", "scale_config", "DEFAULT_NODE_COUNTS"]

#: Node-count ladder per preset.  ``full`` is the nightly sweep (the
#: 3000-node cells take ~minutes each on the 1-CPU container); ``quick``
#: is the acceptance tier (N=1000 must complete); ``smoke`` exists for
#: the harness tests and the CI diff gate.
DEFAULT_NODE_COUNTS: Dict[str, Tuple[int, ...]] = {
    "full": (100, 300, 1000, 3000),
    "quick": (100, 300, 1000),
    "smoke": (30, 60),
}

#: Two LEACH rounds (Table II round length) — enough to exercise
#: formation, steady state, teardown and re-formation.
_HORIZON_ROUNDS = 2.0

#: Memory bounds applied to every sweep cell (see module docstring).
_MAX_DELAY_SAMPLES = 50_000
_MAX_SERIES_SAMPLES = 64


def scale_config(
    n_nodes: int, protocol: Protocol, seed: int = 1, backend: str = "event"
) -> NetworkConfig:
    """A constant-density Table II configuration at ``n_nodes``.

    The 100-node paper field is 100 m; the edge scales with √N so the
    node density — and with it the member→head distance distribution —
    matches the paper's at every size.  ``backend="vector"`` runs the
    same cell on the population-scale array engine (see
    :mod:`repro.vector`); the default leaves every digest unchanged.
    """
    if n_nodes < 2:
        raise ExperimentError("scale tier needs at least 2 nodes")
    field = 100.0 * math.sqrt(n_nodes / 100.0)
    return NetworkConfig(
        n_nodes=n_nodes,
        field_size_m=field,
        protocol=protocol,
        seed=seed,
    ).with_scale(max_delay_samples=_MAX_DELAY_SAMPLES, backend=backend)


def _scale_scenario(
    n_nodes: int,
    proto: Protocol,
    seed: int,
    backend: str,
    profile_rounds: Optional[str] = None,
) -> Scenario:
    cfg = scale_config(n_nodes, proto, seed, backend=backend)
    round_s = cfg.leach.round_duration_s
    profile_path = None
    if profile_rounds is not None:
        from ..vector.support import resolve_backend

        if resolve_backend(cfg) == "vector":
            # One timeline file per vector cell; the event kernel has no
            # phase structure, so event cells write nothing.
            profile_path = os.path.join(
                profile_rounds,
                f"rounds_n{n_nodes}_{proto.value}_s{seed}.json",
            )
    return Scenario(
        config=cfg,
        options=RunOptions(
            horizon_s=_HORIZON_ROUNDS * round_s,
            sample_interval_s=round_s / 4.0,
            max_series_samples=_MAX_SERIES_SAMPLES,
            profile_rounds=profile_path,
        ),
        tags={"protocol": proto.value, "nodes": n_nodes, "seed": seed},
    )


_BACKENDS = ("event", "vector", "auto")


@experiment("ext-scale", kind="extension",
            summary="Scaling curve: nodes x protocol at constant density")
def ext_scale(
    preset: str = "quick",
    seeds: Sequence[int] = (1,),
    node_counts: Optional[Sequence[int]] = None,
    backend: str = "event",
    profile_rounds: Optional[str] = None,
) -> FigureResult:
    """Workload and wall-clock scaling of the three protocols with N.

    ``profile_rounds`` names a directory: every cell that resolves to
    the vector backend writes its per-round phase timeline there (see
    :mod:`repro.vector.profile`).  Observational only — rows and digests
    are identical with it on or off.
    """
    if backend not in _BACKENDS:
        raise ExperimentError(
            f"unknown backend {backend!r}; have {_BACKENDS}"
        )
    if profile_rounds is not None:
        os.makedirs(profile_rounds, exist_ok=True)
    if node_counts is None:
        try:
            node_counts = DEFAULT_NODE_COUNTS[preset]
        except KeyError:
            raise ExperimentError(
                f"unknown preset {preset!r}; have "
                f"{sorted(DEFAULT_NODE_COUNTS)}"
            ) from None
    result = FigureResult(
        figure_id="ext-scale",
        title="Scale tier: events, delivery and wall clock versus network size",
        x_label="network size (nodes)",
        headers=[
            "protocol", "nodes",
            "events", "delivery", "mean_delay_ms",
            "wall_s", "kev_per_s",
        ],
        notes=(
            f"preset={preset}"
            + (f", backend={backend}" if backend != "event" else "")
            + ": constant density (field edge = "
            "100 m x sqrt(N/100)), 5 pkt/s, two full 20 s LEACH rounds; "
            "spatial index + link/MAC pools on, delay reservoir "
            f"{_MAX_DELAY_SAMPLES}, series capped at "
            f"{_MAX_SERIES_SAMPLES} samples; wall_s/kev_per_s are "
            "measurements of the executing machine (everything else is "
            "seed-deterministic)"
        ),
    )
    scenarios = [
        _scale_scenario(n, proto, seed, backend, profile_rounds)
        for proto in _PROTOCOLS
        for n in node_counts
        for seed in seeds
    ]
    result.runs = run_scenarios(scenarios, experiment=result.figure_id)

    it = iter(result.runs)
    for proto in _PROTOCOLS:
        for n in node_counts:
            events = 0
            deliveries = []
            delays_ms = []
            wall = 0.0
            for _seed in seeds:
                run = next(it)
                events += run.events_processed
                if run.delivery_rate is not None:
                    deliveries.append(run.delivery_rate)
                delays_ms.append(run.mean_delay_s * 1e3)
                wall += run.wall_time_s
            n_seeds = len(list(seeds))
            mean_events = events / n_seeds
            mean_wall = wall / n_seeds
            result.rows.append([
                _LABELS[proto],
                n,
                int(mean_events),
                sum(deliveries) / len(deliveries) if deliveries else None,
                sum(delays_ms) / len(delays_ms),
                round(mean_wall, 3),
                round(mean_events / mean_wall / 1e3, 1) if mean_wall > 0 else None,
            ])
    return result
