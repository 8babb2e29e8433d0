"""One fresh interpreter per measurement; speaks JSON lines on stdout.

Started by ``run.py``, never imported by it, so every number comes from
a process that no earlier workload has touched.  Modes::

    worker.py probe        WORKLOAD SEED          import + construct, print "ready"
    worker.py engine       WORKLOAD SEED DEADLINE PART/PARTS
                                                  the same, then timed calls
    worker.py engine-trace WORKLOAD SEED WORKDIR  untraced passes, then a traced one
    worker.py campaign-trace SEED WORKDIR         in-process CLI passes, both ways
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import itertools
import json
import sys
import time
from pathlib import Path

from calib import settled_reference
from workloads import (
    CAMPAIGN,
    ENGINES,
    cache_counts,
    campaign_argv,
    fingerprint,
    text_fingerprint,
)

from tracer import LayerTracer


def emit(**record) -> None:
    sys.stdout.write(json.dumps(record) + "\n")
    sys.stdout.flush()


# -- set-up and engine calls --------------------------------------------------


def construct(workload: str, seed: int) -> None:
    """Import the entry modules and construct the first input's network."""
    if workload == CAMPAIGN:
        import repro.cli  # noqa: F401
        return
    from repro.vector.engine import VectorNetwork

    wl = ENGINES[workload]
    VectorNetwork(wl.configs(seed)[0], wl.options())


def probe(workload: str, seed: int) -> None:
    construct(workload, seed)
    emit(ready=time.perf_counter())


def engine_pass(simulate, configs, opts):
    """Simulate each input once; returns (wall_s, runs, errors)."""
    runs, errors = [], []
    t0 = time.perf_counter()
    for cfg in configs:
        try:
            runs.append(simulate(cfg, opts))
        except Exception as exc:  # counted as a failed operation
            runs.append(None)
            errors.append(f"{type(exc).__name__}: {exc}")
    return time.perf_counter() - t0, runs, errors


def _pass_record(wall_s, runs, errors):
    return dict(
        wall_s=wall_s,
        cell_wall_s=sum(r.wall_time_s for r in runs if r is not None),
        fingerprints=[fingerprint(r) if r is not None else None for r in runs],
        errors=errors,
    )


#: Seconds of warm calls between two calibration references.
REFERENCE_EVERY_S = 0.5


def engine(workload: str, seed: int, deadline: float, part: int, parts: int) -> None:
    """Set up, then time one ``simulate`` call per line until ``deadline``.

    Times are ``time.perf_counter()`` readings, which on Linux share the
    system-wide monotonic clock with the parent.  The first call is input
    0 in a cold process.  The warm calls start at this process's share of
    the inputs (``part`` of ``parts``), cover the share, and go on round
    the inputs while the next call ends before ``deadline``.  A settled
    calibration reference follows the cold call, then every
    ``REFERENCE_EVERY_S`` of calls, and the last call.
    """
    construct(workload, seed)
    wl = ENGINES[workload]
    configs, opts = wl.configs(seed), wl.options()
    emit(ready=time.perf_counter(), inputs=len(configs), node_s=wl.node_seconds(configs))
    from repro.api import simulate

    k = len(configs)
    share = -(-k // parts)
    order = itertools.chain([0], ((part * share + j) % k for j in itertools.count()))
    last = ref_at = 0.0
    for calls, i in enumerate(order):
        if calls and time.perf_counter() - ref_at >= REFERENCE_EVERY_S:
            emit(ref_s=settled_reference())
            ref_at = time.perf_counter()
        if calls > share and time.perf_counter() + last > deadline:
            break
        t0 = time.perf_counter()
        try:
            fp, error = fingerprint(simulate(configs[i], opts)), None
        except Exception as exc:  # counted as a failed operation
            fp, error = None, f"{type(exc).__name__}: {exc}"
        done = time.perf_counter()
        last = done - t0
        emit(input=i, done=done, wall_s=last, fingerprint=fp, error=error)
    if ref_at < done:
        emit(ref_s=settled_reference())


def _run_metrics(runs) -> dict:
    """Counters every engine run reports, summed over a pass."""
    runs = [r for r in runs if r is not None]
    delivered = sum(r.delivered for r in runs)
    offered = delivered + sum(
        r.lost_channel + r.dropped_retry + r.dropped_overflow for r in runs
    )
    return {
        "kernel.events": sum(r.events_processed for r in runs),
        "mac.collisions": sum(r.collisions for r in runs),
        "mac.delivered_ratio": delivered / offered if offered else 0.0,
        "dynamics.churn_failures": sum(r.churn_failures for r in runs),
        "dynamics.orphaned": sum(r.orphaned for r in runs),
        "api.cells": len(runs),
    }


def _span_metrics(tracer: LayerTracer) -> dict:
    """Time under the campaign boundaries (zero where a workload has none)."""
    return {
        "api.simulate_s": tracer.boundary_s["api.simulate"],
        "api.pairing_s": tracer.self_s.get("api.pairing", 0.0),
        "service.store_write_s": tracer.self_s.get("service.store_write", 0.0),
        "service.store_read_s": tracer.self_s.get("service.store_read", 0.0),
        "experiments.render_s": tracer.self_s.get("experiments.render", 0.0),
    }


def _traced_vector_pass(tracer, simulate, configs, opts, workdir: Path):
    """Phase totals from ``RunOptions.profile_rounds``; laps counted per phase."""
    from repro.vector.profile import RoundProfiler

    lap = RoundProfiler.lap

    def counted_lap(prof, phase, since):
        tracer.calls[phase] += 1
        return lap(prof, phase, since)

    tracer.patch(RoundProfiler, "lap", counted_lap)
    phases_s = 0.0
    runs, errors = [], []
    t0 = time.perf_counter()
    for i, cfg in enumerate(configs):
        path = workdir / f"rounds_{i}.json"
        t_run = time.perf_counter()
        try:
            run = simulate(cfg, dataclasses.replace(opts, profile_rounds=str(path)))
        except Exception as exc:
            runs.append(None)
            errors.append(f"{type(exc).__name__}: {exc}")
            continue
        tracer.boundary_s["api.simulate"] += time.perf_counter() - t_run
        runs.append(run)
        with open(path, encoding="utf-8") as fh:
            totals = json.load(fh)["phase_totals_s"]
        for phase, secs in totals.items():
            tracer.self_s[phase] += secs
            phases_s += secs
    wall = time.perf_counter() - t0
    tracer.overhead_s = tracer.boundary_s["api.simulate"] - phases_s
    return wall, runs, errors


def engine_trace(workload: str, seed: int, workdir: Path) -> None:
    from repro.api import simulate

    wl = ENGINES[workload]
    configs, opts = wl.configs(seed), wl.options()
    engine_pass(simulate, configs, opts)  # cold: imports, allocator, caches
    wall, runs, errors = engine_pass(simulate, configs, opts)
    untraced = _pass_record(wall, runs, errors)

    tracer = LayerTracer()
    with tracer.installed():
        t_wall, t_runs, t_errors = _traced_vector_pass(
            tracer, simulate, configs, opts, workdir
        )
    traced = _pass_record(t_wall, t_runs, t_errors)
    metrics = tracer.layer_metrics()
    metrics.update(_run_metrics(t_runs))
    metrics.update(_span_metrics(tracer))
    for name in ("service.rows_written", "service.cache_hits", "service.cache_misses"):
        metrics[name] = 0
    # One client process runs the cells back to back: a single worker.
    metrics["exec.parallel_efficiency"] = untraced["cell_wall_s"] / untraced["wall_s"]
    metrics["trace.overhead_ratio"] = t_wall / untraced["wall_s"]
    emit(untraced=untraced, traced=traced, metrics=metrics)


# -- campaign, in process -----------------------------------------------------


def _cli_pair(seed: int, db: Path) -> dict:
    """A cold and a warm serial pass of the campaign line through ``cli.main``."""
    from repro import cli

    out = {}
    for kind in ("cold", "warm"):
        stdout, stderr = io.StringIO(), io.StringIO()
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = cli.main(campaign_argv(seed, str(db), "serial"))
        wall = time.perf_counter() - t0
        hits, simulated = cache_counts(stderr.getvalue())
        out[kind] = dict(
            code=code,
            wall_s=wall,
            sha256=text_fingerprint(stdout.getvalue()),
            hits=hits,
            simulated=simulated,
        )
    return out


def _install_campaign_spans(tracer: LayerTracer, runs: list) -> None:
    """Event-kernel spans plus the store, pairing and render boundaries."""
    import repro.api.scenario  # noqa: F401  (bind the names patched below)
    import repro.cli  # noqa: F401
    import repro.experiments.figures  # noqa: F401
    import repro.service.cache  # noqa: F401
    from repro.api.engine import simulate
    from repro.api.pairing import pair_stored_runs

    tracer.trace_event_kernel()
    boundary = tracer.wrap_boundary("api.simulate", simulate)

    def recorded(*args, **kw):
        run = boundary(*args, **kw)
        runs.append(run)
        return run

    tracer.patch_function("repro.api.engine", "simulate", recorded)
    pairing = tracer.wrap("api.pairing", pair_stored_runs)
    tracer.patch_function("repro.api.pairing", "pair_stored_runs", pairing)
    store = ("repro.service.db", "DbResultStore")
    for method in ("append", "extend"):
        tracer.patch_method(*store, method, "service.store_write")
    for method in ("rows_for_digests", "load"):
        tracer.patch_method(*store, method, "service.store_read")
    tracer.patch_method(
        "repro.experiments.figures", "FigureResult", "render", "experiments.render"
    )


def campaign_trace(seed: int, workdir: Path) -> None:
    _cli_pair(seed, workdir / "warmup.sqlite")  # imports and registry
    untraced = _cli_pair(seed, workdir / "untraced.sqlite")

    from repro.service.db import DbResultStore

    tracer, runs = LayerTracer(), []
    with tracer.installed():
        _install_campaign_spans(tracer, runs)
        traced = _cli_pair(seed, workdir / "traced.sqlite")
    rows_written = len(DbResultStore(workdir / "traced.sqlite").load())

    metrics = tracer.layer_metrics()
    metrics.update(_run_metrics(runs))
    metrics.update(_span_metrics(tracer))
    metrics.update({
        "service.rows_written": rows_written,
        "service.cache_hits": sum(traced[k]["hits"] or 0 for k in traced),
        "service.cache_misses": sum(traced[k]["simulated"] or 0 for k in traced),
        "trace.overhead_ratio": sum(p["wall_s"] for p in traced.values())
        / sum(p["wall_s"] for p in untraced.values()),
    })
    emit(untraced=untraced, traced=traced, metrics=metrics)


def main(argv) -> None:
    mode, rest = argv[0], argv[1:]
    if mode == "probe":
        probe(rest[0], int(rest[1]))
    elif mode == "engine":
        part, parts = (int(x) for x in rest[3].split("/"))
        engine(rest[0], int(rest[1]), float(rest[2]), part, parts)  # deadline
    elif mode == "engine-trace":
        engine_trace(rest[0], int(rest[1]), Path(rest[2]))
    elif mode == "campaign-trace":
        campaign_trace(int(rest[0]), Path(rest[1]))
    else:
        raise SystemExit(f"unknown mode {mode!r}")


if __name__ == "__main__":
    main(sys.argv[1:])
