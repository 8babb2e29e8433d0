"""Self-tests of the benchmark's tracer and tables, on smoke-sized inputs.

    PYTHONPATH=src python3 -m pytest perfbench -q
"""

from __future__ import annotations

import functools
import json

import pytest

import metrics
import worker
from tracer import ENTRY_POINTS, LayerTracer, callback_layer
from workloads import ROOT, fingerprint

#: Σ self times + kernel.overhead_s + unattributed_s must equal the traced
#: wall within this share of it (plus 2 ms for the clock reads outside
#: the boundary).
WALL_TOLERANCE = 0.01


class FakeClock:
    def __init__(self) -> None:
        self.t = 0.0

    def __call__(self) -> float:
        return self.t


def test_children_are_subtracted_from_parents():
    clock = FakeClock()
    tracer = LayerTracer(clock=clock)

    def leaf():
        clock.t += 3.0

    traced_leaf = tracer.wrap("channel", leaf)

    def parent():
        clock.t += 2.0
        traced_leaf()
        clock.t += 1.0

    def root():
        clock.t += 0.5  # not under any span: overhead
        tracer.call("mac", parent)

    tracer.call_boundary("api.simulate", root)
    assert tracer.self_s == {"mac": 3.0, "channel": 3.0}
    assert tracer.calls == {"mac": 1, "channel": 1}
    assert tracer.overhead_s == 0.5
    assert tracer.boundary_s["api.simulate"] == 6.5


def test_boundary_inside_span_is_a_child():
    clock = FakeClock()
    tracer = LayerTracer(clock=clock)

    def inner():
        clock.t += 4.0

    def outer():
        clock.t += 1.0
        tracer.call_boundary("api.simulate", inner)

    tracer.call("service.store_write", outer)
    assert tracer.self_s["service.store_write"] == 1.0
    assert tracer.overhead_s == 4.0
    assert tracer.covered_s == 5.0


def test_callback_layer_by_module():
    from repro.mac.caem import CaemSensorMac
    from repro.sim.simulator import Simulator

    assert callback_layer(CaemSensorMac.__init__) == "mac"
    assert callback_layer(functools.partial(CaemSensorMac.__init__, None)) == "mac"
    assert callback_layer(Simulator.stop) == "unattributed"
    assert callback_layer([].append) == "unattributed"


def _originals():
    import importlib

    from repro.sim.scheduler import EventQueue

    out = {("EventQueue", "push"): EventQueue.__dict__["push"]}
    for module, cls, methods, _ in ENTRY_POINTS:
        owner = getattr(importlib.import_module(module), cls)
        for m in methods:
            out[(cls, m)] = owner.__dict__[m]
    return out


def test_event_kernel_trace_is_observational_and_sums_to_wall():
    import time

    from repro.api import RunOptions, simulate
    from repro.config import NetworkConfig

    cfg = NetworkConfig(n_nodes=12, seed=3)
    opts = RunOptions(horizon_s=10.0)
    expected = fingerprint(simulate(cfg, opts))
    before = _originals()

    tracer = LayerTracer()
    with tracer.installed():
        tracer.trace_event_kernel()
        t0 = time.perf_counter()
        run = tracer.call_boundary("api.simulate", simulate, cfg, opts)
        wall = time.perf_counter() - t0

    assert fingerprint(run) == expected
    layers = tracer.layer_metrics()
    total = sum(layers[f"{layer}.self_s"] for layer in ("mac", "phy", "traffic",
                "channel", "energy", "policy", "membership", "metrics"))
    total += layers["unattributed_s"] + layers["kernel.overhead_s"]
    assert abs(total - wall) <= WALL_TOLERANCE * wall + 0.002
    assert all(v >= -1e-9 for v in tracer.self_s.values())
    for layer in ("mac", "phy", "traffic", "channel", "energy", "membership"):
        assert layers[f"{layer}.calls"] > 0, layer
    # Every wrapper is gone: a later untraced run pays nothing.
    assert _originals() == before


def test_vector_trace_reads_phase_totals(tmp_path):
    from repro.api import RunOptions, simulate
    from repro.config import NetworkConfig

    cfg = NetworkConfig(n_nodes=12, seed=3).with_scale(backend="vector")
    opts = RunOptions(horizon_s=20.0)
    expected = fingerprint(simulate(cfg, opts))
    from repro.vector.profile import RoundProfiler

    lap = RoundProfiler.__dict__["lap"]
    tracer = LayerTracer()
    with tracer.installed():
        _, runs, errors = worker._traced_vector_pass(
            tracer, simulate, [cfg], opts, tmp_path
        )
    assert not errors
    assert fingerprint(runs[0]) == expected
    assert RoundProfiler.__dict__["lap"] is lap
    assert tracer.calls["mac"] == runs[0].events_processed  # one lap per step
    phases = sum(tracer.self_s.values())
    wall = tracer.boundary_s["api.simulate"]
    assert phases + tracer.overhead_s == pytest.approx(wall)


def test_campaign_spans_are_removed():
    import repro.api.scenario
    from repro.api.engine import simulate
    from repro.service.db import DbResultStore

    append = DbResultStore.__dict__["append"]
    tracer, runs = LayerTracer(), []
    with tracer.installed():
        worker._install_campaign_spans(tracer, runs)
        assert repro.api.scenario.simulate is not simulate
    assert repro.api.scenario.simulate is simulate
    assert DbResultStore.__dict__["append"] is append


def test_calibration_divides_out_machine_speed():
    from calib import REFERENCE_S, calibration, settled_reference

    assert settled_reference() > 0
    # A machine twice as slow doubles the call and the references.
    assert 3.0 * calibration([REFERENCE_S, REFERENCE_S]) == pytest.approx(3.0)
    assert 6.0 * calibration([2 * REFERENCE_S, 2 * REFERENCE_S]) == pytest.approx(3.0)
    assert 6.0 * calibration([REFERENCE_S, 3 * REFERENCE_S]) == pytest.approx(3.0)
    # One stray reference does not move a run's factor.
    assert calibration([REFERENCE_S] * 4 + [9 * REFERENCE_S]) == 1.0


def test_benchmark_json_matches_the_catalogue():
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        assert json.load(fh) == metrics.benchmark_json()
    names = [m[0] for m in metrics.END_TO_END + metrics.PER_LAYER]
    assert len(names) == len(set(names))
    assert {w for *_, ws in metrics.PER_LAYER for w in ws} <= {
        n for n, _ in metrics.WORKLOADS
    }
