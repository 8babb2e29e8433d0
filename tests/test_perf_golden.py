"""Bit-reproducibility guardrails for the hot-path optimizations.

The allocation-free event kernel and the block-drawing channel RNG are
only admissible because they change **zero output bytes**.  This module
pins that contract three ways:

* golden-hash regression tests: one figure table and the ext-uplink
  experiment render to exactly the committed SHA-256 (hashes captured on
  the pre-optimization code at the same seeds/preset);
* stream-equivalence tests: :class:`repro.rng.NormalBlockCache` serves
  the bit-exact per-draw sequence of scalar ``Generator.normal`` calls,
  including across block boundaries and through the channel processes;
* perf-gate unit tests: the speedup and wall-time gates of
  ``benchmarks/bench_scale.py``, whose N=100 event rung is the event
  kernel's regression gate in CI.

If an intentional modelling change legitimately alters an artefact,
recompute the hashes here in the same PR and say so in its description.
"""

import hashlib
import importlib.util
import math
from pathlib import Path

import numpy as np
import pytest

from repro.api import get_experiment
from repro.channel import Link, LinkBudget, RayleighFading
from repro.channel.shadowing import GaussMarkovShadowing
from repro.config import ChannelConfig
from repro.rng import NormalBlockCache, RngRegistry, as_normal_cache
from repro.sim import Simulator

# SHA-256 of the rendered artefacts at preset="smoke", seeds=(1,),
# loads_pps=(5.0, 15.0).  fig8 is the pre-optimization (PR 2) hash and
# pins both the hot-path byte-neutrality and the dynamics-off inertness
# (the default DynamicsConfig must leave the paper's figures untouched).
# ext-uplink was recomputed in PR 4: fixing the reentrant-teardown leak
# in CaemSensorMac._radio_ready (a burst begun in the same event in
# which its head died was silently lost instead of requeued) shifts the
# artefacts whose run-to-death scenarios hit the window (ext-uplink,
# and at smoke scale fig9/fig10/fig11/ext-perf; fig8/fig12/tables are
# unchanged).  That was a correctness fix, not drift: with the fix held
# constant, adding the whole dynamics subsystem changes zero bytes in
# any artefact (verified by re-rendering everything with only the MAC
# fix stashed), and conservation is asserted by tests/test_dynamics.py.
# ext-dynamics (seeds=(1,), default churn rates) pins the dynamics
# subsystem's own determinism.
GOLDEN = {
    "fig8": "c89564452d1ed196759895e49e595bf34390c68c1e73e5f8fd79691c3b5ca626",
    "ext-uplink": "a6872e863e1f7e3d9f37ecfd0b4c4e8816ea7d0e4b41082a9b3dff48a033eb89",
    "ext-dynamics": "49f678932281e51ea6680b57ef580a68c9ff3cdf1550068e1919297ecdb56919",
}


class TestGoldenArtefacts:
    @pytest.mark.parametrize("name", sorted(GOLDEN))
    def test_render_is_byte_identical_to_pre_optimization(self, name):
        spec = get_experiment(name)
        fig = spec.run(preset="smoke", seeds=(1,), loads_pps=(5.0, 15.0))
        digest = hashlib.sha256(fig.render().encode("utf-8")).hexdigest()
        assert digest == GOLDEN[name], (
            f"{name} output changed — the hot-path optimizations must be "
            f"byte-neutral (got {digest})"
        )


class TestNormalBlockCacheStreamEquivalence:
    """The cache must reproduce the exact scalar-draw Generator sequence."""

    def _pair(self, seed=42):
        return (
            np.random.Generator(np.random.PCG64(seed)),
            NormalBlockCache(
                np.random.Generator(np.random.PCG64(seed)), block_size=16
            ),
        )

    def test_standard_normal_sequence_bit_identical(self):
        gen, cache = self._pair()
        # 100 draws cross the 16-wide block boundary six times.
        ours = [cache.standard_normal() for _ in range(100)]
        theirs = [float(gen.normal(0.0, 1.0)) for _ in range(100)]
        assert ours == theirs

    def test_scaled_normal_sequence_bit_identical(self):
        gen, cache = self._pair(7)
        sigma = math.sqrt(0.5)
        ours = [cache.normal(0.0, sigma) for _ in range(64)]
        theirs = [float(gen.normal(0.0, sigma)) for _ in range(64)]
        assert ours == theirs

    def test_block_size_does_not_change_the_stream(self):
        seeds = np.random.PCG64(3), np.random.PCG64(3)
        small = NormalBlockCache(np.random.Generator(seeds[0]), block_size=2)
        large = NormalBlockCache(np.random.Generator(seeds[1]), block_size=512)
        assert [small.standard_normal() for _ in range(50)] == [
            large.standard_normal() for _ in range(50)
        ]

    def test_as_normal_cache_passes_caches_through(self):
        cache = NormalBlockCache(np.random.default_rng(0))
        assert as_normal_cache(cache) is cache
        assert isinstance(
            as_normal_cache(np.random.default_rng(0)), NormalBlockCache
        )

    def test_rejects_nonpositive_block(self):
        with pytest.raises(ValueError):
            NormalBlockCache(np.random.default_rng(0), block_size=0)

    def test_fading_process_equals_manual_recurrence(self):
        """RayleighFading through the cache == the AR(1) bridge computed
        by hand from the same raw generator stream."""
        fading = RayleighFading(
            0.1, np.random.Generator(np.random.PCG64(11))
        )
        gen = np.random.Generator(np.random.PCG64(11))
        s = math.sqrt(0.5)
        x = 0.0 + s * float(gen.normal(0.0, 1.0))
        y = 0.0 + s * float(gen.normal(0.0, 1.0))
        t = 0.0
        for step in (0.01, 0.01, 0.05, 0.01):  # repeated gaps hit the memo
            t += step
            rho = math.exp(-step / 0.1)
            sigma = math.sqrt(max(0.0, 1.0 - rho * rho)) * s
            x = rho * x + sigma * float(gen.normal(0.0, 1.0))
            y = rho * y + sigma * float(gen.normal(0.0, 1.0))
            assert fading.power_gain(t) == x * x + y * y

    def test_shadowing_process_equals_manual_recurrence(self):
        shadow = GaussMarkovShadowing(
            4.0, 3.0, np.random.Generator(np.random.PCG64(13))
        )
        gen = np.random.Generator(np.random.PCG64(13))
        value = 0.0 + 4.0 * float(gen.normal(0.0, 1.0))
        t = 0.0
        for step in (0.5, 0.5, 2.0, 0.5):
            t += step
            rho = math.exp(-step / 3.0)
            value = rho * value + (4.0 * math.sqrt(1.0 - rho * rho)) * float(
                gen.normal(0.0, 1.0)
            )
            assert shadow.value_db(t) == value

    def test_link_shares_one_cache_across_processes(self):
        """Shadowing and fading interleave draws on the link's dedicated
        stream; the shared cache must preserve that exact order."""
        cfg = ChannelConfig()
        budget = LinkBudget.from_config(cfg)
        link = Link(35.0, budget, cfg, RngRegistry(5).stream("link"))
        gen = RngRegistry(5).stream("link")
        # Construction order: shadowing init (1 draw), fading init (2).
        shadow = 0.0 + cfg.shadowing_sigma_db * float(gen.normal(0.0, 1.0))
        s = math.sqrt(0.5)
        x = 0.0 + s * float(gen.normal(0.0, 1.0))
        y = 0.0 + s * float(gen.normal(0.0, 1.0))
        mean = float(budget.mean_snr_db(35.0))
        t = 0.0
        for step in (0.05, 0.05, 0.2):
            t += step
            # Per snr_db query: shadowing draws first, then fading x/y.
            rho_s = math.exp(-step / cfg.shadowing_tau_s)
            shadow = rho_s * shadow + (
                cfg.shadowing_sigma_db * math.sqrt(1.0 - rho_s * rho_s)
            ) * float(gen.normal(0.0, 1.0))
            rho_f = math.exp(-step / cfg.fading_coherence_s)
            sig_f = math.sqrt(max(0.0, 1.0 - rho_f * rho_f)) * s
            x = rho_f * x + sig_f * float(gen.normal(0.0, 1.0))
            y = rho_f * y + sig_f * float(gen.normal(0.0, 1.0))
            gain_db = 10.0 * math.log10(x * x + y * y)
            assert link.snr_db(t) == mean + shadow + gain_db

    def test_same_seed_links_remain_identical(self):
        cfg = ChannelConfig()
        budget = LinkBudget.from_config(cfg)
        a = Link(35.0, budget, cfg, RngRegistry(9).stream("l"))
        b = Link(35.0, budget, cfg, RngRegistry(9).stream("l"))
        times = [0.03 * i for i in range(1, 40)]
        assert [a.snr_db(t) for t in times] == [b.snr_db(t) for t in times]


class TestKernelSatellites:
    def test_clear_releases_callback_references(self):
        """A cleared queue must not pin node/packet object graphs."""
        sim = Simulator()
        payload = object()
        handle = sim.call_in(1.0, lambda p: None, payload)
        sim.reset()  # reset() goes through EventQueue.clear()
        assert handle.cancelled
        assert handle.fn is None
        assert handle.args == ()

    def test_clear_skips_already_cancelled_handles(self):
        from repro.sim import EventQueue

        q = EventQueue()
        h = q.push(1.0, lambda: None)
        h.cancel()
        q.push(2.0, lambda: None)
        q.clear()
        assert len(q) == 0 and q.pop() is None

    def test_cancel_after_pop_keeps_live_count_consistent(self):
        from repro.sim import EventQueue

        q = EventQueue()
        h = q.push(1.0, lambda: None)
        q.push(2.0, lambda: None)
        assert q.pop() is h
        h.cancel()  # cancelling a popped handle must not double-decrement
        assert len(q) == 1

    def test_events_processed_updates_during_run(self):
        """The counter must advance per event (it is a live progress
        metric), and a mid-run reset() must not be overwritten at exit."""
        sim = Simulator()
        seen = []
        sim.call_in(1.0, lambda: seen.append(sim.events_processed))
        sim.call_in(2.0, lambda: seen.append(sim.events_processed))
        sim.call_in(3.0, sim.reset)
        sim.run()
        assert seen == [1, 2]
        assert sim.events_processed == 0  # reset() ran last and sticks


BENCH_SCALE = Path(__file__).resolve().parent.parent / "benchmarks" / "bench_scale.py"
CALIB = Path(__file__).resolve().parent.parent / "perfbench" / "calib.py"

#: The gated rung exactly as the ``scale-smoke`` CI job runs it.
GATE_ARGV = ["--nodes", "100", "--rounds", "3", "--require-speedup", "0.64"]


class TestScaleGate:
    """``bench_scale.py``'s gates decide on fixed rows: the subprocess
    that would time each size is stubbed, and N=100's baseline is the
    committed 0.8037 s in ``BENCH_scale.json``.  A row's reference time
    defaults to ``REFERENCE_S``, where calibrated and wall time agree."""

    @staticmethod
    def _load(name, path):
        spec = importlib.util.spec_from_file_location(name, path)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        return module

    @pytest.fixture
    def gate(self, monkeypatch, capsys):
        module = self._load("bench_scale", BENCH_SCALE)
        reference_s = self._load("calib", CALIB).REFERENCE_S

        def run(argv, seconds, ref_factor=1.0):
            def measure(n_nodes, rounds, backend, profile_dir=None):
                return {"nodes": n_nodes, "seconds": seconds, "rounds": rounds,
                        "events": 43443, "backend": backend,
                        "peak_rss_kb": 64 * 1024,
                        "ref_s": ref_factor * reference_s}

            monkeypatch.setattr(module, "_measure_subprocess", measure)
            code = module.main(argv)
            return code, capsys.readouterr().out

        return run

    def test_gate_fails_below_required_speedup(self, gate):
        # Twice the fastest of the runs R was calibrated on (0.668 s).
        code, out = gate(GATE_ARGV, seconds=2 * 0.668)
        assert code == 1
        assert "speedup gate [event] at N=100: 0.60x" in out
        assert "-> FAIL" in out

    def test_gate_fails_when_no_baselined_size_ran(self, gate):
        # The gate must never pass vacuously: N=50 has no baseline.
        argv = ["--nodes", "50", "--rounds", "3", "--require-speedup", "0.64"]
        code, out = gate(argv, seconds=0.01)
        assert code == 1
        assert "no baselined size was run" in out

    def test_gate_fails_over_max_seconds(self, gate):
        code, out = gate(["--nodes", "100", "--max-seconds", "1.0"], seconds=1.5)
        assert code == 1
        assert "wall-time gate at N=100: 1.50s (budget 1s) -> FAIL" in out

    def test_gate_passes_within_required_speedup(self, gate):
        # The slowest of the runs R was calibrated on: 0.8037 / 1.180 = 0.68x.
        code, out = gate(GATE_ARGV + ["--max-seconds", "2.0"], seconds=1.180)
        assert code == 0
        assert "0.68x (required 0.64x) -> OK" in out
        assert "wall-time gate at N=100: 1.18s (budget 2s) -> OK" in out

    def test_rows_show_calibrated_time_and_gate_on_wall_time(self, gate):
        # A host at half speed doubles both the wall and the reference
        # time; the row calibrates back to 1.180 s, but the gate judges
        # the 2.36 s of wall time (calibrated, twice the fastest N=100 run
        # on a 2-vCPU host would pass 0.64x, so it cannot gate).
        code, out = gate(GATE_ARGV, seconds=2 * 1.180, ref_factor=2.0)
        assert "  2.360s   36.0ms     1.180s " in out
        assert code == 1
        assert "speedup gate [event] at N=100: 0.34x" in out
