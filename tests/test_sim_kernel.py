"""Discrete-event kernel: scheduler, simulator, strict re-arms."""

import pytest

from repro.errors import SchedulerError, SimulationError
from repro.sim import EventQueue, Simulator


class TestEventQueue:
    def test_orders_by_time(self):
        q = EventQueue()
        out = []
        q.push(2.0, out.append, ("b",))
        q.push(1.0, out.append, ("a",))
        q.push(3.0, out.append, ("c",))
        while (call := q.pop()) is not None:
            call.fn(*call.args)
        assert out == ["a", "b", "c"]

    def test_fifo_for_ties(self):
        q = EventQueue()
        order = [q.push(1.0, lambda: None).seq for _ in range(5)]
        popped = [q.pop().seq for _ in range(5)]
        assert popped == order

    def test_priority_breaks_ties_before_seq(self):
        q = EventQueue()
        q.push(1.0, lambda: "late", priority=5)
        hi = q.push(1.0, lambda: "early", priority=-5)
        assert q.pop() is hi

    def test_len_counts_live_only(self):
        q = EventQueue()
        h1 = q.push(1.0, lambda: None)
        q.push(2.0, lambda: None)
        assert len(q) == 2
        h1.cancel()
        assert len(q) == 1

    def test_cancel_is_idempotent(self):
        q = EventQueue()
        h = q.push(1.0, lambda: None)
        h.cancel()
        h.cancel()
        assert len(q) == 0

    def test_cancelled_not_popped(self):
        q = EventQueue()
        h = q.push(1.0, lambda: None)
        keep = q.push(2.0, lambda: None)
        h.cancel()
        assert q.pop() is keep
        assert q.pop() is None

    def test_peek_skips_cancelled(self):
        q = EventQueue()
        h = q.push(1.0, lambda: None)
        q.push(5.0, lambda: None)
        h.cancel()
        assert q.peek_time() == 5.0

    def test_nan_time_rejected(self):
        q = EventQueue()
        with pytest.raises(SchedulerError):
            q.push(float("nan"), lambda: None)

    def test_clear(self):
        q = EventQueue()
        q.push(1.0, lambda: None)
        q.clear()
        assert not q and q.pop() is None


class TestSimulatorScheduling:
    def test_run_executes_in_time_order(self):
        sim = Simulator()
        out = []
        sim.call_in(1.5, out.append, "late")
        sim.call_in(0.5, out.append, "early")
        sim.run()
        assert out == ["early", "late"]
        assert sim.now == 1.5

    def test_call_at_absolute(self):
        sim = Simulator()
        seen = {}
        sim.call_at(2.0, lambda: seen.setdefault("t", sim.now))
        sim.run()
        assert seen["t"] == 2.0

    def test_past_scheduling_rejected(self):
        sim = Simulator()
        sim.call_in(1.0, lambda: None)
        sim.run()
        with pytest.raises(SchedulerError):
            sim.call_at(0.5, lambda: None)

    def test_negative_delay_rejected(self):
        with pytest.raises(SchedulerError):
            Simulator().call_in(-0.1, lambda: None)

    def test_run_until_advances_clock_exactly(self):
        sim = Simulator()
        sim.call_in(10.0, lambda: None)
        sim.run_until(5.0)
        assert sim.now == 5.0
        assert sim.pending_events == 1

    def test_run_until_includes_boundary(self):
        sim = Simulator()
        hits = []
        sim.call_at(5.0, hits.append, 1)
        sim.run_until(5.0)
        assert hits == [1]

    def test_run_until_composes(self):
        sim = Simulator()
        hits = []
        for t in (1.0, 2.0, 3.0):
            sim.call_at(t, hits.append, t)
        sim.run_until(1.5)
        assert hits == [1.0]
        sim.run_until(3.0)
        assert hits == [1.0, 2.0, 3.0]

    def test_run_until_past_rejected(self):
        sim = Simulator()
        sim.run_until(4.0)
        with pytest.raises(SchedulerError):
            sim.run_until(3.0)

    def test_stop_breaks_run(self):
        sim = Simulator()
        out = []
        sim.call_in(1.0, lambda: (out.append("a"), sim.stop()))
        sim.call_in(2.0, out.append, "b")
        sim.run()
        assert out == ["a"]
        assert sim.pending_events == 1

    def test_events_scheduled_during_run_execute(self):
        sim = Simulator()
        out = []

        def first():
            out.append("first")
            sim.call_in(1.0, lambda: out.append("second"))

        sim.call_in(1.0, first)
        sim.run()
        assert out == ["first", "second"]
        assert sim.now == 2.0

    def test_cancelled_handle_not_executed(self):
        sim = Simulator()
        out = []
        h = sim.call_in(1.0, out.append, "x")
        h.cancel()
        sim.run()
        assert out == []

    def test_max_events_bound(self):
        sim = Simulator()
        out = []
        for i in range(10):
            sim.call_in(float(i + 1), out.append, i)
        sim.run(max_events=3)
        assert out == [0, 1, 2]

    def test_events_processed_counter(self):
        sim = Simulator()
        for i in range(5):
            sim.call_in(float(i), lambda: None)
        sim.run()
        assert sim.events_processed == 5

    def test_reentrant_run_rejected(self):
        sim = Simulator()
        err = {}

        def inner():
            try:
                sim.run()
            except SimulationError as exc:
                err["e"] = exc

        sim.call_in(1.0, inner)
        sim.run()
        assert "e" in err

    def test_reset(self):
        sim = Simulator()
        sim.call_in(1.0, lambda: None)
        sim.run()
        sim.reset()
        assert sim.now == 0.0 and sim.pending_events == 0

    def test_simultaneous_events_fifo(self):
        sim = Simulator()
        out = []
        for i in range(5):
            sim.call_at(1.0, out.append, i)
        sim.run()
        assert out == [0, 1, 2, 3, 4]


class TestStrictScheduling:
    """The float-resolution guard shared by every periodic re-arm."""

    def test_strictly_after_normal_delay(self):
        from repro.sim import strictly_after

        assert strictly_after(10.0, 0.5) == 10.5

    def test_strictly_after_nudges_underflowed_target(self):
        import math

        from repro.sim import strictly_after

        now = 1e9
        tiny = 1e-12  # far below eps(1e9) ~ 1.2e-7
        assert now + tiny == now  # the raw target would not advance
        target = strictly_after(now, tiny)
        assert target > now
        assert target == math.nextafter(now, math.inf)

    def test_strictly_after_rejects_negative(self):
        from repro.sim import strictly_after

        with pytest.raises(SchedulerError):
            strictly_after(0.0, -1.0)

    def test_call_in_strict_advances_clock_at_large_times(self):
        """A periodic re-arm with an underflowing delay must not freeze
        the clock in a same-instant event storm (t >= 1e9 s regression)."""
        sim = Simulator(start_time=4e15)  # eps(4e15) ~ 0.5 s
        fired = []

        def rearm():
            fired.append(sim.now)
            if len(fired) < 100:
                sim.call_in_strict(0.05, rearm)  # 0.05 < eps: underflows

        sim.call_in_strict(0.05, rearm)
        sim.run(max_events=1000)
        assert len(fired) == 100
        # Strictly increasing times: the clock advanced at every firing.
        assert all(b > a for a, b in zip(fired, fired[1:]))

    def test_tone_train_advances_at_large_times(self):
        """The tone broadcaster's re-arm goes through the guard."""
        from repro.config import EnergyConfig
        from repro.energy import Battery, EnergyMeter, RadioEnergyModel
        from repro.mac import ToneBroadcaster, ToneChannelSpec, ToneKind

        sim = Simulator(start_time=1e15)  # eps(1e15) ~ 0.125 > pulse periods
        meter = EnergyMeter(
            sim, RadioEnergyModel(EnergyConfig()), Battery(10.0)
        )
        bcast = ToneBroadcaster(sim, ToneChannelSpec(), meter)
        bcast.start(ToneKind.IDLE)
        sim.run(max_events=500)
        assert sim.now > 1e15
        assert bcast.pulses_emitted["idle"] >= 100

    def test_network_settle_cadence_survives_large_offset(self):
        """Sub-resolution settle/round cadences keep the clock moving."""
        sim = Simulator(start_time=4e15)
        ticks = []

        def settle_tick():
            ticks.append(sim.now)
            if len(ticks) < 50:
                sim.call_in_strict(0.1, settle_tick)  # underflows at 4e15

        sim.call_in_strict(0.1, settle_tick)
        sim.run(max_events=200)
        assert len(ticks) == 50
        assert all(b > a for a, b in zip(ticks, ticks[1:]))

    def test_cbr_source_advances_at_large_times(self):
        """Traffic-source re-arms go through the guard too: a CBR interval
        below the clock resolution must not freeze the simulation."""
        from repro.traffic import make_source

        sim = Simulator(start_time=4e15)  # eps(4e15) ~ 0.5 s > 0.2 s interval
        got = []
        src = make_source("cbr", sim, 0, 100, got.append, 5.0, None)
        src.start()
        sim.run(max_events=50)
        assert len(got) == 50
        births = [p.birth_s for p in got]
        assert all(b > a for a, b in zip(births, births[1:]))
