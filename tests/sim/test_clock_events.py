"""Unit tests for the event queue and simulation clock."""

import pytest

from repro.sim import EventQueue, Simulation, SimulationError


class TestEventQueue:
    def test_orders_by_time(self):
        q = EventQueue()
        order = []
        q.push(5.0, lambda: order.append("b"))
        q.push(1.0, lambda: order.append("a"))
        while (event := q.pop()) is not None:
            event.callback()
        assert order == ["a", "b"]

    def test_ties_resolve_by_priority_then_sequence(self):
        q = EventQueue()
        order = []
        q.push(1.0, lambda: order.append("late"), priority=1)
        q.push(1.0, lambda: order.append("early"), priority=-1)
        q.push(1.0, lambda: order.append("mid"), priority=0)
        while (event := q.pop()) is not None:
            event.callback()
        assert order == ["early", "mid", "late"]

    def test_cancellation(self):
        q = EventQueue()
        fired = []
        event = q.push(1.0, lambda: fired.append(1))
        event.cancel()
        assert q.pop() is None
        assert not fired

    def test_len_excludes_cancelled(self):
        q = EventQueue()
        e1 = q.push(1.0, lambda: None)
        q.push(2.0, lambda: None)
        e1.cancel()
        assert len(q) == 1

    def test_peek_time_skips_cancelled(self):
        q = EventQueue()
        e1 = q.push(1.0, lambda: None)
        q.push(2.0, lambda: None)
        e1.cancel()
        assert q.peek_time() == pytest.approx(2.0)

    def test_bool(self):
        q = EventQueue()
        assert not q
        event = q.push(1.0, lambda: None)
        assert q
        event.cancel()
        assert not q


class TestSimulation:
    def test_clock_advances_to_event_times(self):
        sim = Simulation()
        times = []
        sim.schedule(3.0, lambda: times.append(sim.now))
        sim.schedule(1.0, lambda: times.append(sim.now))
        sim.run_until_idle()
        assert times == [1.0, 3.0]

    def test_schedule_in_past_rejected(self):
        sim = Simulation()
        with pytest.raises(SimulationError):
            sim.schedule(-1.0, lambda: None)

    def test_run_until_horizon_stops_early(self):
        sim = Simulation()
        fired = []
        sim.schedule(1.0, lambda: fired.append(1))
        sim.schedule(10.0, lambda: fired.append(2))
        sim.run(until=5.0)
        assert fired == [1]
        assert sim.now == pytest.approx(5.0)

    def test_events_can_schedule_events(self):
        sim = Simulation()
        trace = []

        def first():
            trace.append(("first", sim.now))
            sim.schedule(2.0, second)

        def second():
            trace.append(("second", sim.now))

        sim.schedule(1.0, first)
        sim.run_until_idle()
        assert trace == [("first", 1.0), ("second", 3.0)]

    def test_callback_args(self):
        sim = Simulation()
        got = []
        sim.schedule(1.0, lambda a, b: got.append(a + b), 2, 3)
        sim.run_until_idle()
        assert got == [5]

    def test_runaway_guard(self):
        sim = Simulation()

        def loop():
            sim.schedule(0.0, loop)

        sim.schedule(0.0, loop)
        with pytest.raises(SimulationError):
            sim.run(max_events=100)

    def test_events_dispatched_counter(self):
        sim = Simulation()
        for i in range(5):
            sim.schedule(float(i), lambda: None)
        sim.run_until_idle()
        assert sim.events_dispatched == 5

    def test_reentrant_run_rejected(self):
        sim = Simulation()
        errors = []

        def reenter():
            try:
                sim.run()
            except SimulationError:
                errors.append(True)

        sim.schedule(1.0, reenter)
        sim.run_until_idle()
        assert errors == [True]
