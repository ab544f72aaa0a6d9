"""Tests for the discrete-event engine: scheduling, ordering, processes."""

import pytest

from repro.sim.engine import Simulator, StopSimulation
from repro.sim.events import EventPriority
from repro.sim.process import Timeout, WaitEvent


class TestScheduling:
    def test_events_run_in_time_order(self, simulator):
        order = []
        simulator.schedule(2.0, lambda: order.append("late"))
        simulator.schedule(1.0, lambda: order.append("early"))
        simulator.run()
        assert order == ["early", "late"]

    def test_clock_advances_to_event_time(self, simulator):
        simulator.schedule(3.25, lambda: None)
        end = simulator.run()
        assert end == pytest.approx(3.25)
        assert simulator.now == pytest.approx(3.25)

    def test_same_time_events_run_in_schedule_order(self, simulator):
        order = []
        for i in range(5):
            simulator.schedule(1.0, lambda i=i: order.append(i))
        simulator.run()
        assert order == [0, 1, 2, 3, 4]

    def test_priority_breaks_ties(self, simulator):
        order = []
        simulator.schedule(1.0, lambda: order.append("normal"), priority=EventPriority.NORMAL)
        simulator.schedule(1.0, lambda: order.append("urgent"), priority=EventPriority.URGENT)
        simulator.run()
        assert order == ["urgent", "normal"]

    def test_negative_delay_rejected(self, simulator):
        with pytest.raises(ValueError):
            simulator.schedule(-0.1, lambda: None)

    def test_schedule_at_past_rejected(self, simulator):
        simulator.schedule(1.0, lambda: None)
        simulator.run()
        with pytest.raises(ValueError):
            simulator.schedule_at(0.5, lambda: None)

    def test_nan_times_rejected(self, simulator):
        """NaN fails no "earlier than now" comparison; it must still be refused.

        An accepted NaN event would pop first and set the clock to NaN.
        """
        nan = float("nan")
        with pytest.raises(ValueError):
            simulator.schedule(nan, lambda: None)
        with pytest.raises(ValueError):
            simulator.schedule_at(nan, lambda: None)
        fired = []
        for delay in (2.0, 1.0, 0.5):
            simulator.schedule(delay, lambda delay=delay: fired.append(delay))
        simulator.run()
        assert fired == [0.5, 1.0, 2.0]
        assert simulator.now == 2.0

    def test_call_soon_runs_at_current_time(self, simulator):
        times = []
        simulator.schedule(2.0, lambda: simulator.call_soon(lambda: times.append(simulator.now)))
        simulator.run()
        assert times == [pytest.approx(2.0)]

    def test_events_executed_counter(self, simulator):
        for _ in range(7):
            simulator.schedule(1.0, lambda: None)
        simulator.run()
        assert simulator.events_executed == 7

    def test_run_until_stops_before_later_events(self, simulator):
        fired = []
        simulator.schedule(1.0, lambda: fired.append(1))
        simulator.schedule(10.0, lambda: fired.append(10))
        simulator.run(until=5.0)
        assert fired == [1]
        assert simulator.now == pytest.approx(5.0)

    def test_run_until_can_resume(self, simulator):
        fired = []
        simulator.schedule(1.0, lambda: fired.append(1))
        simulator.schedule(10.0, lambda: fired.append(10))
        simulator.run(until=5.0)
        simulator.run(until=20.0)
        assert fired == [1, 10]

    def test_run_until_advances_clock_when_no_events(self, simulator):
        simulator.run(until=42.0)
        assert simulator.now == pytest.approx(42.0)

    def test_max_events_stops_early(self, simulator):
        for _ in range(100):
            simulator.schedule(1.0, lambda: None)
        simulator.run(max_events=10)
        assert simulator.events_executed == 10

    def test_events_can_schedule_more_events(self, simulator):
        results = []

        def chain(depth):
            results.append(depth)
            if depth < 5:
                simulator.schedule(1.0, lambda: chain(depth + 1))

        simulator.schedule(1.0, lambda: chain(1))
        simulator.run()
        assert results == [1, 2, 3, 4, 5]
        assert simulator.now == pytest.approx(5.0)

    def test_stop_simulation_exception_halts_run(self, simulator):
        fired = []
        simulator.schedule(1.0, lambda: fired.append(1))

        def stopper():
            raise StopSimulation()

        simulator.schedule(2.0, stopper)
        simulator.schedule(3.0, lambda: fired.append(3))
        simulator.run()
        assert fired == [1]


class TestCancellation:
    def test_cancelled_event_does_not_fire(self, simulator):
        fired = []
        handle = simulator.schedule(1.0, lambda: fired.append(1))
        assert handle.cancel() is True
        simulator.run()
        assert fired == []

    def test_cancel_twice_returns_false(self, simulator):
        handle = simulator.schedule(1.0, lambda: None)
        assert handle.cancel() is True
        assert handle.cancel() is False

    def test_handle_reports_time_and_state(self, simulator):
        handle = simulator.schedule(2.5, lambda: None, label="probe")
        assert handle.time == pytest.approx(2.5)
        assert handle.label == "probe"
        assert not handle.cancelled
        handle.cancel()
        assert handle.cancelled


class TestProcesses:
    def test_process_with_timeouts(self, simulator):
        timeline = []

        def worker():
            timeline.append(simulator.now)
            yield Timeout(1.0)
            timeline.append(simulator.now)
            yield Timeout(2.0)
            timeline.append(simulator.now)

        simulator.spawn(worker(), name="worker")
        simulator.run()
        assert timeline == [pytest.approx(0.0), pytest.approx(1.0), pytest.approx(3.0)]

    def test_process_yielding_plain_number(self, simulator):
        ticks = []

        def worker():
            yield 0.5
            ticks.append(simulator.now)

        simulator.spawn(worker())
        simulator.run()
        assert ticks == [pytest.approx(0.5)]

    def test_process_result_captured(self, simulator):
        def worker():
            yield Timeout(1.0)
            return "done"

        process = simulator.spawn(worker())
        simulator.run()
        assert not process.alive
        assert process.result == "done"

    def test_process_wait_event_receives_value(self, simulator):
        received = []
        gate = WaitEvent("gate")

        def waiter():
            value = yield gate
            received.append((simulator.now, value))

        simulator.spawn(waiter())
        simulator.schedule(4.0, lambda: gate.trigger("payload"))
        simulator.run()
        assert received == [(pytest.approx(4.0), "payload")]

    def test_multiple_waiters_all_resume(self, simulator):
        resumed = []
        gate = WaitEvent()

        def waiter(tag):
            yield gate
            resumed.append(tag)

        simulator.spawn(waiter("a"))
        simulator.spawn(waiter("b"))
        simulator.schedule(1.0, gate.trigger)
        simulator.run()
        assert sorted(resumed) == ["a", "b"]

    def test_killed_process_stops(self, simulator):
        ticks = []

        def worker():
            while True:
                yield Timeout(1.0)
                ticks.append(simulator.now)

        process = simulator.spawn(worker())
        simulator.schedule(3.5, process.kill)
        simulator.run(until=10.0)
        assert len(ticks) == 3

    def test_unsupported_yield_raises(self, simulator):
        def worker():
            yield "not a timeout"

        simulator.spawn(worker())
        with pytest.raises(TypeError):
            simulator.run()

    def test_wait_event_cannot_trigger_twice(self):
        gate = WaitEvent()
        gate.trigger()
        with pytest.raises(RuntimeError):
            gate.trigger()


class TestDeterminism:
    def test_same_seed_same_stream(self):
        sim_a, sim_b = Simulator(seed=9), Simulator(seed=9)
        draws_a = sim_a.random.stream("x").random(5).tolist()
        draws_b = sim_b.random.stream("x").random(5).tolist()
        assert draws_a == draws_b

    def test_different_streams_are_independent(self):
        simulator = Simulator(seed=9)
        a = simulator.random.stream("a").random(5).tolist()
        b = simulator.random.stream("b").random(5).tolist()
        assert a != b

    def test_stream_creation_order_does_not_matter(self):
        sim_a, sim_b = Simulator(seed=9), Simulator(seed=9)
        sim_a.random.stream("first")
        a = sim_a.random.stream("target").random(3).tolist()
        b = sim_b.random.stream("target").random(3).tolist()
        assert a == b

    def test_fork_gives_reproducible_child(self):
        sim_a, sim_b = Simulator(seed=9), Simulator(seed=9)
        a = sim_a.random.fork("child").stream("x").random(3).tolist()
        b = sim_b.random.fork("child").stream("x").random(3).tolist()
        assert a == b
