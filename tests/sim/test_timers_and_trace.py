"""Tests for periodic timers and the tracer."""

import numpy as np
import pytest

from repro.sim.engine import Simulator
from repro.sim.timers import PeriodicTimer
from repro.sim.trace import Tracer


class TestPeriodicTimer:
    def test_fires_repeatedly(self, simulator):
        ticks = []
        timer = PeriodicTimer(simulator, 1.0, lambda: ticks.append(simulator.now))
        timer.start()
        simulator.run(until=5.5)
        assert ticks == [pytest.approx(t) for t in (1.0, 2.0, 3.0, 4.0, 5.0)]
        assert timer.fired == 5

    def test_first_firing_one_interval_after_start(self, simulator):
        ticks = []
        timer = PeriodicTimer(simulator, 1.0, lambda: ticks.append(simulator.now))
        simulator.schedule(2.5, timer.start)
        simulator.run(until=5.0)
        assert ticks == [pytest.approx(t) for t in (3.5, 4.5)]

    def test_jittered_first_interval_drawn_at_construction(self, simulator):
        """The first interval is the jitter stream's first draw, taken when the
        timer is built: draws made on the stream before start() do not move it."""
        ticks = []
        rng = np.random.default_rng(5)
        expected = 2.0 * np.random.default_rng(5).uniform(0.7, 1.3)
        timer = PeriodicTimer(
            simulator, 2.0, lambda: ticks.append(simulator.now), jitter=0.3, rng=rng
        )
        rng.random(10)  # another consumer of the same stream
        timer.start()
        simulator.run(until=1.0)
        assert ticks == []
        simulator.run(until=expected)
        assert ticks == [expected]

    def test_stop_prevents_future_firings(self, simulator):
        ticks = []
        timer = PeriodicTimer(simulator, 1.0, lambda: ticks.append(simulator.now))
        timer.start()
        simulator.schedule(2.5, timer.stop)
        simulator.run(until=10.0)
        assert len(ticks) == 2
        assert not timer.running

    def test_stop_is_idempotent(self, simulator):
        timer = PeriodicTimer(simulator, 1.0, lambda: None)
        timer.start()
        timer.stop()
        timer.stop()
        assert not timer.running

    def test_restart_from_its_own_callback_keeps_one_chain(self, simulator):
        """A callback that stops and restarts its timer has already scheduled
        the next firing; the timer must not schedule a second one."""
        ticks = []
        timer = None

        def tick():
            ticks.append(simulator.now)
            if len(ticks) == 2:
                timer.stop()
                timer.start()

        timer = PeriodicTimer(simulator, 1.0, tick)
        timer.start()
        simulator.run(until=6.5)
        assert ticks == [pytest.approx(t) for t in (1.0, 2.0, 3.0, 4.0, 5.0, 6.0)]
        assert timer.fired == 6
        assert timer.running

    def test_double_start_rejected(self, simulator):
        timer = PeriodicTimer(simulator, 1.0, lambda: None)
        timer.start()
        with pytest.raises(RuntimeError):
            timer.start()

    def test_jitter_requires_rng(self, simulator):
        with pytest.raises(ValueError):
            PeriodicTimer(simulator, 1.0, lambda: None, jitter=0.2)

    def test_jittered_intervals_vary_but_stay_bounded(self, simulator):
        ticks = []
        timer = PeriodicTimer(
            simulator,
            1.0,
            lambda: ticks.append(simulator.now),
            jitter=0.3,
            rng=simulator.random.stream("jitter"),
        )
        timer.start()
        simulator.run(until=20.0)
        gaps = [b - a for a, b in zip(ticks, ticks[1:])]
        assert all(0.7 - 1e-9 <= gap <= 1.3 + 1e-9 for gap in gaps)
        assert len(set(round(g, 6) for g in gaps)) > 1

    def test_invalid_interval_rejected(self, simulator):
        with pytest.raises(ValueError):
            PeriodicTimer(simulator, 0.0, lambda: None)

    def test_invalid_jitter_rejected(self, simulator):
        with pytest.raises(ValueError):
            PeriodicTimer(
                simulator, 1.0, lambda: None, jitter=1.5, rng=simulator.random.stream("j")
            )


class TestTracer:
    def test_disabled_tracer_records_nothing(self):
        tracer = Tracer(enabled=False)
        tracer.record(1.0, "message", "inv")
        assert len(tracer) == 0

    def test_enabled_tracer_records(self):
        tracer = Tracer(enabled=True)
        tracer.record(1.0, "message", "inv", detail=(1, 2))
        assert tracer.count() == 1
        record = tracer.records()[0]
        assert record.time == 1.0
        assert record.category == "message"
        assert record.subject == "inv"
        assert record.detail == (1, 2)

    def test_category_filtering_on_record(self):
        tracer = Tracer(enabled=True, categories=["message"])
        tracer.record(1.0, "message", "inv")
        tracer.record(2.0, "churn", "leave")
        assert tracer.count() == 1
        assert tracer.count("message") == 1
        assert tracer.count("churn") == 0

    def test_records_filtered_by_category(self):
        tracer = Tracer(enabled=True)
        tracer.record(1.0, "a", "x")
        tracer.record(2.0, "b", "y")
        assert [r.subject for r in tracer.records("b")] == ["y"]

    def test_clear_empties_tracer(self):
        tracer = Tracer(enabled=True)
        tracer.record(1.0, "a", "x")
        tracer.clear()
        assert len(tracer) == 0
        assert tracer.count("a") == 0

    def test_simulator_tracer_wired_in(self):
        simulator = Simulator(seed=1, trace=True)
        simulator.tracer.record(simulator.now, "test", "subject")
        assert simulator.tracer.count("test") == 1
