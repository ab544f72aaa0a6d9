"""Tests for the simulation clock."""

import pytest

from repro.sim.clock import SimClock


class TestSimClock:
    def test_starts_at_zero_by_default(self):
        assert SimClock().now == 0.0

    def test_starts_at_given_time(self):
        assert SimClock(5.0).now == 5.0

    def test_negative_start_rejected(self):
        with pytest.raises(ValueError):
            SimClock(-1.0)

    def test_advance_moves_forward(self):
        clock = SimClock()
        clock.advance_to(3.5)
        assert clock.now == 3.5

    def test_advance_to_same_time_allowed(self):
        clock = SimClock()
        clock.advance_to(2.0)
        clock.advance_to(2.0)
        assert clock.now == 2.0

    def test_advance_backwards_rejected(self):
        clock = SimClock()
        clock.advance_to(10.0)
        with pytest.raises(ValueError):
            clock.advance_to(9.0)

    def test_advance_to_nan_rejected(self):
        clock = SimClock()
        clock.advance_to(1.0)
        with pytest.raises(ValueError):
            clock.advance_to(float("nan"))
        assert clock.now == 1.0

    def test_reset_returns_to_start(self):
        clock = SimClock()
        clock.advance_to(100.0)
        clock.reset()
        assert clock.now == 0.0

    def test_reset_to_custom_start(self):
        clock = SimClock()
        clock.advance_to(100.0)
        clock.reset(50.0)
        assert clock.now == 50.0

    def test_reset_negative_rejected(self):
        clock = SimClock()
        with pytest.raises(ValueError):
            clock.reset(-5.0)
