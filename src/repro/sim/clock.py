"""Simulation clock.

The clock is a thin wrapper around a float number of simulated seconds.  It is
owned by the :class:`~repro.sim.engine.Simulator` and only the engine may
advance it; every other component reads it through ``simulator.now``.

Keeping the clock as its own object (rather than a bare float attribute) lets
components hold a reference to the clock and observe time advancing without
holding a reference to the whole engine, which keeps the measurement layer
decoupled from the scheduling layer.
"""

from __future__ import annotations


class SimClock:
    """Monotonic simulated time in seconds (the engine's hot loop sets ``_now`` itself)."""

    __slots__ = ("_now",)

    def __init__(self, start: float = 0.0) -> None:
        if start < 0:
            raise ValueError(f"simulation time cannot start negative, got {start}")
        self._now = float(start)

    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    def advance_to(self, t: float) -> None:
        """Move the clock forward to ``t``.

        Raises:
            ValueError: if ``t`` is earlier than the current time or NaN.  The
                engine guarantees events are popped in order, so this only
                fires on programming errors.
        """
        if not t >= self._now:  # "not >=" so NaN fails too
            raise ValueError(
                f"cannot move simulation clock backwards: now={self._now}, requested={t}"
            )
        self._now = float(t)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SimClock(now={self._now:.6f})"
