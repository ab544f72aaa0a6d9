"""Periodic timers.

Bitcoin nodes run several recurring activities — peer discovery every 100 ms
in the paper's setup, ping keep-alives, cluster maintenance.  A
:class:`PeriodicTimer` wraps the "reschedule yourself after each firing"
pattern and supports jitter so that thousands of nodes do not fire at exactly
the same instant (which would be unrealistic and create artificial event
storms).
"""

from __future__ import annotations

from typing import Callable, Optional, TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checkers
    from repro.sim.engine import Simulator


class PeriodicTimer:
    """Repeatedly invoke a callback at a fixed interval.

    Args:
        simulator: owning engine.
        interval: seconds between firings.
        callback: invoked with no arguments on every firing.
        jitter: if non-zero, each interval is multiplied by a uniform factor in
            ``[1 - jitter, 1 + jitter]`` drawn from ``rng``.
        rng: random stream used for jitter; required when ``jitter > 0``.
        label: label used for scheduled events (shows up in traces).
    """

    def __init__(
        self,
        simulator: "Simulator",
        interval: float,
        callback: Callable[[], None],
        *,
        jitter: float = 0.0,
        rng: Optional[np.random.Generator] = None,
        label: str = "periodic",
    ) -> None:
        if interval <= 0:
            raise ValueError(f"timer interval must be positive, got {interval}")
        if jitter < 0 or jitter >= 1:
            raise ValueError(f"jitter must be in [0, 1), got {jitter}")
        if jitter > 0 and rng is None:
            raise ValueError("a random stream is required when jitter > 0")
        self._simulator = simulator
        self._interval = float(interval)
        self._callback = callback
        self._jitter = float(jitter)
        self._rng = rng
        self._label = label
        self._running = False
        self._handle = None
        self._fired = 0
        # The first firing comes one (jittered) interval after start; drawing
        # it here fixes its place in the jitter stream's draw order.
        self._start_delay = self._next_interval()

    @property
    def running(self) -> bool:
        """True while the timer is scheduled."""
        return self._running

    @property
    def fired(self) -> int:
        """Number of times the callback has run."""
        return self._fired

    @property
    def interval(self) -> float:
        """Nominal interval in seconds."""
        return self._interval

    def start(self) -> None:
        """Begin firing.  Starting an already-running timer is an error."""
        if self._running:
            raise RuntimeError(f"timer {self._label!r} is already running")
        self._running = True
        self._handle = self._simulator.schedule(
            self._start_delay, self._fire, label=self._label
        )

    def stop(self) -> None:
        """Stop firing.  Safe to call when already stopped."""
        self._running = False
        if self._handle is not None:
            self._handle.cancel()
            self._handle = None

    def _next_interval(self) -> float:
        if self._jitter == 0.0 or self._rng is None:
            return self._interval
        factor = self._rng.uniform(1.0 - self._jitter, 1.0 + self._jitter)
        return self._interval * factor

    def _fire(self) -> None:
        if not self._running:
            return
        self._fired += 1
        firing = self._handle
        self._callback()
        # A callback that stopped or restarted the timer has already decided
        # the next firing; rescheduling here would start a second chain.
        if self._running and self._handle is firing:
            self._handle = self._simulator.schedule(
                self._next_interval(), self._fire, label=self._label
            )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "running" if self._running else "stopped"
        return f"PeriodicTimer({self._label!r}, every {self._interval}s, {state})"
