"""Cooperative processes for the simulation kernel.

A *process* is a Python generator driven by the engine.  Each ``yield``
suspends the process for a stretch of simulated time:

* ``yield Timeout(1.5)`` — resume 1.5 simulated seconds later;
* ``yield 0.25`` — shorthand for ``Timeout(0.25)``.

Processes are used for long-running behaviours such as node churn, periodic
peer discovery, and the transaction workload generator.
"""

from __future__ import annotations

from typing import Any, Iterator


class ProcessExit(Exception):
    """Internal signal that a process generator has finished."""


class Timeout:
    """Yielded by a process to sleep for ``delay`` simulated seconds."""

    __slots__ = ("delay",)

    def __init__(self, delay: float) -> None:
        if delay < 0:
            raise ValueError(f"timeout delay cannot be negative, got {delay}")
        self.delay = float(delay)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Timeout({self.delay})"


class Process:
    """Wrapper around a generator being driven by the engine."""

    __slots__ = ("_generator", "name", "_alive")

    def __init__(self, generator: Iterator[Any], name: str = "") -> None:
        self._generator = generator
        self.name = name or getattr(generator, "__name__", "process")
        self._alive = True

    @property
    def alive(self) -> bool:
        """True while the generator has not returned."""
        return self._alive

    def step(self) -> Any:
        """Advance the generator, returning what it yields.

        Raises:
            ProcessExit: when the generator completes.
        """
        try:
            return next(self._generator)
        except StopIteration:
            self._alive = False
            raise ProcessExit() from None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "alive" if self._alive else "finished"
        return f"Process({self.name!r}, {state})"
