"""Deterministic discrete-event simulation kernel.

The kernel is intentionally small and dependency-free: a binary-heap event
queue keyed on ``(time, sequence)``, a simulation clock measured in
seconds (float), cooperative processes implemented as generators, periodic
timers, a hierarchical seeded random-number service, and an event trace
recorder used by the measurement layer.

Everything in the repository that "happens over time" — message transmission,
ping round trips, node churn, transaction relay — is scheduled through
:class:`~repro.sim.engine.Simulator`.

Public entry points: :class:`~repro.sim.engine.Simulator` (the event loop:
``schedule`` / ``run(until=...)``), :class:`~repro.sim.rng.RandomService`
(named deterministic random streams — the root of the repository's
same-seed ⇒ same-trace guarantee), :class:`~repro.sim.timers.PeriodicTimer`
and :class:`~repro.sim.trace.Tracer`.
"""

from repro.sim.clock import SimClock
from repro.sim.engine import Simulator
from repro.sim.events import Event
from repro.sim.process import Process, Timeout
from repro.sim.rng import RandomService
from repro.sim.timers import PeriodicTimer
from repro.sim.trace import TraceRecord, Tracer

__all__ = [
    "Event",
    "PeriodicTimer",
    "Process",
    "RandomService",
    "SimClock",
    "Simulator",
    "Timeout",
    "TraceRecord",
    "Tracer",
]
