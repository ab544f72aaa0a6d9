"""The discrete-event simulation engine.

:class:`Simulator` owns the clock, the event heap, the random-number service
and the tracer.  All network, protocol and measurement components schedule
work through :meth:`Simulator.schedule` / :meth:`Simulator.schedule_at` or by
spawning generator-based processes with :meth:`Simulator.spawn`.

The engine is single-threaded and deterministic: two runs constructed with the
same seed execute exactly the same event sequence.

The event heap stores ``(time, priority, sequence, event)`` tuples so heap
sifts compare plain numbers; combined with ``__slots__`` on :class:`Event`
this keeps the per-event dispatch cost low (the hot loop is the dominant cost
of every experiment).
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, Iterator, Optional

from repro.sim.clock import SimClock
from repro.sim.events import Event, EventHandle, EventPriority
from repro.sim.process import Process, ProcessExit, Timeout, WaitEvent
from repro.sim.rng import RandomService
from repro.sim.trace import Tracer


class StopSimulation(Exception):
    """Raised by a callback or process to stop the run immediately."""


class Simulator:
    """Deterministic discrete-event simulator.

    Args:
        seed: master seed for the :class:`RandomService`.  Every stochastic
            component derives its own stream from this seed, so a single
            integer reproduces an entire experiment.
        trace: whether to record an event trace (useful in tests and for the
            measurement layer's bookkeeping; adds memory overhead).
    """

    def __init__(self, seed: int = 0, trace: bool = False) -> None:
        self.clock = SimClock()
        self.random = RandomService(seed)
        self.tracer = Tracer(enabled=trace)
        #: Heap of (time, priority, sequence, Event) tuples; the leading
        #: numeric fields keep heap comparisons away from rich Python objects
        #: and ``sequence`` is unique, so the Event itself is never compared.
        self._heap: list[tuple[float, int, int, Event]] = []
        self._sequence = 0
        self._running = False
        self._stopped = False
        self._events_executed = 0
        self._processes: list[Process] = []

    # ------------------------------------------------------------------ time
    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self.clock.now

    @property
    def events_executed(self) -> int:
        """Number of events that have fired so far."""
        return self._events_executed

    @property
    def pending_events(self) -> int:
        """Number of events still in the heap (including cancelled ones)."""
        return len(self._heap)

    # ------------------------------------------------------------- scheduling
    def schedule(
        self,
        delay: float,
        callback: Callable[[], Any],
        *,
        priority: int = EventPriority.NORMAL,
        label: str = "",
    ) -> EventHandle:
        """Schedule ``callback`` to run ``delay`` seconds from now."""
        # "not >=" rejects NaN too: every comparison with NaN is False.
        if not delay >= 0:
            raise ValueError(f"cannot schedule an event in the past (delay={delay})")
        return self.schedule_at(self.clock._now + delay, callback, priority=priority, label=label)

    def schedule_at(
        self,
        time: float,
        callback: Callable[[], Any],
        *,
        priority: int = EventPriority.NORMAL,
        label: str = "",
    ) -> EventHandle:
        """Schedule ``callback`` to run at absolute simulated time ``time``."""
        now = self.clock._now
        if not time >= now:
            raise ValueError(
                f"cannot schedule an event in the past: now={now}, requested={time}"
            )
        time = float(time)
        priority = int(priority)
        sequence = self._sequence
        self._sequence = sequence + 1
        event = Event(time, priority, sequence, callback, label)
        heapq.heappush(self._heap, (time, priority, sequence, event))
        return EventHandle(event)

    def call_soon(self, callback: Callable[[], Any], *, label: str = "") -> EventHandle:
        """Schedule ``callback`` to run at the current time, after current events."""
        return self.schedule(0.0, callback, label=label)

    # -------------------------------------------------------------- processes
    def spawn(self, generator: Iterator[Any], *, name: str = "") -> Process:
        """Start a cooperative process.

        The generator may ``yield``:

        * :class:`Timeout(delay)` — resume after ``delay`` simulated seconds;
        * :class:`WaitEvent(event)` — resume when the given wait-event fires;
        * a plain float — shorthand for ``Timeout(float)``.

        Returns:
            The :class:`Process` wrapper, which exposes ``alive`` and
            ``result``.
        """
        process = Process(generator, name=name)
        self._processes.append(process)
        self.call_soon(lambda: self._step_process(process, None), label=f"spawn:{name}")
        return process

    def _step_process(self, process: Process, value: Any) -> None:
        if not process.alive:
            return
        try:
            yielded = process.step(value)
        except ProcessExit:
            return
        self._handle_yield(process, yielded)

    def _handle_yield(self, process: Process, yielded: Any) -> None:
        if isinstance(yielded, Timeout):
            self.schedule(
                yielded.delay,
                lambda: self._step_process(process, None),
                label=f"timeout:{process.name}",
            )
        elif isinstance(yielded, WaitEvent):
            yielded.add_waiter(lambda value: self._step_process(process, value))
        elif isinstance(yielded, (int, float)):
            self.schedule(
                float(yielded),
                lambda: self._step_process(process, None),
                label=f"timeout:{process.name}",
            )
        else:
            raise TypeError(
                f"process {process.name!r} yielded unsupported value {yielded!r}; "
                "yield a Timeout, WaitEvent, or a number of seconds"
            )

    # ------------------------------------------------------------------- run
    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> float:
        """Run the simulation.

        Args:
            until: stop once the clock would pass this time (the clock is left
                at ``until``).  ``None`` runs until the event heap drains.
            max_events: safety valve — stop after this many events.

        Returns:
            The simulated time at which the run stopped.
        """
        if self._running:
            raise RuntimeError("simulator is already running (re-entrant run() call)")
        self._running = True
        self._stopped = False
        heap = self._heap
        heappop = heapq.heappop
        clock = self.clock
        try:
            while heap:
                entry = heap[0]
                event = entry[3]
                if event.cancelled:
                    heappop(heap)
                    continue
                event_time = entry[0]
                if until is not None and event_time > until:
                    clock.advance_to(until)
                    break
                heappop(heap)
                # SimClock.advance_to inlined; the call only runs to raise.
                if not event_time >= clock._now:
                    clock.advance_to(event_time)
                clock._now = event_time
                self._events_executed += 1
                try:
                    event.callback()
                except StopSimulation:
                    self._stopped = True
                    break
                if max_events is not None and self._events_executed >= max_events:
                    break
            else:
                # Heap drained without hitting the until-limit: if an explicit
                # horizon was requested, report time as that horizon.
                if until is not None and until > self.now:
                    self.clock.advance_to(until)
        finally:
            self._running = False
        return self.now

    def stop(self) -> None:
        """Request the run loop to stop after the current event."""
        raise StopSimulation()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Simulator(now={self.now:.3f}, pending={self.pending_events}, "
            f"executed={self._events_executed})"
        )
