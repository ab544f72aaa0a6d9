"""The discrete-event simulation engine.

:class:`Simulator` owns the clock, the event heap, the random-number service
and the tracer.  All network, protocol and measurement components schedule
work through :meth:`Simulator.schedule` / :meth:`Simulator.schedule_at`, post
fire-and-forget calls in batches with :meth:`Simulator.post_many`, or spawn
generator-based processes with :meth:`Simulator.spawn`.

The engine is single-threaded and deterministic: two runs constructed with the
same seed execute exactly the same event sequence.

Every heap entry has one shape, ``(time, sequence, fn, args)``.  Heap sifts
compare the two leading plain numbers only (``sequence`` is unique), which
keeps the per-event dispatch cost low: the hot loop is the dominant cost of
every experiment.  A posted call is the entry itself and fires as
``fn(*args)``.  A labelled, cancellable :class:`Event` is stored as
``(time, sequence, event, None)``; ``args is None`` marks it.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, Iterable, Iterator, Optional

from repro.sim.clock import SimClock
from repro.sim.events import Event
from repro.sim.process import Process, ProcessExit, Timeout
from repro.sim.rng import RandomService
from repro.sim.trace import Tracer

_INFINITY = float("inf")


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
        #: Heap of (time, sequence, fn, args) entries; see the module docstring.
        self._heap: list[tuple[float, int, Any, Optional[tuple]]] = []
        self._sequence = 0
        self._running = False
        self._events_executed = 0
        self._processes: list[Process] = []

    # ------------------------------------------------------------------ time
    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self.clock._now

    @property
    def events_executed(self) -> int:
        """Number of events that have fired so far."""
        return self._events_executed

    @property
    def pending_events(self) -> int:
        """Number of events still in the heap (including cancelled ones)."""
        return len(self._heap)

    # ------------------------------------------------------------- scheduling
    def schedule(self, delay: float, callback: Callable[[], Any], *, label: str = "") -> Event:
        """Schedule ``callback`` to run ``delay`` seconds from now.

        Returns the scheduled :class:`Event`, which is its own cancellation
        handle.
        """
        # "not >=" rejects NaN too: every comparison with NaN is False.
        if not delay >= 0:
            raise ValueError(f"cannot schedule an event in the past (delay={delay})")
        return self.schedule_at(self.clock._now + delay, callback, label=label)

    def schedule_at(self, time: float, callback: Callable[[], Any], *, label: str = "") -> Event:
        """Schedule ``callback`` to run at absolute simulated time ``time``."""
        now = self.clock._now
        if not time >= now:
            raise ValueError(
                f"cannot schedule an event in the past: now={now}, requested={time}"
            )
        time = float(time)
        sequence = self._sequence
        self._sequence = sequence + 1
        event = Event(time, callback, label)
        heapq.heappush(self._heap, (time, sequence, event, None))
        return event

    def post_many(
        self, fn: Callable[..., Any], delays: Iterable[float], args: Iterable[tuple]
    ) -> None:
        """Queue one fire-and-forget call ``fn(*a)`` per pair of ``delays`` and ``args``.

        Each call fires ``delay`` seconds from now, as if every pair had been
        scheduled through :meth:`schedule` in order: sequence numbers follow
        the pairs' order, so calls due at the same time fire in that order.
        No :class:`Event` is made, so a posted call has no label and cannot
        be cancelled.  A delay that is negative or NaN raises ValueError;
        the pairs before it stay queued, as they would after one
        :meth:`schedule` call each.
        """
        now = self.clock._now
        heap = self._heap
        push = heapq.heappush
        sequence = self._sequence
        try:
            for delay, arguments in zip(delays, args, strict=True):
                if not delay >= 0:
                    raise ValueError(f"cannot schedule an event in the past (delay={delay})")
                push(heap, (now + delay, sequence, fn, arguments))
                sequence += 1
        finally:
            self._sequence = sequence

    def call_soon(self, callback: Callable[[], Any], *, label: str = "") -> Event:
        """Schedule ``callback`` to run at the current time, after current events."""
        return self.schedule(0.0, callback, label=label)

    # -------------------------------------------------------------- processes
    def spawn(self, generator: Iterator[Any], *, name: str = "") -> Process:
        """Start a cooperative process.

        The generator may ``yield``:

        * :class:`Timeout(delay)` — resume after ``delay`` simulated seconds;
        * a plain float — shorthand for ``Timeout(float)``.

        Returns:
            The :class:`Process` wrapper, which exposes ``alive``.
        """
        process = Process(generator, name=name)
        self._processes.append(process)
        self.call_soon(lambda: self._step_process(process), label=f"spawn:{name}")
        return process

    def _step_process(self, process: Process) -> None:
        try:
            yielded = process.step()
        except ProcessExit:
            return
        if isinstance(yielded, Timeout):
            delay = yielded.delay
        elif isinstance(yielded, (int, float)):
            delay = float(yielded)
        else:
            raise TypeError(
                f"process {process.name!r} yielded unsupported value {yielded!r}; "
                "yield a Timeout or a number of seconds"
            )
        self.schedule(delay, lambda: self._step_process(process), label=f"timeout:{process.name}")

    # ------------------------------------------------------------------- run
    def run(self, until: Optional[float] = None) -> float:
        """Run the simulation.

        Args:
            until: stop once the clock would pass this time (the clock is left
                at ``until``).  ``None`` runs until the event heap drains.

        Returns:
            The simulated time at which the run stopped.
        """
        if self._running:
            raise RuntimeError("simulator is already running (re-entrant run() call)")
        self._running = True
        heap = self._heap
        heappop = heapq.heappop
        clock = self.clock
        limit = _INFINITY if until is None else until
        try:
            while heap:
                entry = heappop(heap)
                time, _, fn, args = entry
                if args is None:  # a labelled Event
                    if fn.cancelled:
                        continue
                    fn, args = fn.callback, ()
                if time > limit:
                    # Put it back: the next run() starts from it.
                    heapq.heappush(heap, entry)
                    clock.advance_to(until)
                    break
                # SimClock.advance_to inlined; the call only runs to raise.
                if not time >= clock._now:
                    clock.advance_to(time)
                clock._now = time
                self._events_executed += 1
                fn(*args)
            else:
                # Heap drained without hitting the until-limit: if an explicit
                # horizon was requested, report time as that horizon.
                if until is not None and until > self.now:
                    self.clock.advance_to(until)
        finally:
            self._running = False
        return self.now

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Simulator(now={self.now:.3f}, pending={self.pending_events}, "
            f"executed={self._events_executed})"
        )
