"""A fixed pure-Python loop, timed throughout a cell, that measures how fast
the machine running the benchmark is at each moment.

Shared machines drift: from one second to the next the same code runs up to
twice as slow, in wall and CPU time alike, with no steal time to account for
it.  While a cell runs, :class:`Sampler` times a short burst of this loop
every :data:`PERIOD_S` of wall time (on ``SIGALRM``), so the cell's speed is
averaged over its whole length; the runner multiplies the cell's timings by
that speed, turning them into seconds at the reference machine's quiet
speed.  The loop uses only the interpreter operations the simulator's hot
path is made of (a heap of tuples, small ``__slots__`` objects, dict
counting) and none of the simulator's code, so a change to the simulator
cannot move it.
"""

from __future__ import annotations

import bisect
import gc
import heapq
import signal
import statistics
import time
from typing import Any, Callable, Optional

#: Wall seconds between two bursts.
PERIOD_S = 0.05
#: Loop iterations per burst.
EVENTS_PER_BURST = 1000
#: Bursts averaged for an interval too short to contain this many.
NEAREST = 4
#: Seconds one burst takes on the reference hardware named in
#: ``bench/PROFILE.md`` in a quiet stretch; calibrated timings are in these
#: seconds.
REFERENCE_BURST_S = 0.001


class _Event:
    __slots__ = ("time", "sequence", "payload")

    def __init__(self, time: float, sequence: int, payload: tuple) -> None:
        self.time = time
        self.sequence = sequence
        self.payload = payload


def _burst() -> int:
    heap: list = []
    seen: dict = {}
    push, pop = heapq.heappush, heapq.heappop
    for sequence in range(EVENTS_PER_BURST):
        event = _Event((sequence * 0.618) % 50.0, sequence, (sequence % 97, sequence % 13))
        push(heap, (event.time, sequence, event))
        if len(heap) > 200:
            key = pop(heap)[2].payload
            seen[key] = seen.get(key, 0) + 1
    return len(seen)


class Sampler:
    """Times one burst now and one every :data:`PERIOD_S` until the block ends.

    ``on_burst`` receives each burst's duration in nanoseconds, so the time
    can be taken out of whatever the burst interrupted (see
    :meth:`bench.tracing.Recorder.exclude`).  The collector is paused during
    a burst, so a burst never collects the interrupted code's garbage.
    """

    def __init__(self, on_burst: Optional[Callable[[int], None]] = None) -> None:
        #: When each burst started (``time.perf_counter_ns``), in order.
        self.times_ns: list[int] = []
        #: Each burst's speed: reference seconds per wall second.
        self.speeds: list[float] = []
        self._on_burst = on_burst
        self._previous: Any = None
        self._busy = False

    def _sample(self, signum: int = 0, frame: Any = None) -> None:
        if self._busy:
            return
        self._busy = True
        enabled = gc.isenabled()
        gc.disable()
        try:
            started = time.perf_counter_ns()
            _burst()
            elapsed = time.perf_counter_ns() - started
        finally:
            if enabled:
                gc.enable()
            self._busy = False
        self.times_ns.append(started)
        self.speeds.append(REFERENCE_BURST_S * 1e9 / elapsed)
        if self._on_burst is not None:
            self._on_burst(elapsed)

    def __enter__(self) -> "Sampler":
        self._sample()
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc: Any) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def speed(self, start_ns: Optional[int] = None, end_ns: Optional[int] = None) -> float:
        """Reference seconds per wall second, averaged over wall time.

        Without arguments the average covers the whole block.  Given an
        interval (``time.perf_counter_ns`` readings), it covers the bursts
        that ran inside the interval, or the :data:`NEAREST` bursts closest
        to its middle when fewer did (a unit of work shorter than a few
        periods).  A timing of ``t`` wall seconds is ``t * speed``
        calibrated seconds.
        """
        if start_ns is None or end_ns is None:
            return statistics.fmean(self.speeds)
        low = bisect.bisect_left(self.times_ns, start_ns)
        high = bisect.bisect_right(self.times_ns, end_ns)
        if high - low < NEAREST:
            middle = bisect.bisect_left(self.times_ns, (start_ns + end_ns) // 2)
            low = max(0, min(middle - NEAREST // 2, len(self.times_ns) - NEAREST))
            high = low + NEAREST
        return statistics.fmean(self.speeds[low:high])
