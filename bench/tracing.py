"""In-memory timing spans around the simulator's public functions.

The benchmark measures the simulator from outside: nothing under ``src/``
knows it is being timed.  A :class:`Patcher` replaces functions on classes
and modules with wrappers that route each call through
:meth:`Recorder.call`, which records one span per call:

* per span name, the call count, the cumulative time of the outermost calls
  and the self time (span time minus the time of wrapped child spans);
* a bounded ring of raw spans ``(name, start_ns, end_ns, id, parent id,
  cause)``, where the cause is the unit the span ran under (0 outside any
  unit, i.e. caused by the cell itself).

Harness work that interrupts a span (the calibration bursts of
:class:`bench.calibrate.Sampler`) is reported to :meth:`Recorder.exclude`
and taken out of every span it interrupted.

Spans stay in memory; the benchmark writes them out when a cell ends.
:meth:`Patcher.restore` puts every replaced attribute back, so a traced cell
can run inside a test process without leaking wrappers into later tests.
"""

from __future__ import annotations

import collections
import functools
import sys
import time
from typing import Any, Callable, Optional, Union

#: Raw spans kept per cell; older spans are dropped first.
RING_SIZE = 20_000

_NO_KWARGS: dict[str, Any] = {}

SpanName = Union[str, Callable[[tuple], str]]


class Recorder:
    """Collects the spans of one benchmark cell.

    Args:
        unit: span name whose outermost calls are the workload's units.
        intervals: more span names whose outermost calls are kept in
            :attr:`intervals`, as the unit's are.
    """

    def __init__(self, unit: Optional[str] = None, intervals: tuple[str, ...] = ()) -> None:
        #: name -> [calls, cumulative ns of outermost calls, self ns]
        self.table: dict[str, list[int]] = {}
        #: Event counts and sums recorded at span boundaries.
        self.counts: collections.Counter[str] = collections.Counter()
        #: Gauges: the largest value seen.
        self.peaks: dict[str, float] = {}
        self.unit = unit
        #: name -> (start ns, end ns, net ns) of each outermost call, for the
        #: unit and the ``intervals`` names.
        self.intervals: dict[str, list[tuple[int, int, int]]] = {
            name: [] for name in (*intervals, unit) if name is not None
        }
        self.ring: collections.deque = collections.deque(maxlen=RING_SIZE)
        #: When set, wrappers call straight through (used while harvesting).
        self.paused = False
        #: Harness time taken out of the spans it interrupted (:meth:`exclude`).
        self.excluded_ns = 0
        self._stack: list[list[int]] = []  # active spans: [child ns, span id]
        self._depth: dict[str, int] = {}
        self._next_id = 0
        self._units_started = 0
        self._cause = 0

    def call(self, name: str, fn: Callable[..., Any], args: tuple, kwargs: dict) -> Any:
        """Run ``fn(*args, **kwargs)`` inside a span called ``name``."""
        if self.paused:
            return fn(*args, **kwargs)
        stack = self._stack
        depth = self._depth.get(name, 0)
        is_unit = depth == 0 and name == self.unit
        if is_unit:
            self._units_started += 1
            self._cause = self._units_started
        self._next_id += 1
        frame = [0, self._next_id]
        parent = stack[-1][1] if stack else 0
        stack.append(frame)
        self._depth[name] = depth + 1
        # Excluded work runs in signal handlers, which the interpreter runs
        # only after a call returns.  Reading the excluded total before the
        # start clock and again before the end clock puts work handled just
        # after the start clock inside the span and excluded, and work
        # handled just after the end clock outside the span and not excluded.
        excluded = self.excluded_ns
        start = time.perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            excluded = self.excluded_ns - excluded
            end = time.perf_counter_ns()
            stack.pop()
            self._depth[name] = depth
            elapsed = end - start - excluded
            row = self.table.get(name)
            if row is None:
                row = self.table[name] = [0, 0, 0]
            row[0] += 1
            if depth == 0:
                row[1] += elapsed
                kept = self.intervals.get(name)
                if kept is not None:
                    kept.append((start, end, elapsed))
            row[2] += elapsed - frame[0]
            if stack:
                stack[-1][0] += elapsed
            self.ring.append((name, start, end, frame[1], parent, self._cause))
            if is_unit:
                self._cause = 0

    def run_untimed(self, name: str, fn: Callable[[], Any]) -> Any:
        """Run harness work (counter harvesting) as its own paused span.

        Wrappers call straight through while it runs, and its duration is
        charged to a ``name`` row instead of the enclosing span's self time.
        """
        was_paused = self.paused
        self.paused = True
        excluded = self.excluded_ns
        start = time.perf_counter_ns()
        try:
            return fn()
        finally:
            excluded = self.excluded_ns - excluded
            elapsed = time.perf_counter_ns() - start - excluded
            self.paused = was_paused
            row = self.table.setdefault(name, [0, 0, 0])
            row[0] += 1
            row[1] += elapsed
            row[2] += elapsed
            if self._stack:
                self._stack[-1][0] += elapsed

    def exclude(self, ns: int) -> None:
        """Take ``ns`` of harness work out of every span it interrupted."""
        self.excluded_ns += ns

    def peak(self, name: str, value: float) -> None:
        """Keep the largest ``value`` seen for the gauge ``name``."""
        if value > self.peaks.get(name, float("-inf")):
            self.peaks[name] = value

    def seconds(self, name: str, column: int) -> float:
        """Cumulative (column 1) or self (column 2) seconds of a span name."""
        row = self.table.get(name)
        return row[column] / 1e9 if row is not None else 0.0

    def calls(self, name: str) -> int:
        """Number of calls recorded under a span name."""
        row = self.table.get(name)
        return row[0] if row is not None else 0

    def wrap(
        self,
        name: SpanName,
        fn: Callable[..., Any],
        *,
        before: Optional[Callable[[tuple], None]] = None,
        after: Optional[Callable[[tuple, dict, Any], None]] = None,
    ) -> Callable[..., Any]:
        """A wrapper that runs ``fn`` in a span.

        ``name`` may be a function of the positional arguments, for spans
        keyed by an argument (e.g. the message command).  ``before`` runs
        ahead of the span and ``after`` sees the return value; both are
        skipped while the recorder is paused.
        """
        call = self.call
        recorder = self

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            if recorder.paused:
                return fn(*args, **kwargs)
            if before is not None:
                before(args)
            span = name if isinstance(name, str) else name(args)
            result = call(span, fn, args, kwargs)
            if after is not None:
                after(args, kwargs, result)
            return result

        return wrapper

    def wrap_callback(self, name: str, callback: Callable[[], Any]) -> Callable[[], Any]:
        """A zero-argument callback that runs inside a span (for events)."""
        return functools.partial(self.call, name, callback, (), _NO_KWARGS)

    def raw_spans(self) -> list[dict[str, Any]]:
        """The ring of raw spans, oldest first."""
        return [
            {"name": n, "start_ns": s, "end_ns": e, "id": i, "parent": p, "cause": c}
            for n, s, e, i, p, c in self.ring
        ]


class Patcher:
    """Replaces attributes with wrappers and can put them all back."""

    def __init__(self) -> None:
        self._undo: list[tuple[Any, str, Any]] = []

    def _set(self, owner: Any, attr: str, value: Any) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def method(
        self, cls: type, attr: str, make: Callable[[Callable[..., Any]], Callable[..., Any]]
    ) -> None:
        """Wrap ``cls.attr`` (defined on ``cls`` itself) with ``make(fn)``."""
        raw = cls.__dict__[attr]
        if isinstance(raw, (staticmethod, classmethod)):
            self._set(cls, attr, type(raw)(make(raw.__func__)))
        else:
            self._set(cls, attr, make(raw))

    def hierarchy(
        self, base: type, attr: str, make: Callable[[Callable[..., Any]], Callable[..., Any]]
    ) -> None:
        """Wrap ``attr`` on ``base`` and every subclass that defines its own."""
        for cls in _with_subclasses(base):
            if attr in cls.__dict__:
                self.method(cls, attr, make)

    def function(
        self, module: Any, attr: str, make: Callable[[Callable[..., Any]], Callable[..., Any]]
    ) -> None:
        """Wrap a module-level function everywhere ``repro`` bound it.

        Modules that imported the function by name hold their own reference,
        so every loaded ``repro.*`` module attribute that *is* the original
        function is replaced too.
        """
        original = getattr(module, attr)
        wrapped = make(original)
        for name, loaded in list(sys.modules.items()):
            if loaded is None or not (name == "repro" or name.startswith("repro.")):
                continue
            for key, value in list(vars(loaded).items()):
                if value is original:
                    self._set(loaded, key, wrapped)

    def restore(self) -> None:
        """Undo every replacement, newest first."""
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)


def _with_subclasses(base: type) -> list[type]:
    found = [base]
    for sub in base.__subclasses__():
        for cls in _with_subclasses(sub):
            if cls not in found:
                found.append(cls)
    return found
