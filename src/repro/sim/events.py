"""Event objects used by the simulation engine.

An :class:`Event` is a scheduled callback.  Ordering in the event heap is by
``(time, priority, sequence)``:

* ``time`` — absolute simulated time in seconds;
* ``priority`` — lower runs first among events at the same instant.  Protocol
  code mostly uses the default; the engine uses priorities to make control
  events (e.g. simulation stop) run after ordinary events at the same time;
* ``sequence`` — a monotonically increasing tie-breaker, so events scheduled
  earlier in wall-clock order run first and the ordering is fully
  deterministic.

The engine stores ``(time, priority, sequence, event)`` tuples in its heap, so
heap sift operations compare plain floats/ints and never fall through to the
event object itself (``sequence`` is unique).  :class:`Event` keeps a
``__lt__`` implementing the same ordering for direct comparisons in tests and
debugging, but the hot path never calls it.

Cancellation is handled by flagging the event rather than removing it from the
heap (lazy deletion), which keeps cancellation O(1).
"""

from __future__ import annotations

import enum
from typing import Any, Callable


class EventPriority(enum.IntEnum):
    """Relative ordering of events that share the same timestamp."""

    URGENT = 0
    NORMAL = 10
    LOW = 20
    CONTROL = 100


class Event:
    """A single scheduled callback.

    Attributes:
        time: absolute simulated time at which the callback fires.
        priority: tie-break priority (lower fires first).
        sequence: engine-assigned monotonic tie-breaker.
        callback: callable invoked as ``callback()`` when the event fires.
        label: human-readable label used in traces and error messages.
        cancelled: set by :meth:`cancel`; cancelled events are skipped when
            popped.

    The engine's ``schedule`` methods return the event itself: it is its own
    handle.
    """

    __slots__ = ("time", "priority", "sequence", "callback", "label", "cancelled")

    def __init__(
        self,
        time: float,
        priority: int,
        sequence: int,
        callback: Callable[[], Any],
        label: str = "",
        cancelled: bool = False,
    ) -> None:
        self.time = time
        self.priority = priority
        self.sequence = sequence
        self.callback = callback
        self.label = label
        self.cancelled = cancelled

    @property
    def sort_key(self) -> tuple[float, int, int]:
        """The ``(time, priority, sequence)`` ordering key."""
        return (self.time, self.priority, self.sequence)

    def __lt__(self, other: "Event") -> bool:
        return self.sort_key < other.sort_key

    def __le__(self, other: "Event") -> bool:
        return self.sort_key <= other.sort_key

    def __gt__(self, other: "Event") -> bool:
        return self.sort_key > other.sort_key

    def __ge__(self, other: "Event") -> bool:
        return self.sort_key >= other.sort_key

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Event):
            return NotImplemented
        return self.sort_key == other.sort_key

    def __hash__(self) -> int:
        return hash((Event, self.sequence))

    def cancel(self) -> bool:
        """Cancel the event.

        Returns:
            True if the event was still pending and is now cancelled, False if
            it had already been cancelled.
        """
        if self.cancelled:
            return False
        self.cancelled = True
        return True

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "cancelled" if self.cancelled else "pending"
        return (
            f"Event(t={self.time:.6f}, prio={self.priority}, seq={self.sequence}, "
            f"label={self.label!r}, {state})"
        )
