"""Event handles returned by the simulation engine.

An :class:`Event` is a labelled, cancellable scheduled callback: what
:meth:`~repro.sim.engine.Simulator.schedule_at` returns to the callers that
may need to cancel or inspect what they scheduled (timers, processes, relay
and compact-block timeouts).  Message deliveries are queued without one (see
:meth:`~repro.sim.engine.Simulator.post_many`).

The engine orders its heap by ``(time, sequence)`` plain numbers, where
``sequence`` is unique, so an event is never compared.  Cancellation flags
the event rather than removing it from the heap (lazy deletion), which keeps
cancellation O(1).
"""

from __future__ import annotations

from typing import Any, Callable


class Event:
    """A single scheduled callback.

    Attributes:
        time: absolute simulated time at which the callback fires.
        callback: callable invoked as ``callback()`` when the event fires.
        label: human-readable label used in traces and error messages.
        cancelled: set by :meth:`cancel`; cancelled events are skipped when
            popped.

    The engine's ``schedule`` methods return the event itself: it is its own
    handle.
    """

    __slots__ = ("time", "callback", "label", "cancelled")

    def __init__(self, time: float, callback: Callable[[], Any], label: str = "") -> None:
        self.time = time
        self.callback = callback
        self.label = label
        self.cancelled = False

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
        return f"Event(t={self.time:.6f}, label={self.label!r}, {state})"
