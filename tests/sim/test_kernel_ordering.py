"""Batched fan-outs fire exactly as one ``schedule_at`` call per copy would.

:meth:`Simulator.post_many` queues a whole fan-out as plain heap entries,
with no :class:`Event` per copy.  The property test drives two simulators
through the same random program: the subject posts every fan-out in one
batch, the reference schedules each copy through ``schedule_at``.  Labelled
events (equal times, cancellations, callbacks that schedule more) and
``run(until=...)`` cuts are mixed in, and some copies raise.  After every
run both must have fired the same calls in the same order, and agree on
``events_executed``, ``pending_events`` and the clock.
"""

from __future__ import annotations

from functools import partial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.engine import Simulator

#: Few distinct delays, so equal fire times are common.
DELAYS = st.sampled_from([0.0, 0.25, 0.5, 1.0])


class Boom(Exception):
    """Raised by a call marked to fail."""


def _copies(max_size: int = 4):
    return st.lists(st.tuples(DELAYS, st.booleans()), min_size=0, max_size=max_size)


def _nested_ops(depth: int):
    leaf = st.one_of(
        st.tuples(st.just("fanout"), _copies()),
        st.tuples(st.just("cancel"), st.integers(0, 20)),
        st.tuples(st.just("event"), DELAYS, st.just(())),
    )
    if depth == 0:
        return leaf
    return st.one_of(
        leaf,
        st.tuples(st.just("event"), DELAYS, st.lists(_nested_ops(depth - 1), max_size=3)),
    )


TOP_OPS = st.one_of(
    _nested_ops(2),
    st.tuples(st.just("run"), st.one_of(st.none(), DELAYS)),
)


class Driver:
    """Interprets a program against one simulator, batched or per copy."""

    def __init__(self, batched: bool) -> None:
        self.simulator = Simulator(seed=0)
        self.batched = batched
        self.fired: list[str] = []
        self.handles = []
        self._tags = 0

    def _tag(self, kind: str) -> str:
        self._tags += 1
        return f"{kind}{self._tags}"

    def fire(self, tag: str, raises: bool) -> None:
        self.fired.append(tag)
        if raises:
            raise Boom(tag)

    def apply(self, op: tuple) -> None:
        kind = op[0]
        simulator = self.simulator
        if kind == "event":
            _, delay, children = op
            tag = self._tag("e")

            def callback() -> None:
                self.fired.append(tag)
                for child in children:
                    self.apply(child)

            self.handles.append(simulator.schedule_at(simulator.now + delay, callback, label=tag))
        elif kind == "fanout":
            copies = [(delay, self._tag("c"), raises) for delay, raises in op[1]]
            if self.batched:
                simulator.post_many(
                    self.fire,
                    [delay for delay, _, _ in copies],
                    [(tag, raises) for _, tag, raises in copies],
                )
            else:
                for delay, tag, raises in copies:
                    simulator.schedule_at(simulator.now + delay, partial(self.fire, tag, raises))
        elif kind == "cancel":
            if self.handles:
                self.handles[op[1] % len(self.handles)].cancel()
        else:
            raise AssertionError(f"unknown op {op!r}")

    def run(self, until_offset) -> str:
        """Run once; returns the tag of the call that raised, or ''."""
        simulator = self.simulator
        until = None if until_offset is None else simulator.now + until_offset
        try:
            simulator.run(until=until)
        except Boom as error:
            return str(error)
        return ""

    def state(self) -> tuple:
        simulator = self.simulator
        return (
            list(self.fired),
            simulator.events_executed,
            simulator.pending_events,
            simulator.now,
        )


@given(program=st.lists(TOP_OPS, max_size=25))
@settings(max_examples=300, deadline=None)
def test_batched_fanouts_fire_like_one_schedule_at_per_copy(program):
    subject, reference = Driver(batched=True), Driver(batched=False)
    for op in program:
        if op[0] == "run":
            assert subject.run(op[1]) == reference.run(op[1])
            assert subject.state() == reference.state()
        else:
            subject.apply(op)
            reference.apply(op)
    # Drain both: each raising call stops one run, and the next resumes.
    for _ in range(200):
        raised = subject.run(None)
        assert raised == reference.run(None)
        assert subject.state() == reference.state()
        if not raised:
            break
    assert subject.simulator.pending_events == 0


class TestPostMany:
    def test_a_raising_call_propagates_and_run_resumes(self, simulator):
        fired = []

        def call(tag):
            fired.append(tag)
            if tag == "b":
                raise KeyError("boom")

        simulator.post_many(call, [1.0, 2.0, 3.0], [("a",), ("b",), ("c",)])
        with pytest.raises(KeyError, match="boom"):
            simulator.run()
        assert fired == ["a", "b"]
        assert simulator.now == 2.0
        assert simulator.events_executed == 2
        assert simulator.pending_events == 1
        simulator.run()
        assert fired == ["a", "b", "c"]
        assert simulator.now == 3.0

    def test_equal_times_fire_in_list_order_after_earlier_events(self, simulator):
        fired = []
        simulator.schedule(1.0, lambda: fired.append("event"))
        simulator.post_many(fired.append, [1.0, 0.5, 1.0], [("x",), ("y",), ("z",)])
        simulator.run()
        assert fired == ["y", "event", "x", "z"]

    def test_a_past_delay_raises_and_keeps_the_copies_before_it(self, simulator):
        fired = []
        nan = float("nan")
        for bad in (-0.5, nan):
            with pytest.raises(ValueError, match="past"):
                simulator.post_many(fired.append, [1.0, bad, 2.0], [("a",), ("b",), ("c",)])
        assert simulator.pending_events == 2
        simulator.run()
        assert fired == ["a", "a"]

    def test_mismatched_lengths_raise(self, simulator):
        with pytest.raises(ValueError):
            simulator.post_many(print, [1.0, 2.0], [("a",)])
