"""Tests for delay statistics and propagation-run records."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.measurement.propagation import PropagationRun, ReceptionRecord
from repro.measurement.stats import DelayDistribution


class TestDelayDistribution:
    def test_empty_distribution(self):
        dist = DelayDistribution()
        assert len(dist) == 0
        assert not dist
        with pytest.raises(ValueError):
            dist.mean()

    def test_negative_delay_rejected(self):
        with pytest.raises(ValueError):
            DelayDistribution([-0.1])

    @pytest.mark.parametrize("delay", [float("nan"), float("inf"), float("-inf"), np.nan])
    def test_non_finite_delay_rejected(self, delay):
        with pytest.raises(ValueError, match="finite"):
            DelayDistribution([1.0, delay])

    def test_rejected_sample_leaves_statistics_finite(self):
        dist = DelayDistribution([1.0, 3.0])
        for delay in (float("nan"), float("inf")):
            with pytest.raises(ValueError):
                dist.add(delay)
        assert dist.samples == [1.0, 3.0]
        assert dist.mean() == 2.0
        assert dist.summary()["variance_s2"] == 2.0

    def test_large_finite_delays_accepted(self):
        assert DelayDistribution([0.0, 1e300]).samples == [0.0, 1e300]

    def test_basic_statistics(self):
        dist = DelayDistribution([1.0, 2.0, 3.0, 4.0])
        assert dist.mean() == pytest.approx(2.5)
        assert dist.median() == pytest.approx(2.5)
        summary = dist.summary()
        assert (summary["min_s"], summary["max_s"]) == (1.0, 4.0)
        assert summary["variance_s2"] == pytest.approx(np.var([1, 2, 3, 4], ddof=1))
        assert summary["std_s"] == pytest.approx(np.sqrt(summary["variance_s2"]))

    def test_percentiles(self):
        dist = DelayDistribution(list(np.linspace(0.0, 1.0, 101)))
        assert dist.percentile(50) == pytest.approx(0.5, abs=0.02)
        assert dist.percentile(90) == pytest.approx(0.9, abs=0.02)
        with pytest.raises(ValueError):
            dist.percentile(120)

    def test_summary_keys(self):
        summary = DelayDistribution([0.1, 0.2, 0.3]).summary()
        for key in ("count", "mean_s", "median_s", "variance_s2", "p90_s", "max_s"):
            assert key in summary

    @given(samples=st.lists(st.floats(0.0, 100.0), min_size=2, max_size=50))
    @settings(max_examples=100, deadline=None)
    def test_summary_invariants_property(self, samples):
        dist = DelayDistribution(samples)
        summary = dist.summary()
        assert summary["min_s"] <= dist.median() <= summary["max_s"]
        assert summary["min_s"] <= dist.mean() <= summary["max_s"]
        assert summary["variance_s2"] >= 0.0
        assert dist.percentile(25) <= dist.percentile(75)


class TestReceptionRecord:
    def test_negative_delta_rejected(self):
        with pytest.raises(ValueError):
            ReceptionRecord(node_id=1, received_at=1.0, delta_t_s=-0.1, rank=1)

    @pytest.mark.parametrize("delta", [float("nan"), float("inf")])
    def test_non_finite_delta_rejected(self, delta):
        with pytest.raises(ValueError, match="finite"):
            ReceptionRecord(node_id=1, received_at=1.0, delta_t_s=delta, rank=1)

    @pytest.mark.parametrize("received_at", [float("nan"), float("inf")])
    def test_non_finite_reception_time_rejected(self, received_at):
        # A NaN time must not slip through record_reception's clamp as Δt 0.
        run = PropagationRun(
            run_index=0, txid="tx", sent_at=10.0, first_recipient=1, connected_nodes=(1,)
        )
        with pytest.raises(ValueError, match="finite"):
            run.record_reception(1, received_at)
        assert run.receptions == []

    def test_rank_starts_at_one(self):
        with pytest.raises(ValueError):
            ReceptionRecord(node_id=1, received_at=1.0, delta_t_s=0.1, rank=0)


class TestPropagationRun:
    def _run(self):
        return PropagationRun(
            run_index=0,
            txid="tx",
            sent_at=10.0,
            first_recipient=1,
            connected_nodes=(1, 2, 3),
        )

    def test_record_reception_computes_delta_and_rank(self):
        run = self._run()
        record = run.record_reception(2, 10.5)
        assert record.delta_t_s == pytest.approx(0.5)
        assert record.rank == 1
        second = run.record_reception(3, 11.0)
        assert second.rank == 2

    def test_duplicate_reception_ignored(self):
        run = self._run()
        run.record_reception(2, 10.5)
        assert run.record_reception(2, 12.0) is None
        assert len(run.receptions) == 1

    def test_unknown_node_ignored(self):
        run = self._run()
        assert run.record_reception(99, 10.5) is None

    def test_completion_and_coverage(self):
        run = self._run()
        assert run.coverage == 0.0
        for node, at in ((1, 10.1), (2, 10.2), (3, 10.3)):
            run.record_reception(node, at)
        assert run.complete
        assert run.coverage == 1.0

    def test_delay_queries(self):
        run = self._run()
        run.record_reception(1, 10.1)
        run.record_reception(3, 10.6)
        assert run.delay_of(1) == pytest.approx(0.1)
        assert run.delay_of(2) is None
        assert run.last_delay() == pytest.approx(0.6)
        assert run.delays() == [pytest.approx(0.1), pytest.approx(0.6)]

    def test_empty_run_last_delay_none(self):
        assert self._run().last_delay() is None
