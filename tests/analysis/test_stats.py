"""Unit tests for the shared statistics core (`repro.analysis.stats`).

Closed-form cases pin the percentile/CDF math, equivalence tests pin the
"single implementation" contract with `DelayDistribution`, and determinism
tests pin the bootstrap (reports rely on it for byte-stable output).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis.stats import (
    ConfidenceInterval,
    Ecdf,
    StreamingQuantile,
    bootstrap_ci,
    clamped_mean,
    mean,
    percentile,
    sample_std,
    sample_variance,
    summarize_values,
)
from repro.measurement.stats import DelayDistribution


class TestBasics:
    def test_mean_is_sum_over_len(self):
        values = [0.1, 0.2, 0.7]
        assert mean(values) == sum(values) / len(values)

    def test_mean_rejects_empty(self):
        with pytest.raises(ValueError):
            mean([])

    def test_clamped_mean_stays_inside_sample_range(self):
        values = [0.3] * 1000
        result = clamped_mean(values)
        assert min(values) <= result <= max(values)

    def test_variance_closed_form(self):
        # Var([1..5], ddof=1) = 2.5 exactly.
        assert sample_variance([1.0, 2.0, 3.0, 4.0, 5.0]) == 2.5
        assert sample_std([1.0, 2.0, 3.0, 4.0, 5.0]) == pytest.approx(2.5**0.5)

    def test_variance_below_two_samples_is_zero(self):
        assert sample_variance([4.2]) == 0.0

    def test_percentile_closed_form(self):
        values = list(range(101))  # 0..100: percentile q == q exactly
        for q in (0, 10, 25, 50, 75, 90, 100):
            assert percentile(values, q) == float(q)

    def test_percentile_validates_range(self):
        with pytest.raises(ValueError):
            percentile([1.0], 101)

    def test_summarize_matches_delay_distribution_summary(self):
        rng = np.random.default_rng(7)
        samples = list(rng.exponential(0.05, size=400))
        assert summarize_values(samples) == DelayDistribution(samples).summary()


class TestEcdf:
    def test_closed_form_quarters(self):
        ecdf = Ecdf([1.0, 2.0, 3.0, 4.0])
        assert ecdf.evaluate(0.5) == 0.0
        assert ecdf.evaluate(1.0) == 0.25  # right-continuous: P(X <= 1) = 1/4
        assert ecdf.evaluate(2.5) == 0.5
        assert ecdf.evaluate(4.0) == 1.0
        assert ecdf.evaluate(99.0) == 1.0

    def test_curve_on_shared_grid(self):
        ecdf = Ecdf([1.0, 3.0])
        assert ecdf.curve_on([0.0, 1.0, 2.0, 3.0]) == [
            (0.0, 0.0),
            (1.0, 0.5),
            (2.0, 0.5),
            (3.0, 1.0),
        ]

    def test_curve_on_sample_range_ends_at_one(self):
        # The grid a delay-coverage figure evaluates on: min to max of the samples.
        ecdf = Ecdf([3.0, 0.0, 2.0, 1.0])
        assert (ecdf.min, ecdf.max) == (0.0, 3.0)
        curve = ecdf.curve_on(np.linspace(ecdf.min, ecdf.max, 4).tolist())
        assert curve == [(0.0, 0.25), (1.0, 0.5), (2.0, 0.75), (3.0, 1.0)]

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            Ecdf([])


class TestStreamingQuantile:
    def test_exact_below_six_samples(self):
        sq = StreamingQuantile(0.5)
        for value in (5.0, 1.0, 3.0):
            sq.add(value)
        assert sq.value() == 3.0
        assert sq.count == 3

    def test_requires_samples(self):
        with pytest.raises(ValueError):
            StreamingQuantile(0.5).value()

    def test_validates_quantile(self):
        with pytest.raises(ValueError):
            StreamingQuantile(0.0)

    @pytest.mark.parametrize("q", [0.1, 0.5, 0.9])
    def test_converges_on_uniform_stream(self, q):
        rng = np.random.default_rng(11)
        samples = rng.uniform(0.0, 1.0, size=5000)
        sq = StreamingQuantile(q)
        for value in samples:
            sq.add(value)
        exact = float(np.quantile(samples, q))
        assert sq.value() == pytest.approx(exact, abs=0.03)

    def test_deterministic(self):
        samples = list(np.random.default_rng(2).normal(0.0, 1.0, size=1000))
        first = StreamingQuantile(0.9)
        second = StreamingQuantile(0.9)
        for value in samples:
            first.add(value)
            second.add(value)
        assert first.value() == second.value()


class TestBootstrap:
    def test_constant_data_degenerates_to_point(self):
        interval = bootstrap_ci([[2.0, 2.0], [2.0, 2.0]], n_resamples=50)
        assert interval.low == interval.high == interval.point == 2.0

    def test_deterministic_for_fixed_seed(self):
        groups = [list(np.random.default_rng(s).normal(10.0, 1.0, size=30)) for s in (1, 2, 3)]
        a = bootstrap_ci(groups, seed=0)
        b = bootstrap_ci(groups, seed=0)
        assert (a.low, a.high, a.point) == (b.low, b.high, b.point)
        # A wider confidence level must not shrink the interval.
        wide = bootstrap_ci(groups, seed=0, confidence=0.99)
        assert wide.low <= a.low and wide.high >= a.high

    def test_interval_brackets_point_and_true_mean(self):
        rng = np.random.default_rng(5)
        groups = [list(rng.normal(10.0, 1.0, size=200)) for _ in range(5)]
        interval = bootstrap_ci(groups)
        assert interval.low <= interval.point <= interval.high
        assert 10.0 in interval  # ConfidenceInterval.__contains__

    def test_point_is_the_clamped_mean_of_the_pooled_groups(self):
        groups = [[1.0, 2.0], [3.0, 10.0]]
        interval = bootstrap_ci(groups, n_resamples=50)
        assert interval.point == clamped_mean([1.0, 2.0, 3.0, 10.0]) == 4.0
        # Every resample pools whole groups, so each estimate lies between
        # the two group means.
        assert 1.5 <= interval.low <= interval.high <= 6.5

    def test_single_group_resamples_values(self):
        interval = bootstrap_ci([[1.0, 2.0, 3.0, 4.0]], n_resamples=200)
        assert isinstance(interval, ConfidenceInterval)
        assert interval.low < interval.high

    def test_rejects_empty_and_bad_params(self):
        with pytest.raises(ValueError):
            bootstrap_ci([[]])
        with pytest.raises(ValueError):
            bootstrap_ci([[1.0]], confidence=1.5)
        with pytest.raises(ValueError):
            bootstrap_ci([[1.0]], n_resamples=0)
