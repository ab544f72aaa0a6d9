"""The shared statistics core: percentiles, CDFs, streaming and bootstrap.

One place for the distribution math the repository previously scattered —
:class:`repro.measurement.stats.DelayDistribution` delegates its summary
statistics here, the experiment drivers use :func:`mean` instead of ad-hoc
``sum(x)/len(x)`` expressions, and the report/figure layer builds percentile
tables, :class:`Ecdf` curves and :func:`bootstrap_ci` confidence intervals
from stored raw samples.

Numerical contracts (relied on by golden-value tests):

* :func:`mean` is exactly ``sum(values) / len(values)`` — the expression it
  replaces — so swapping call sites changes no bits;
* :func:`clamped_mean` is numpy's mean clamped into ``[min, max]`` (pairwise
  summation can round the mean of near-identical samples one ulp outside the
  sample range, which would break downstream ordering invariants);
* :func:`sample_variance` is the ``ddof=1`` sample variance (0.0 below two
  samples), matching the quantity the paper's figures compare;
* :func:`bootstrap_ci` and :class:`StreamingQuantile` are deterministic: the
  bootstrap draws from a caller-seeded generator, and P² is a fixed
  recurrence.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np


def _as_array(values: Iterable[float]) -> np.ndarray:
    data = np.asarray(list(values) if not isinstance(values, np.ndarray) else values, dtype=float)
    if data.size == 0:
        raise ValueError("no samples")
    return data


def mean(values: Sequence[float]) -> float:
    """Arithmetic mean, computed as ``sum(values) / len(values)``.

    Bit-identical to the inline expression it replaces in the drivers (numpy
    pairwise summation is *not* used here on purpose).
    """
    values = list(values)
    if not values:
        raise ValueError("no samples")
    return sum(values) / len(values)


def clamped_mean(values: Sequence[float]) -> float:
    """numpy mean clamped into ``[min, max]`` of the samples."""
    data = _as_array(values)
    value = float(np.mean(data))
    return min(max(value, float(np.min(data))), float(np.max(data)))


def sample_variance(values: Sequence[float]) -> float:
    """Sample variance (``ddof=1``); 0.0 below two samples."""
    data = _as_array(values)
    if data.size < 2:
        return 0.0
    return float(np.var(data, ddof=1))


def sample_std(values: Sequence[float]) -> float:
    """Sample standard deviation (square root of :func:`sample_variance`)."""
    return float(np.sqrt(sample_variance(values)))


def percentile(values: Sequence[float], q: float) -> float:
    """The ``q``-th percentile (``0 <= q <= 100``, linear interpolation)."""
    if not 0 <= q <= 100:
        raise ValueError(f"percentile must be in [0, 100], got {q}")
    return float(np.percentile(_as_array(values), q))


def summarize_values(values: Sequence[float], *, suffix: str = "_s") -> dict[str, float]:
    """The standard summary-statistics dictionary for one sample set.

    With the default ``suffix`` this is exactly the dictionary
    :meth:`repro.measurement.stats.DelayDistribution.summary` has always
    produced (``count``, ``mean_s``, ``median_s``, ``variance{suffix}2``, ...).
    """
    data = _as_array(values)
    return {
        "count": float(data.size),
        f"mean{suffix}": clamped_mean(data),
        f"median{suffix}": float(np.median(data)),
        f"variance{suffix}2": sample_variance(data),
        f"std{suffix}": sample_std(data),
        f"p10{suffix}": float(np.percentile(data, 10)),
        f"p25{suffix}": float(np.percentile(data, 25)),
        f"p75{suffix}": float(np.percentile(data, 75)),
        f"p90{suffix}": float(np.percentile(data, 90)),
        f"p95{suffix}": float(np.percentile(data, 95)),
        f"min{suffix}": float(np.min(data)),
        f"max{suffix}": float(np.max(data)),
    }


class Ecdf:
    """The empirical cumulative distribution function of a sample set.

    ``evaluate(x)`` is the right-continuous step function
    ``P(X <= x) = #{samples <= x} / n`` — the "fraction of connections covered
    within delay x" reading of the paper's Fig. 3/4 curves.
    """

    def __init__(self, samples: Iterable[float]) -> None:
        self._sorted = np.sort(_as_array(samples))

    def __len__(self) -> int:
        return int(self._sorted.size)

    @property
    def min(self) -> float:
        """Smallest sample."""
        return float(self._sorted[0])

    @property
    def max(self) -> float:
        """Largest sample."""
        return float(self._sorted[-1])

    def evaluate(self, x: float) -> float:
        """The cumulative fraction of samples at or below ``x``."""
        return float(np.searchsorted(self._sorted, x, side="right")) / self._sorted.size

    def curve_on(self, grid: Sequence[float]) -> list[tuple[float, float]]:
        """(x, cumulative fraction) pairs on a caller-supplied grid.

        A shared grid is what lets several distributions (one per protocol)
        be tabulated side by side in one figure-fallback table.
        """
        return [(float(point), self.evaluate(float(point))) for point in grid]


class StreamingQuantile:
    """P² streaming estimate of one quantile, without storing the samples.

    Jain & Chlamtac's P² algorithm keeps five markers whose positions are
    nudged toward the ideal quantile positions with a piecewise-parabolic
    update.  The estimate is exact while five or fewer samples have been
    seen, and converges for stationary streams — suitable for tracking
    percentiles of counters too large to persist.

    Args:
        q: the quantile to track, in ``(0, 1)``.
    """

    def __init__(self, q: float) -> None:
        if not 0 < q < 1:
            raise ValueError(f"quantile must be in (0, 1), got {q}")
        self.q = q
        self._heights: list[float] = []
        self._positions = [1, 2, 3, 4, 5]
        self._desired = [1.0, 1 + 2 * q, 1 + 4 * q, 3 + 2 * q, 5.0]
        self._increments = [0.0, q / 2, q, (1 + q) / 2, 1.0]
        self._count = 0

    def add(self, value: float) -> None:
        """Consume one sample."""
        value = float(value)
        self._count += 1
        if len(self._heights) < 5:
            self._heights.append(value)
            self._heights.sort()
            return
        heights, positions = self._heights, self._positions
        if value < heights[0]:
            heights[0] = value
            cell = 0
        elif value >= heights[4]:
            heights[4] = value
            cell = 3
        else:
            cell = next(i for i in range(4) if heights[i] <= value < heights[i + 1])
        for i in range(cell + 1, 5):
            positions[i] += 1
        for i in range(5):
            self._desired[i] += self._increments[i]
        for i in (1, 2, 3):
            delta = self._desired[i] - positions[i]
            if (delta >= 1 and positions[i + 1] - positions[i] > 1) or (
                delta <= -1 and positions[i - 1] - positions[i] < -1
            ):
                step = 1 if delta >= 1 else -1
                candidate = self._parabolic(i, step)
                if heights[i - 1] < candidate < heights[i + 1]:
                    heights[i] = candidate
                else:  # parabolic estimate left the bracket; fall back to linear
                    heights[i] = heights[i] + step * (heights[i + step] - heights[i]) / (
                        positions[i + step] - positions[i]
                    )
                positions[i] += step

    def _parabolic(self, i: int, step: int) -> float:
        h, p = self._heights, self._positions
        return h[i] + step / (p[i + 1] - p[i - 1]) * (
            (p[i] - p[i - 1] + step) * (h[i + 1] - h[i]) / (p[i + 1] - p[i])
            + (p[i + 1] - p[i] - step) * (h[i] - h[i - 1]) / (p[i] - p[i - 1])
        )

    @property
    def count(self) -> int:
        """Samples consumed so far."""
        return self._count

    def value(self) -> float:
        """The current quantile estimate.

        Raises:
            ValueError: before any sample has been consumed.
        """
        if not self._heights:
            raise ValueError("no samples")
        if self._count <= 5:
            # All samples seen so far are the (sorted) marker heights and no
            # marker has moved yet, so the exact quantile is available — this
            # keeps the documented "exact while five or fewer samples" promise
            # at exactly five, where the marker recurrence has not started.
            return float(np.quantile(np.asarray(self._heights), self.q))
        return self._heights[2]


@dataclass(frozen=True)
class ConfidenceInterval:
    """A bootstrap confidence interval around a point estimate."""

    low: float
    high: float
    point: float
    confidence: float

    def __contains__(self, value: float) -> bool:
        return self.low <= value <= self.high


def bootstrap_ci(
    groups: Sequence[Sequence[float]],
    *,
    n_resamples: int = 1000,
    confidence: float = 0.95,
    seed: int = 0,
) -> ConfidenceInterval:
    """Percentile-bootstrap confidence interval, resampling whole groups.

    The experiments aggregate over master seeds, and seeds — not individual
    Δt samples — are the independent replicates, so the bootstrap resamples
    *groups* (one per seed) with replacement and evaluates
    :func:`clamped_mean` on the pooled resample.  With a single group it
    degrades to the ordinary per-sample bootstrap.  Deterministic for a
    fixed ``seed``.

    Args:
        groups: one sample sequence per independent replicate (per seed).
        n_resamples: bootstrap iterations.
        confidence: central interval mass, in ``(0, 1)``.
        seed: generator seed (reports pin this for byte-stable output).
    """
    if not 0 < confidence < 1:
        raise ValueError(f"confidence must be in (0, 1), got {confidence}")
    if n_resamples <= 0:
        raise ValueError(f"n_resamples must be positive, got {n_resamples}")
    pools = [np.asarray(list(group), dtype=float) for group in groups if len(group) > 0]
    if not pools:
        raise ValueError("no samples")
    point = clamped_mean(np.concatenate(pools))
    rng = np.random.default_rng(seed)
    estimates = np.empty(n_resamples)
    if len(pools) == 1:
        samples = pools[0]
        for i in range(n_resamples):
            draw = samples[rng.integers(samples.size, size=samples.size)]
            estimates[i] = clamped_mean(draw)
    else:
        for i in range(n_resamples):
            picks = rng.integers(len(pools), size=len(pools))
            resample = np.concatenate([pools[pick] for pick in picks])
            estimates[i] = clamped_mean(resample)
    tail = (1.0 - confidence) / 2.0
    low, high = np.quantile(estimates, [tail, 1.0 - tail])
    return ConfidenceInterval(
        low=float(low), high=float(high), point=point, confidence=confidence
    )
