"""Delay-distribution statistics.

The paper reports the *distribution* of the time differences Δt_{m,n} and, in
particular, their variance ("variances of delays").  :class:`DelayDistribution`
wraps a sample of delays and exposes the summary statistics the figures and
benchmarks need: mean, median, variance, standard deviation, arbitrary
percentiles and CDF points.

The statistics themselves are implemented once, in
:mod:`repro.analysis.stats` (the shared stats core also used by the report
layer); this class owns the *delay semantics* — non-negativity validation,
merging, and the ``*_s``-suffixed summary vocabulary.
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence

import numpy as np

from repro.analysis.stats import (
    Ecdf,
    clamped_mean,
    percentile as _percentile,
    sample_std,
    sample_variance,
    summarize_values,
)


class DelayDistribution:
    """An empirical distribution of delays (seconds)."""

    def __init__(self, samples: Iterable[float] = ()) -> None:
        self._samples: list[float] = []
        self.extend(samples)

    # -------------------------------------------------------------- mutation
    def add(self, delay_s: float) -> None:
        """Add one delay sample.

        Raises:
            ValueError: for negative delays (a reception cannot precede the
                send) and for NaN or infinite ones (no reception took them).
        """
        if not 0 <= delay_s < math.inf:
            raise ValueError(f"delay samples must be finite and non-negative, got {delay_s}")
        self._samples.append(float(delay_s))

    def extend(self, delays: Iterable[float]) -> None:
        """Add many delay samples."""
        for delay in delays:
            self.add(delay)

    def merge(self, other: "DelayDistribution") -> "DelayDistribution":
        """A new distribution containing both sample sets."""
        merged = DelayDistribution(self._samples)
        merged.extend(other.samples)
        return merged

    # ---------------------------------------------------------------- access
    @property
    def samples(self) -> list[float]:
        """A copy of the raw samples."""
        return list(self._samples)

    def __len__(self) -> int:
        return len(self._samples)

    def __bool__(self) -> bool:
        return bool(self._samples)

    # ------------------------------------------------------------ statistics
    def _require_samples(self) -> np.ndarray:
        if not self._samples:
            raise ValueError("the distribution has no samples")
        return np.asarray(self._samples)

    def mean(self) -> float:
        """Arithmetic mean of the delays.

        Clamped into ``[min, max]``: numpy's pairwise summation can round the
        mean of near-identical samples one ulp outside the sample range, which
        would break the ordering invariants downstream consumers rely on.
        """
        return clamped_mean(self._require_samples())

    def median(self) -> float:
        """Median delay."""
        return float(np.median(self._require_samples()))

    def variance(self) -> float:
        """Sample variance (the quantity the paper's figures compare)."""
        return sample_variance(self._require_samples())

    def std(self) -> float:
        """Sample standard deviation."""
        return sample_std(self._require_samples())

    def minimum(self) -> float:
        """Smallest delay observed."""
        return float(np.min(self._require_samples()))

    def maximum(self) -> float:
        """Largest delay observed."""
        return float(np.max(self._require_samples()))

    def percentile(self, q: float) -> float:
        """The ``q``-th percentile (``0 <= q <= 100``)."""
        return _percentile(self._require_samples(), q)

    def ecdf(self) -> Ecdf:
        """The empirical CDF of the samples (see :class:`repro.analysis.stats.Ecdf`)."""
        return Ecdf(self._require_samples())

    def cdf(self, points: Sequence[float]) -> list[float]:
        """Empirical CDF evaluated at the given delay points."""
        return self.ecdf().evaluate_many([float(p) for p in points])

    def cdf_curve(self, resolution: int = 50) -> list[tuple[float, float]]:
        """(delay, cumulative fraction) pairs spanning the sample range."""
        return self.ecdf().curve(resolution)

    def summary(self) -> dict[str, float]:
        """The summary statistics used throughout the experiment reports."""
        return summarize_values(self._require_samples())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        if not self._samples:
            return "DelayDistribution(empty)"
        return (
            f"DelayDistribution(n={len(self._samples)}, mean={self.mean():.4f}s, "
            f"median={self.median():.4f}s, var={self.variance():.6f})"
        )


def summarize_delays(distributions: dict[str, DelayDistribution]) -> dict[str, dict[str, float]]:
    """Summaries of several named distributions (one per protocol/threshold)."""
    return {name: dist.summary() for name, dist in distributions.items() if len(dist) > 0}
