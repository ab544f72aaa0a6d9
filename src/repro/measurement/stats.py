"""Delay-distribution statistics.

The paper reports the *distribution* of the time differences Δt_{m,n} and, in
particular, their variance ("variances of delays").  :class:`DelayDistribution`
holds a sample of delays and guarantees that every one of them is finite and
non-negative; its summary statistics are computed once, in
:mod:`repro.analysis.stats` (the shared stats core also used by the report
layer).
"""

from __future__ import annotations

import math
from typing import Iterable

import numpy as np

from repro.analysis.stats import clamped_mean, percentile as _percentile, summarize_values


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

    def percentile(self, q: float) -> float:
        """The ``q``-th percentile (``0 <= q <= 100``)."""
        return _percentile(self._require_samples(), q)

    def summary(self) -> dict[str, float]:
        """The summary statistics used throughout the experiment reports."""
        return summarize_values(self._require_samples())
