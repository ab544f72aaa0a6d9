"""Hierarchical seeded randomness.

Every stochastic component in the simulator (latency jitter, churn, workload,
topology generation, ...) asks the :class:`RandomService` for a *named stream*.
Streams are derived from the master seed and the stream name with SHA-256, so:

* the whole experiment is reproducible from one integer seed;
* adding a new random consumer does not perturb the draws seen by existing
  consumers (unlike sharing one generator);
* two components never accidentally share a stream.
"""

from __future__ import annotations

import hashlib
from typing import Sequence

import numpy as np


class RandomService:
    """Factory for named, deterministic ``numpy.random.Generator`` streams."""

    def __init__(self, seed: int = 0) -> None:
        self.seed = int(seed)
        self._streams: dict[str, np.random.Generator] = {}

    def stream(self, name: str) -> np.random.Generator:
        """Return the generator for ``name``, creating it on first use.

        The same ``(seed, name)`` pair always yields an identical sequence of
        draws, independent of creation order.
        """
        if name not in self._streams:
            self._streams[name] = np.random.default_rng(self._derive_seed(name))
        return self._streams[name]

    def _derive_seed(self, name: str) -> int:
        digest = hashlib.sha256(f"{self.seed}:{name}".encode("utf-8")).digest()
        return int.from_bytes(digest[:8], "big")

    def fork(self, name: str) -> "RandomService":
        """Create a child service with an independent but derived master seed.

        Used when one experiment spins up several simulator instances (e.g.
        repeated measurement runs) that must not share streams.
        """
        return RandomService(self._derive_seed(f"fork:{name}"))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"RandomService(seed={self.seed}, streams={sorted(self._streams)})"


def choice_cdf(probabilities: Sequence[float]) -> list[float]:
    """The CDF ``Generator.choice(n, p=probabilities)`` searches, as floats.

    ``choice`` normalises ``p.cumsum()`` by its last entry and returns
    ``searchsorted(cdf, random(), side="right")``, so
    ``bisect.bisect_right(cdf, rng.random())`` draws the same index from the
    same stream, without rebuilding and re-checking the CDF per draw.
    """
    cdf = np.cumsum(np.asarray(probabilities, dtype=np.float64))
    cdf /= cdf[-1]
    return cdf.tolist()
