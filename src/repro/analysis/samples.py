"""Raw-sample capture: the ``samples`` field of the experiment envelope.

The paper's claims are distributional — Fig. 3/4 are propagation-delay curves
and BCBPT's win lives in the CDF tail — so scalar summaries are not enough to
regenerate a figure from a stored run.  :class:`SampleLog` is the versioned
structure experiments use to persist the raw material:

* **sample series** — flat lists of measurements (Δt samples, block delays),
  keyed by ``(label, metric, seed)`` so per-seed provenance survives and
  bootstrap confidence intervals over seeds stay possible after the fact;
* **time series** — named ``(x, y)`` counter curves (coverage per block,
  variance per connection rank).

Both round-trip losslessly through JSON (NaN included) via
:meth:`SampleLog.to_dict` / :meth:`SampleLog.from_dict`, and the envelope
stores exactly that plain form, so this module stays importable from every
layer (standard library only — no numpy, no experiments imports).

Determinism: series and points are stored in insertion order, and
experiments fill the log from grid results merged in submission order — so
the persisted samples are identical for every worker count, like every other
aggregate in the repository.

:class:`BlockArrivalRecorder` is the standard block-plane observer: it
attaches to ``BitcoinNode.block_listeners`` and records, per block hash, when
each node accepted the block — the raw material for block-propagation delay
series (used by the relay-comparison experiment).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterable, Mapping, Optional, Sequence

#: Schema version of the ``samples`` envelope field, bumped on layout changes.
SAMPLES_SCHEMA_VERSION = 1


@dataclass
class SampleSeries:
    """One flat series of raw measurements.

    Attributes:
        label: sweep-point label (``"bcbpt"``, ``"compact/bcbpt"``,
            ``"bitcoin/heavy"`` ...), matching the envelope's summary keys.
        metric: measurement name (``"delay_s"``, ``"block_delay_s"``, ...).
        values: the raw samples, in capture order.
        unit: unit annotation (``"s"``, ``"fraction"``, ...), informational.
        seed: master seed the series was measured under, or None for series
            already pooled across seeds.
    """

    label: str
    metric: str
    values: list[float] = field(default_factory=list)
    unit: str = ""
    seed: Optional[int] = None


@dataclass
class TimeSeries:
    """One named ``(x, y)`` counter curve.

    Attributes:
        label: sweep-point label (as in :class:`SampleSeries`).
        metric: curve name (``"rank_variance_s2"``, ``"block_coverage"``, ...).
        points: ``(x, y)`` pairs in capture order.
        unit: unit of the ``y`` values, informational.
    """

    label: str
    metric: str
    points: list[tuple[float, float]] = field(default_factory=list)
    unit: str = ""


class SampleLog:
    """Ordered collection of raw sample series and time-series counters."""

    def __init__(self) -> None:
        self._series: dict[tuple[str, str, Optional[int]], SampleSeries] = {}
        self._timeseries: dict[tuple[str, str], TimeSeries] = {}

    # ------------------------------------------------------------- recording
    def add(
        self, label: str, metric: str, value: float, *, seed: Optional[int] = None, unit: str = ""
    ) -> None:
        """Append one sample to the ``(label, metric, seed)`` series."""
        self.extend(label, metric, (value,), seed=seed, unit=unit)

    def extend(
        self,
        label: str,
        metric: str,
        values: Iterable[float],
        *,
        seed: Optional[int] = None,
        unit: str = "",
    ) -> None:
        """Append samples to the ``(label, metric, seed)`` series."""
        key = (label, metric, seed)
        series = self._series.get(key)
        if series is None:
            series = self._series[key] = SampleSeries(
                label=label, metric=metric, unit=unit, seed=seed
            )
        series.values.extend(float(value) for value in values)

    def add_per_seed(
        self,
        label: str,
        metric: str,
        per_seed: Mapping[int, Iterable[float]],
        *,
        unit: str = "",
    ) -> None:
        """Record one series per master seed, in the mapping's order.

        The grid executor merges seed results in submission order, so a
        ``per_seed`` mapping built from that merge yields the same series —
        and the same pooled concatenation — for every worker count.
        """
        for seed, values in per_seed.items():
            self.extend(label, metric, values, seed=int(seed), unit=unit)

    def add_point(
        self, label: str, metric: str, x: float, y: float, *, unit: str = ""
    ) -> None:
        """Append one ``(x, y)`` point to the ``(label, metric)`` time series."""
        key = (label, metric)
        curve = self._timeseries.get(key)
        if curve is None:
            curve = self._timeseries[key] = TimeSeries(label=label, metric=metric, unit=unit)
        curve.points.append((float(x), float(y)))

    # ---------------------------------------------------------------- access
    def series(self) -> list[SampleSeries]:
        """All sample series, in insertion order."""
        return list(self._series.values())

    def timeseries(self) -> list[TimeSeries]:
        """All time series, in insertion order."""
        return list(self._timeseries.values())

    def labels(self) -> list[str]:
        """Distinct labels across series and time series, in insertion order."""
        seen: dict[str, None] = {}
        for series in self._series.values():
            seen.setdefault(series.label, None)
        for curve in self._timeseries.values():
            seen.setdefault(curve.label, None)
        return list(seen)

    def metrics(self) -> list[str]:
        """Distinct sample-series metric names, in insertion order."""
        seen: dict[str, None] = {}
        for series in self._series.values():
            seen.setdefault(series.metric, None)
        return list(seen)

    def values(self, label: str, metric: str) -> list[float]:
        """Samples for ``(label, metric)`` pooled across seeds, in stored order."""
        pooled: list[float] = []
        for series in self._series.values():
            if series.label == label and series.metric == metric:
                pooled.extend(series.values)
        return pooled

    def per_seed(self, label: str, metric: str) -> dict[int, list[float]]:
        """Per-seed samples for ``(label, metric)`` (seedless series omitted)."""
        return {
            series.seed: list(series.values)
            for series in self._series.values()
            if series.label == label and series.metric == metric and series.seed is not None
        }

    def points(self, label: str, metric: str) -> list[tuple[float, float]]:
        """The ``(label, metric)`` time-series points (empty when absent)."""
        curve = self._timeseries.get((label, metric))
        return list(curve.points) if curve else []

    def sample_count(self) -> int:
        """Total raw samples held across all series."""
        return sum(len(series.values) for series in self._series.values())

    def __len__(self) -> int:
        return len(self._series) + len(self._timeseries)

    def __bool__(self) -> bool:
        return bool(self._series or self._timeseries)

    # ------------------------------------------------------------- transport
    def to_dict(self) -> dict[str, Any]:
        """The log as plain JSON-safe data (the envelope's ``samples`` form)."""
        return {
            "schema_version": SAMPLES_SCHEMA_VERSION,
            "series": [
                {
                    "label": series.label,
                    "metric": series.metric,
                    "seed": series.seed,
                    "unit": series.unit,
                    "values": list(series.values),
                }
                for series in self._series.values()
            ],
            "timeseries": [
                {
                    "label": curve.label,
                    "metric": curve.metric,
                    "unit": curve.unit,
                    "points": [[x, y] for x, y in curve.points],
                }
                for curve in self._timeseries.values()
            ],
        }

    @classmethod
    def from_dict(cls, data: Optional[Mapping[str, Any]]) -> "SampleLog":
        """Rebuild a log from :meth:`to_dict` output.

        ``None`` or an empty mapping (the legacy sample-less envelope path)
        yields an empty log.
        """
        log = cls()
        if not data:
            return log
        version = data.get("schema_version", SAMPLES_SCHEMA_VERSION)
        if version > SAMPLES_SCHEMA_VERSION:
            raise ValueError(
                f"samples schema v{version} is newer than supported v{SAMPLES_SCHEMA_VERSION}"
            )
        for entry in data.get("series", []):
            seed = entry.get("seed")
            log.extend(
                entry["label"],
                entry["metric"],
                entry.get("values", []),
                seed=None if seed is None else int(seed),
                unit=entry.get("unit", ""),
            )
        for entry in data.get("timeseries", []):
            for x, y in entry.get("points", []):
                log.add_point(
                    entry["label"], entry["metric"], x, y, unit=entry.get("unit", "")
                )
        return log


class BlockArrivalRecorder:
    """Records block acceptance times through ``BitcoinNode.block_listeners``.

    One recorder observes any number of nodes; per block hash it keeps an
    insertion-ordered ``node id -> acceptance time`` mapping (insertion order
    is simulation-event order, so everything derived from it is
    deterministic).  This is the single block-plane capture point experiments
    share instead of each wiring an ad-hoc listener.
    """

    def __init__(self) -> None:
        #: block hash -> (node id -> simulated acceptance time), event-ordered.
        self.arrivals: dict[str, dict[int, float]] = {}

    def attach(self, nodes: Iterable[Any]) -> None:
        """Register the recorder on every node's ``block_listeners``."""
        for node in nodes:
            node.block_listeners.append(self.observe)

    def observe(self, node_id: int, block: Any, accepted_at: float) -> None:
        """The listener body (signature of ``BitcoinNode.block_listeners``)."""
        self.arrivals.setdefault(block.block_hash, {})[node_id] = accepted_at

    def receivers(self, block_hash: str) -> dict[int, float]:
        """Acceptance times for one block (empty when nobody accepted it)."""
        return dict(self.arrivals.get(block_hash, {}))

    def delays(
        self, block_hash: str, since: float, *, exclude: Sequence[int] = ()
    ) -> list[float]:
        """Per-node ``acceptance - since`` delays, in acceptance-event order.

        Args:
            block_hash: the block to read.
            since: reference time (typically when the block was mined).
            exclude: node ids to skip (typically the miner itself).
        """
        skip = set(exclude)
        return [
            accepted_at - since
            for node_id, accepted_at in self.arrivals.get(block_hash, {}).items()
            if node_id not in skip
        ]
