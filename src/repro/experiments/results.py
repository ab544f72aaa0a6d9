"""The unified experiment result envelope and its persistent store.

Every experiment executed through :func:`repro.experiments.api.run_experiment`
produces one :class:`ExperimentResult`: a JSON-serialisable envelope carrying
the full configuration provenance (config, options, seeds), the per-label
summary statistics and the verdict booleans.  The envelope round-trips through
JSON, so a run written today can be reloaded and compared against a run
written next month.  It holds data only: text is a view of it, rendered by
:func:`repro.analysis.report.render_report`.

Since schema v2 the envelope also carries ``samples``: the raw per-seed
measurement series and time-series counters an experiment opted to persist
(the :meth:`repro.analysis.samples.SampleLog.to_dict` form).  Raw samples are
what make a stored run *re-analysable* — ``repro report`` regenerates the
paper's figures and percentile tables from them with no re-simulation.
Legacy v1 envelopes (no ``samples`` key) still load; they simply report with
summary tables only.  Up to v2 the envelope also stored pre-rendered report
``sections``; v3 dropped them, and a stored ``sections`` key is ignored.

:class:`ResultStore` persists envelopes under timestamped run directories::

    results/
      fig3/
        20260729T144501-001/
          result.json     # the ExperimentResult envelope
          report.md       # written by `repro report` (on demand)
          figures/        # written by `repro report` when matplotlib exists
        20260729T151210-002/
          ...

Run ids are ``"<experiment>/<directory>"`` (e.g. ``"fig3/20260729T144501-001"``)
and sort by their ``<stamp>-<seq>`` directory, across experiments too.
:meth:`ResultStore.select` is the one way to name stored runs: ``latest``,
an experiment name, a run id, a run directory, or a provenance selector such
as ``"fig3?nodes=200,policy=bcbpt"`` that :meth:`ResultStore.query` answers.
:func:`diff_results` compares two runs: config drift, per-label metric
deltas, and verdict flips (raw samples are deliberately *not* diffed — the
scalar summaries derived from them are);
:func:`repro.analysis.report.render_comparison` shows that comparison.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import os
import re
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Mapping, Optional, Sequence, Union

#: Envelope schema version, bumped on breaking layout changes.
#: v2 added the optional ``samples`` field (raw measurement series); v1
#: envelopes load unchanged with an empty ``samples``.  v3 stopped storing
#: pre-rendered report ``sections``; older envelopes load without them.
RESULT_SCHEMA_VERSION = 3

_RUN_DIR_RE = re.compile(r"^\d{8}T\d{6}-\d{3}$")


def json_safe(value: Any) -> Any:
    """Recursively convert a value into JSON-serialisable plain data.

    Dataclasses become dicts, tuples/sets become lists, non-string mapping
    keys are stringified, and NaN/inf floats are preserved (Python's ``json``
    round-trips them).  Objects with no obvious plain form are rendered via
    ``repr`` — provenance beats a serialisation error.
    """
    if value is None or isinstance(value, (bool, int, str)):
        return value
    if isinstance(value, float):
        return value
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {f.name: json_safe(getattr(value, f.name)) for f in dataclasses.fields(value)}
    if isinstance(value, Mapping):
        return {str(key): json_safe(item) for key, item in value.items()}
    if isinstance(value, (list, tuple, set, frozenset)):
        items = sorted(value, key=repr) if isinstance(value, (set, frozenset)) else value
        return [json_safe(item) for item in items]
    return repr(value)


@dataclass
class ExperimentResult:
    """The JSON-serialisable outcome of one experiment run.

    Attributes:
        experiment: registry name (``"fig3"``, ``"churn_resilience"``, ...).
        experiment_id: the DESIGN.md index id (``"Fig. 3"``, ``"Ext-6"``).
        title: one-line human description of the experiment.
        created_at: POSIX timestamp of the run.
        config: :class:`~repro.experiments.config.ExperimentConfig` provenance
            as a plain dict (includes the seeds).
        options: experiment-specific options the run was invoked with.
        seeds: the master seeds the aggregates pooled over.
        summaries: per-label scalar summaries (label -> metric -> value); the
            machine-readable core :func:`diff_results` compares.
        verdicts: named boolean reproduction criteria (e.g. the Fig. 3
            ordering check).
        extras: any additional JSON-safe data an experiment wants persisted.
        samples: raw measurement series and time-series counters, in the
            plain :meth:`repro.analysis.samples.SampleLog.to_dict` form
            (empty for experiments that opted out, and for legacy v1
            envelopes).  This is what ``repro report`` regenerates figures
            and percentile tables from.
    """

    experiment: str
    experiment_id: str
    title: str
    created_at: float
    config: dict[str, Any]
    options: dict[str, Any] = field(default_factory=dict)
    seeds: list[int] = field(default_factory=list)
    summaries: dict[str, dict[str, Any]] = field(default_factory=dict)
    verdicts: dict[str, bool] = field(default_factory=dict)
    extras: dict[str, Any] = field(default_factory=dict)
    samples: dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> dict[str, Any]:
        """The envelope as plain JSON-safe data."""
        return {
            "schema_version": RESULT_SCHEMA_VERSION,
            "experiment": self.experiment,
            "experiment_id": self.experiment_id,
            "title": self.title,
            "created_at": self.created_at,
            "config": json_safe(self.config),
            "options": json_safe(self.options),
            "seeds": list(self.seeds),
            "summaries": json_safe(self.summaries),
            "verdicts": dict(self.verdicts),
            "extras": json_safe(self.extras),
            "samples": json_safe(self.samples),
        }

    def to_json(self, *, indent: int = 2) -> str:
        """Serialise the envelope to a JSON document."""
        return json.dumps(self.to_dict(), indent=indent, sort_keys=False)

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ExperimentResult":
        """Rebuild an envelope from :meth:`to_dict` output (schema v1–v3).

        The ``sections`` that v1 and v2 envelopes stored are ignored.
        """
        version = data.get("schema_version", RESULT_SCHEMA_VERSION)
        if version > RESULT_SCHEMA_VERSION:
            raise ValueError(
                f"result schema v{version} is newer than supported v{RESULT_SCHEMA_VERSION}"
            )
        return cls(
            experiment=data["experiment"],
            experiment_id=data["experiment_id"],
            title=data["title"],
            created_at=data["created_at"],
            config=dict(data.get("config", {})),
            options=dict(data.get("options", {})),
            seeds=[int(seed) for seed in data.get("seeds", [])],
            summaries={k: dict(v) for k, v in data.get("summaries", {}).items()},
            verdicts={k: bool(v) for k, v in data.get("verdicts", {}).items()},
            extras=dict(data.get("extras", {})),
            # Legacy (v1) envelopes predate raw-sample capture; they load
            # with an empty samples field and report with tables only.
            samples=dict(data.get("samples", {}) or {}),
        )

    @classmethod
    def from_json(cls, text: str) -> "ExperimentResult":
        """Deserialise an envelope from :meth:`to_json` output."""
        return cls.from_dict(json.loads(text))

    # ------------------------------------------------------ canonical form
    def canonical_dict(self) -> dict[str, Any]:
        """The envelope with every execution-plane/wall-clock field masked.

        Two runs of the same experiment with the same configuration produce
        *identical* canonical dicts regardless of when they ran, how many
        workers they used, whether they were interrupted and resumed, or how
        many shards they were split across — the determinism contract, made
        assertable.  Masked fields: ``created_at``, ``extras.duration_s``
        and ``config.workers``.
        """
        data = self.to_dict()
        data["created_at"] = 0.0
        extras = data.get("extras")
        if isinstance(extras, dict):
            extras.pop("duration_s", None)
        config = data.get("config")
        if isinstance(config, dict):
            config.pop("workers", None)
        return data

    def canonical_json(self) -> str:
        """Byte-stable JSON of :meth:`canonical_dict`."""
        return json.dumps(self.canonical_dict(), indent=2, sort_keys=True)

    def fingerprint(self) -> str:
        """SHA-256 over :meth:`canonical_json` — the run-equivalence digest.

        The envelope holds no rendered text, so the digest covers results
        only: rewording a report cannot move it.
        """
        return hashlib.sha256(self.canonical_json().encode()).hexdigest()


@dataclass
class ResultDiff:
    """A structured comparison of two experiment runs."""

    config_changes: dict[str, tuple[Any, Any]] = field(default_factory=dict)
    metric_deltas: dict[str, dict[str, tuple[Any, Any]]] = field(default_factory=dict)
    labels_only_in_baseline: list[str] = field(default_factory=list)
    labels_only_in_candidate: list[str] = field(default_factory=list)
    verdict_changes: dict[str, tuple[Optional[bool], Optional[bool]]] = field(
        default_factory=dict
    )

    @property
    def identical(self) -> bool:
        """Whether the two runs agree on config, metrics and verdicts."""
        return not (
            self.config_changes
            or self.metric_deltas
            or self.labels_only_in_baseline
            or self.labels_only_in_candidate
            or self.verdict_changes
        )


def _values_differ(old: Any, new: Any) -> bool:
    if isinstance(old, float) and isinstance(new, float):
        if math.isnan(old) and math.isnan(new):
            return False
    return old != new


def diff_results(baseline: ExperimentResult, candidate: ExperimentResult) -> ResultDiff:
    """Field-by-field comparison of two runs of the same experiment."""
    if baseline.experiment != candidate.experiment:
        raise ValueError(
            f"cannot diff runs of different experiments: "
            f"{baseline.experiment!r} vs {candidate.experiment!r}"
        )
    diff = ResultDiff()
    base_config = json_safe(baseline.config)
    cand_config = json_safe(candidate.config)
    for key in sorted(set(base_config) | set(cand_config)):
        old, new = base_config.get(key), cand_config.get(key)
        if _values_differ(old, new):
            diff.config_changes[key] = (old, new)
    base_sum = json_safe(baseline.summaries)
    cand_sum = json_safe(candidate.summaries)
    diff.labels_only_in_baseline = sorted(set(base_sum) - set(cand_sum))
    diff.labels_only_in_candidate = sorted(set(cand_sum) - set(base_sum))
    for label in sorted(set(base_sum) & set(cand_sum)):
        deltas: dict[str, tuple[Any, Any]] = {}
        old_metrics, new_metrics = base_sum[label], cand_sum[label]
        for metric in sorted(set(old_metrics) | set(new_metrics)):
            old, new = old_metrics.get(metric), new_metrics.get(metric)
            if _values_differ(old, new):
                deltas[metric] = (old, new)
        if deltas:
            diff.metric_deltas[label] = deltas
    for name in sorted(set(baseline.verdicts) | set(candidate.verdicts)):
        old = baseline.verdicts.get(name)
        new = candidate.verdicts.get(name)
        if old != new:
            diff.verdict_changes[name] = (old, new)
    return diff


class ResultStore:
    """Writes and reads :class:`ExperimentResult` envelopes on disk.

    Args:
        root: directory holding one subdirectory per experiment name
            (defaults to ``results/`` under the current working directory, or
            ``$REPRO_RESULTS_DIR`` when set).
    """

    RESULT_FILE = "result.json"

    def __init__(self, root: Union[str, Path, None] = None) -> None:
        if root is None:
            root = os.environ.get("REPRO_RESULTS_DIR", "results")
        self.root = Path(root)

    # ----------------------------------------------------------------- write
    def save(self, result: ExperimentResult) -> Path:
        """Persist one run; returns the created run directory.

        The run directory is claimed with an atomic ``mkdir``: two writers
        that compute the same ``<timestamp>-<seq>`` id (concurrent shard
        runners, parallel CI jobs) cannot both succeed on the same path —
        the loser's ``FileExistsError`` simply advances it to the next
        sequence number.  An exists-then-mkdir check would race between the
        check and the create.
        """
        stamp = time.strftime("%Y%m%dT%H%M%S", time.localtime(result.created_at))
        experiment_dir = self.root / result.experiment
        experiment_dir.mkdir(parents=True, exist_ok=True)
        for sequence in range(1, 1000):
            run_dir = experiment_dir / f"{stamp}-{sequence:03d}"
            try:
                run_dir.mkdir()
            except FileExistsError:
                continue
            break
        else:  # pragma: no cover - 999 runs in one second
            raise RuntimeError(f"no free run directory under {experiment_dir}")
        (run_dir / self.RESULT_FILE).write_text(result.to_json() + "\n")
        return run_dir

    # ------------------------------------------------------------------ read
    def run_ids(self, experiment: Optional[str] = None) -> list[str]:
        """All stored run ids (``"<experiment>/<dir>"``), oldest first.

        Runs sort by their ``<stamp>-<seq>`` directory name, across
        experiments too, so the last id is the newest run stored.
        """
        if not self.root.is_dir():
            return []
        if experiment:
            experiment_dirs = [self.root / experiment]
        else:
            experiment_dirs = [p for p in self.root.iterdir() if p.is_dir()]
        runs = sorted(
            (run_dir.name, experiment_dir.name)
            for experiment_dir in experiment_dirs
            if experiment_dir.is_dir()
            for run_dir in experiment_dir.iterdir()
            if run_dir.is_dir() and _RUN_DIR_RE.match(run_dir.name)
        )
        return [f"{name}/{run}" for run, name in runs]

    def select(self, ref: Union[str, Path, None] = None) -> list[str]:
        """The stored runs a reference names, oldest first (as :meth:`run_ids`).

        * ``None``, ``""`` or ``"latest"``: every stored run;
        * ``"fig3?nodes=200,policy=bcbpt"``, or ``"?nodes=200"`` across all
          experiments: the runs :meth:`query` matches;
        * a run id (``"fig3/<stamp>-001"``) or a run directory: that run;
        * an experiment name: that experiment's runs.

        Raises:
            FileNotFoundError: the reference names no stored run.
        """
        text = "" if ref is None else str(ref)
        if text in ("", "latest"):
            ids = self.run_ids()
        elif "?" in text:
            experiment, _, expr = text.partition("?")
            ids = self.query(parse_where(expr), experiment=experiment or None)
        else:
            try:
                self._resolve(text)
                ids = [text]
            except FileNotFoundError:
                ids = [] if "/" in text else self.run_ids(text)
        if not ids:
            raise FileNotFoundError(
                f"no stored runs match {text or 'latest'!r} under {self.root}"
            )
        return ids

    def _resolve(self, run_id: Union[str, Path]) -> Path:
        raw = Path(run_id)
        # A relative value may be a run id ("fig3/<stamp>-001", resolved
        # under the store root) or an actual directory path as returned by
        # :meth:`save` (e.g. "results/fig3/<stamp>-001"); try it as given
        # before prefixing the root so the latter is not double-prefixed.
        candidates = [raw] if raw.is_absolute() else [raw, self.root / raw]
        tried = []
        for path in candidates:
            if path.is_file():
                path = path.parent
            result_file = path / self.RESULT_FILE
            if result_file.is_file():
                return result_file
            tried.append(path)
        raise FileNotFoundError(f"no stored result at {run_id!r} (looked in {tried})")

    def load(self, run_id: Union[str, Path]) -> ExperimentResult:
        """Load one stored run by id or path."""
        return ExperimentResult.from_json(self._resolve(run_id).read_text())

    def run_dir(self, run_id: Union[str, Path]) -> Path:
        """The on-disk directory of one stored run (id or path accepted).

        ``repro report`` writes its rendered markdown and figures here by
        default, so a run directory stays a self-contained artifact.
        """
        return self._resolve(run_id).parent

    # ----------------------------------------------------------------- query
    def query(
        self,
        where: Mapping[str, str],
        experiment: Optional[str] = None,
    ) -> list[str]:
        """Run ids matching every ``key=value`` condition, oldest first.

        Conditions select on config fields, experiment options, summary
        labels and seeds (see :func:`_provenance`) — e.g.
        ``{"nodes": "10000", "policy": "bcbpt"}``.  Every stored envelope is
        read, so runs written by other processes are always visible; a run
        directory whose envelope is not (yet) readable is skipped.
        """
        conditions = [
            (WHERE_ALIASES.get(key, key), str(value)) for key, value in where.items()
        ]
        matches = []
        for run_id in self.run_ids(experiment):
            try:
                values = _provenance(self.load(run_id))
            except (OSError, ValueError, KeyError):  # a run being written
                continue
            if all(_any_equal(values.get(key, ()), wanted) for key, wanted in conditions):
                matches.append(run_id)
        return matches


# ------------------------------------------------------------------ queries
#: Friendly aliases accepted in selector conditions alongside the exact
#: config-field / option / provenance keys.
WHERE_ALIASES = {
    "nodes": "node_count",
    "policy": "label",
    "protocol": "label",
    "threshold_s": "latency_threshold_s",
}


def parse_where(text: str) -> dict[str, str]:
    """Parse a selector's ``"nodes=10000,policy=bcbpt"`` into a condition mapping."""
    conditions: dict[str, str] = {}
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        if "=" not in part:
            raise ValueError(
                f"a run selector expects KEY=VALUE[,KEY=VALUE...] after '?' — got {part!r}"
            )
        key, _, value = part.partition("=")
        key, value = key.strip(), value.strip()
        if not key or not value:
            raise ValueError(f"run selector condition {part!r} is missing a key or value")
        conditions[key] = value
    if not conditions:
        raise ValueError("a run selector supplies no conditions after '?'")
    return conditions


def _provenance(result: ExperimentResult) -> dict[str, list[Any]]:
    """The values a selector condition can select one run by, per key.

    * every ``config`` field — a sequence field lists each element and the
      comma-joined whole (``seeds=3,11``), a mapping its sorted JSON;
    * every resolved experiment option, flattened the same way;
    * each master seed under ``seed``;
    * each summary label under ``label``, plus a threshold-suffixed label's
      base policy (``bcbpt@50ms`` also lists ``bcbpt``);
    * the experiment name under ``experiment``.
    """
    values: dict[str, list[Any]] = {}

    def emit(key: str, value: Any) -> None:
        if isinstance(value, (list, tuple)):
            for item in value:
                emit(key, item)
            value = ",".join(str(item) for item in value)
        elif isinstance(value, Mapping):
            value = json.dumps(json_safe(value), sort_keys=True)
        values.setdefault(key, []).append(value)

    emit("experiment", result.experiment)
    for key, value in json_safe(result.config).items():
        emit(key, value)
    for key, value in json_safe(result.options).items():
        emit(key, value)
    for seed in result.seeds:
        emit("seed", seed)
    for label in result.summaries:
        emit("label", label)
        if "@" in label:
            emit("label", label.split("@", 1)[0])
    return values


def _any_equal(values: Sequence[Any], wanted: str) -> bool:
    """Whether one value equals ``wanted`` as text, or as a number (so
    ``nodes=1e4`` finds ``node_count`` 10000)."""
    try:
        number: Optional[float] = float(wanted)
    except ValueError:
        number = None
    return any(
        str(value) == wanted
        or (number is not None and isinstance(value, (int, float)) and value == number)
        for value in values
    )
