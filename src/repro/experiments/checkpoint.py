"""Cell-level checkpointing for the sweep execution plane.

Every experiment in this repository is a (point × seed) grid of independent
simulation *cells* (see :mod:`repro.experiments.grid`).  This module gives
each cell a **content-derived identity** and a small on-disk store keyed by
it, which is what makes three execution features safe and cheap:

* **resume** — an interrupted sweep restarted with the same configuration
  skips every cell whose result is already on disk;
* **sharding** — `repro shard run` executes a deterministic slice of the
  cell list on any host and writes its results here; `repro shard merge`
  reassembles the full grid from several stores;
* **incremental persistence** — completed cells are written the moment they
  finish (the streaming regroup in
  :class:`~repro.experiments.backends.PoolBackend` emits results in
  submission order as prefixes complete), so a crash loses at most the cells
  in flight.

Cell identity
-------------

:func:`cell_key` hashes the *physics* of a cell: the experiment name, the job
spec type, the job's canonical JSON form, and the cell/envelope schema
versions.  The one execution-plane knob a job spec carries,
``config.workers``, is deliberately excluded — the determinism contract
(docs/ARCHITECTURE.md) guarantees results are worker-count invariant.

Two invocations with the same experiment, config and options therefore
produce the same key for the same cell — across processes, hosts and worker
counts — which is exactly what lets a resumed or shard-merged sweep produce
an envelope byte-identical to an uninterrupted single-machine run.

Cell results are arbitrary driver dataclasses, so they are persisted as
pickles (one file per cell, written atomically via temp-file + rename so
concurrent shard runners never observe a torn cell).
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
import tempfile
from pathlib import Path
from typing import Any, Sequence, Union

from repro.experiments.results import RESULT_SCHEMA_VERSION, json_safe

#: Cell identity schema, bumped when the key material or the pickle layout
#: changes (old stores are then simply ignored rather than misread).
#: v3: propagation runs record ``long_link_fallback``.
#: v4: Δt cells hold plain :class:`~repro.experiments.runner.Campaign` records.
#: v5: relay_comparison and attacks cells hold plain
#: :class:`~repro.experiments.runner.BlockCampaign` records.
#: v6: relay_comparison records store ``mean_final_fanout`` None outside
#: adaptive cells.
#: v7: attacks records carry the eclipse exposure and partition cost their
#: cells read; ablation job specs and records drop ``variant``.
#: v8: doublespend records drop ``races`` and ``detections``.
CELL_SCHEMA_VERSION = 8


def canonical_job(job: Any) -> Any:
    """The JSON-safe, execution-plane-free canonical form of a job spec."""
    data = json_safe(job)
    if isinstance(data, dict):
        config = data.get("config")
        if isinstance(config, dict):
            config.pop("workers", None)
    return data


def cell_key(experiment: str, job: Any) -> str:
    """Content-derived identity of one grid cell.

    Args:
        experiment: the registry name of the experiment the cell belongs to.
        job: the picklable job spec (a frozen dataclass of plain values).

    Returns:
        A hex digest stable across processes, hosts and worker counts.
    """
    material = {
        "cell_schema": CELL_SCHEMA_VERSION,
        "result_schema": RESULT_SCHEMA_VERSION,
        "experiment": experiment,
        "job_type": type(job).__qualname__,
        "job": canonical_job(job),
    }
    encoded = json.dumps(material, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(encoded.encode()).hexdigest()


class CellStore:
    """One directory of completed cell results, keyed by :func:`cell_key`.

    Args:
        root: directory the store writes into (created on first save).
        extra_roots: additional read-only stores consulted by :meth:`has` /
            :meth:`load` — this is how ``repro shard merge`` reassembles a
            grid from several per-shard stores without copying files.
    """

    CELL_DIR = "cells"
    SUFFIX = ".pkl"

    def __init__(
        self,
        root: Union[str, Path],
        extra_roots: Sequence[Union[str, Path]] = (),
    ) -> None:
        self.root = Path(root)
        self.extra_roots = tuple(Path(extra) for extra in extra_roots)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        extras = f", extra_roots={list(map(str, self.extra_roots))}" if self.extra_roots else ""
        return f"CellStore({str(self.root)!r}{extras})"

    # ------------------------------------------------------------------ paths
    def _cell_path(self, root: Path, key: str) -> Path:
        return root / self.CELL_DIR / f"{key}{self.SUFFIX}"

    def _lookup(self, key: str) -> Union[Path, None]:
        for root in (self.root, *self.extra_roots):
            path = self._cell_path(root, key)
            if path.is_file():
                return path
        return None

    # ------------------------------------------------------------------- read
    def has(self, key: str) -> bool:
        """Whether a completed result for ``key`` exists in any root."""
        return self._lookup(key) is not None

    def load(self, key: str) -> Any:
        """Load one completed cell result."""
        path = self._lookup(key)
        if path is None:
            raise KeyError(f"no checkpointed cell {key!r} under {self.root}")
        with open(path, "rb") as handle:
            return pickle.load(handle)

    def keys(self) -> list[str]:
        """All cell keys visible through this store, sorted."""
        found = set()
        for root in (self.root, *self.extra_roots):
            cell_dir = root / self.CELL_DIR
            if not cell_dir.is_dir():
                continue
            found.update(
                path.name[: -len(self.SUFFIX)]
                for path in cell_dir.iterdir()
                if path.name.endswith(self.SUFFIX)
            )
        return sorted(found)

    def __len__(self) -> int:
        return len(self.keys())

    # ------------------------------------------------------------------ write
    def save(self, key: str, result: Any) -> Path:
        """Persist one completed cell result atomically.

        Concurrent writers of the same key (two shard runners with
        overlapping slices, or a resume racing a straggler) are harmless:
        both pickles hold the same deterministic result and ``os.replace``
        is atomic, so readers always see one complete file.
        """
        path = self._cell_path(self.root, key)
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp_name = tempfile.mkstemp(
            prefix=f".{key[:12]}-", suffix=".tmp", dir=path.parent
        )
        try:
            with os.fdopen(fd, "wb") as handle:
                pickle.dump(result, handle, protocol=pickle.HIGHEST_PROTOCOL)
            os.replace(tmp_name, path)
        except BaseException:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            raise
        return path

    # -------------------------------------------------------------- manifest
    MANIFEST = "shard.json"

    def write_manifest(self, data: dict[str, Any]) -> Path:
        """Record shard provenance (experiment, slice, counts) for humans."""
        self.root.mkdir(parents=True, exist_ok=True)
        path = self.root / self.MANIFEST
        path.write_text(json.dumps(json_safe(data), indent=2, sort_keys=True) + "\n")
        return path
