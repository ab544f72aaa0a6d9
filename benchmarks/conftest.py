"""Shared configuration for the benchmark harness.

Every benchmark regenerates one of the paper's figures (or one of the
extensions documented in DESIGN.md) and prints the corresponding text table so
the shape can be compared against the paper.  Scale is controlled by
environment variables so the same harness covers both the minutes-scale CI
run and a paper-scale reproduction:

* ``REPRO_BENCH_NODES``  — network size (default 200; the paper used ~5000);
* ``REPRO_BENCH_RUNS``   — repetitions per measuring node (default 10; the
  paper averaged ~1000 runs);
* ``REPRO_BENCH_SEEDS``  — comma-separated master seeds (default "3,11,23");
* ``REPRO_BENCH_WORKERS`` — processes for (protocol, seed) fan-out (default:
  one per CPU, capped at 4; results are identical for every worker count —
  see ``repro.experiments.backends``).
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

import pytest

_SRC = Path(__file__).resolve().parent.parent / "src"
if str(_SRC) not in sys.path:  # pragma: no cover - trivial path bookkeeping
    sys.path.insert(0, str(_SRC))

from repro.experiments.config import ExperimentConfig  # noqa: E402


def _env_int(name: str, default: int) -> int:
    value = os.environ.get(name)
    return int(value) if value else default


def _env_seeds(name: str, default: tuple[int, ...]) -> tuple[int, ...]:
    value = os.environ.get(name)
    if not value:
        return default
    return tuple(int(part) for part in value.split(",") if part.strip())


@pytest.fixture(scope="session")
def bench_config() -> ExperimentConfig:
    """The experiment configuration shared by all benchmarks."""
    return ExperimentConfig(
        node_count=_env_int("REPRO_BENCH_NODES", 200),
        runs=_env_int("REPRO_BENCH_RUNS", 10),
        seeds=_env_seeds("REPRO_BENCH_SEEDS", (3, 11, 23)),
        measuring_nodes=_env_int("REPRO_BENCH_MEASURING_NODES", 3),
        workers=_env_int("REPRO_BENCH_WORKERS", min(4, os.cpu_count() or 1)),
    )


@pytest.fixture(scope="session")
def quick_config(bench_config: ExperimentConfig) -> ExperimentConfig:
    """A lighter configuration for the auxiliary (extension) benchmarks."""
    return bench_config.with_overrides(
        runs=max(3, bench_config.runs // 2),
        seeds=bench_config.seeds[:2],
    )
