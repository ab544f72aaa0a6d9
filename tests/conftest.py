"""Shared pytest fixtures.

Keeps ``src/`` importable even when the package has not been installed (the
offline environment lacks ``wheel``, so ``pip install -e .`` may be
unavailable; ``python setup.py develop`` is the supported fallback).
"""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np
import pytest

_SRC = Path(__file__).resolve().parent.parent / "src"
if str(_SRC) not in sys.path:  # pragma: no cover - trivial path bookkeeping
    sys.path.insert(0, str(_SRC))

from repro.net.geo import GeoModel, GeoPosition  # noqa: E402
from repro.net.latency import LatencyModel, LatencyParameters  # noqa: E402
from repro.sim.engine import Simulator  # noqa: E402
from repro.workloads.network_gen import NetworkParameters, build_network  # noqa: E402
from repro.workloads.scenarios import build_scenario  # noqa: E402


@pytest.fixture
def simulator() -> Simulator:
    """A fresh deterministic simulator."""
    return Simulator(seed=42)


@pytest.fixture
def rng() -> np.random.Generator:
    """A deterministic numpy generator for direct model tests."""
    return np.random.default_rng(1234)


@pytest.fixture
def geo_model(rng: np.random.Generator) -> GeoModel:
    """A geographic model with the default world regions."""
    return GeoModel(rng)


@pytest.fixture
def latency_model(rng: np.random.Generator) -> LatencyModel:
    """A latency model with default parameters."""
    return LatencyModel(rng, LatencyParameters())


@pytest.fixture
def positions(geo_model: GeoModel) -> list[GeoPosition]:
    """A handful of node positions."""
    return geo_model.sample_positions(10)


@pytest.fixture
def small_network():
    """A small built network (30 nodes) with no overlay yet."""
    return build_network(NetworkParameters(node_count=30, seed=7))


@pytest.fixture
def small_bitcoin_scenario():
    """A 40-node network wired by the vanilla Bitcoin policy."""
    return build_scenario("bitcoin", NetworkParameters(node_count=40, seed=5))


@pytest.fixture
def small_bcbpt_scenario():
    """A 40-node network wired by BCBPT at the paper's 25 ms threshold."""
    return build_scenario(
        "bcbpt", NetworkParameters(node_count=40, seed=5), latency_threshold_s=0.025
    )


@pytest.fixture
def small_lbc_scenario():
    """A 40-node network wired by the LBC geographic policy."""
    return build_scenario("lbc", NetworkParameters(node_count=40, seed=5))


@pytest.fixture
def render_payload():
    """Render a driver's payload through the one renderer.

    The envelope is built from the experiment's own ``summarize`` and
    ``collect_samples`` hooks, as ``run_experiment`` builds it, with no
    provenance or verdicts; returns the markdown ``render_report`` prints.
    """
    from repro.analysis.report import render_report
    from repro.experiments.api import get_experiment
    from repro.experiments.results import ExperimentResult

    def render(name: str, payload) -> str:
        spec = get_experiment(name)
        samples = spec.collect_samples(payload) if spec.collect_samples else None
        result = ExperimentResult(
            experiment=name,
            experiment_id=spec.experiment_id,
            title=spec.title,
            created_at=0.0,
            config={},
            summaries=spec.summarize(payload),
            samples=samples.to_dict() if samples else {},
        )
        return render_report(result)

    return render
