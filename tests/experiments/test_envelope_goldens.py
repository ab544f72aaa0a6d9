"""Cross-commit goldens: one tiny envelope per registered experiment.

Apart from the fig3 sample digests and the overlay goldens, the other
envelope tests compare two runs of one commit.  These pin every
experiment's canonical envelope fingerprint
(:meth:`~repro.experiments.results.ExperimentResult.fingerprint`: wall clock
and worker count masked) to the value captured on commit 029bb60.  A change
to a driver's job spec, seed function or pooled aggregate that moves any
summary, verdict, report section or raw sample therefore fails here, at one
worker and through the two-worker process pool.

Scale summaries and samples carry wall times and RSS, so the scale golden
digests each cell's deterministic counters instead.

The values are exact: a platform whose numerics reproduce a different value
needs per-metric digests for that experiment, never an approximate
comparison.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.experiments.api import experiment_names, run_experiment
from repro.experiments.config import ExperimentConfig

#: Two seeds, so every pooled aggregate merges more than one record.
BASE = ExperimentConfig(
    node_count=40, runs=1, seeds=(3, 11), measuring_nodes=1, run_timeout_s=30.0
)

#: name -> (config, options) of each experiment's golden run.
CASES: dict[str, tuple[ExperimentConfig, dict]] = {
    "fig3": (BASE, {}),
    "fig4": (BASE, {}),
    "threshold_sweep": (BASE, {"thresholds_ms": (25.0, 50.0)}),
    "overhead": (BASE, {}),
    "attacks": (
        BASE,
        {
            "attacks": ("byzantine", "eclipse", "selfish"),
            "protocols": ("bitcoin", "bcbpt"),
            "attack_blocks": 1,
            "attack_txs": 2,
        },
    ),
    "doublespend": (BASE, {"races_per_seed": 2, "race_horizon_s": 1.0}),
    "ablation": (BASE, {}),
    "churn_resilience": (
        BASE,
        {"protocols": ("bitcoin", "bcbpt"), "levels": ("static", "heavy")},
    ),
    "relay_comparison": (
        BASE,
        {"protocols": ("bitcoin", "bcbpt"), "blocks": 1, "txs_per_block": 2},
    ),
    "load_frontier": (
        BASE.with_overrides(node_count=12),
        {
            "rates": (1.0, 4.0),
            "horizon_s": 60.0,
            "block_interval_s": 4.0,
            "confirmation_depth": 2,
            "funding_outputs": 4,
        },
    ),
    "scale": (
        BASE,
        {
            "node_counts": (20, 40),
            "protocols": ("bitcoin", "bcbpt"),
            "cell_runs": 1,
            "profile_memory": 0,
        },
    ),
    "validation": (BASE, {"crawler_samples": 500}),
}

GOLDEN_DIGESTS = {
    "fig3": "e93ec63af5a9957eb569615995604e2419f91256f102a32b39bfe53def3f2b14",
    "fig4": "01adda60d8f887312680adbc20d5f3b9b6484f24f1e2d89f887b654164828146",
    "threshold_sweep": "9c7e6c9902a73fa61d9d49455d9b91612139680f91500c7b82992370618805b8",
    "overhead": "0fd278fa769d046a68834aaebed55393ef48922b39e4f9a2771ecb54b1faf703",
    "attacks": "b7ab5a144fd364589b1b4379a6955c77a68eac62b015bac4777f964d6c0252f0",
    "doublespend": "7e27e64c4301536cfe764e7051ccf3f2526a34cb10cf399253a1c090ac3e578f",
    "ablation": "ebac927c43720c97ed32774561d12a23f4714b50955837ad481a73b862d7bf81",
    "churn_resilience": "2257c9364c90b1a7f0ffafd6f1c0ffb30d2aa98f5bf56dff1d2c99a73f502016",
    "relay_comparison": "f1411feb3067503733a3862794ebc182833b1b8905ee64428d9ee78eab0fdaef",
    "load_frontier": "63977153cedce1d8ef0515f1aec63109d5cdb2035ec9f1996f71226c1d947ee8",
    "scale": "f859ed87cde63b138d1a83b9e45f2a0918bea8a1069284d95bf5754037d31e72",
    "validation": "e9a49189bfdeecd2f74c669d103b1de2fa6fefd912f85ff86a04bb5a961ca8b8",
}


def golden_digest(name: str, workers: int) -> str:
    """The digest of one experiment's golden run at ``workers`` workers."""
    config, options = CASES[name]
    result = run_experiment(name, config.with_overrides(workers=workers), dict(options))
    if name != "scale":
        return result.fingerprint()
    cells = [
        (key, cell.events, cell.delay_samples, cell.state_prunes, cell.pruned_inventory_entries)
        for key, pooled in result.payload.items()
        for cell in pooled.cells
    ]
    return hashlib.sha256(repr(cells).encode()).hexdigest()


def test_every_experiment_has_a_golden():
    assert sorted(CASES) == sorted(GOLDEN_DIGESTS) == sorted(experiment_names())


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("name", sorted(CASES))
def test_envelope_matches_golden(name, workers):
    assert golden_digest(name, workers) == GOLDEN_DIGESTS[name]
