"""Cross-commit goldens: one tiny envelope per registered experiment.

Apart from the fig3 sample digests and the overlay goldens, the other
envelope tests compare two runs of one commit.  These pin every
experiment's canonical envelope fingerprint
(:meth:`~repro.experiments.results.ExperimentResult.fingerprint`: wall clock
and worker count masked).  They were captured on commit 029bb60 and re-pinned
when envelope schema v3 stopped storing pre-rendered report sections and
added summary keys, and again (threshold_sweep, overhead, ablation,
churn_resilience, attacks) when every Δt experiment stored its
``long_link_fallbacks`` and attacks labelled its dynamic cells' samples
like their summaries.  A change to a driver's job spec, seed function or
pooled aggregate that moves any summary, verdict or raw sample therefore
fails here, at one worker and through the two-worker process pool.

Each run is also pinned by a result digest (:func:`result_digest`) that
covers results only, not how they are presented: a summary key added later
is listed in :data:`ADDED_SUMMARY_KEYS` and dropped before hashing, and a
sample-label prefix added later is listed in :data:`ADDED_SAMPLE_PREFIXES`
and stripped before hashing, so the values stored before them still match.

Scale summaries and samples carry wall times and RSS, so the scale golden
digests each cell's deterministic counters instead.

The values are exact: a platform whose numerics reproduce a different value
needs per-metric digests for that experiment, never an approximate
comparison.
"""

from __future__ import annotations

import hashlib
import json

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
    "fig3": "0bdd81c917a525c2ce978183f7b95961fb9b95022f19d8a8c76b7074d11da9e9",
    "fig4": "9f0ad0dabfebe5105d64361c96d85021347131935218c465af44deaf71babdf2",
    "threshold_sweep": "bf03684399a2f8f14b49e8aa811278147bc1769099f696e02239f0c083cbe33d",
    "overhead": "d86dd182e493fb4509a6e709ff930963b7ded5b28f3e6d5b6ac83caec833281a",
    "attacks": "bc22673711f711b23e1351e821684f22c7708a104a437bb22e5b22b0554b9a56",
    "doublespend": "e9cdfc312fcc7a03487b9fe06325a078eb8441bbac5400c77147a74986655987",
    "ablation": "5fe1a7f03e99b0474838e08ad8187518c5b6ceb51bce676fa2af25a3d7d205d5",
    "churn_resilience": "a8c363c45fc405c945652f85ad6597c0855a3dbc82590931b05f295da1a26009",
    "relay_comparison": "48379eaccc203c119ef5d089a45a4d1a8e10df49810d4158f707cad7fbb2b6f8",
    "load_frontier": "f8d78971ce892034de51495d92b7b1a149f6d367eae0319d348788bf48d567eb",
    "scale": "f859ed87cde63b138d1a83b9e45f2a0918bea8a1069284d95bf5754037d31e72",
    "validation": "c14abeec96066349eaef846694ec19e68cde2692e1865c6c87f28b62da3ea7ca",
}


#: name -> summary keys that were added to the envelope after
#: :data:`RESULT_DIGESTS` were captured.  :func:`result_digest` drops exactly
#: these keys before hashing, so every value the capture commit stored is
#: still pinned and nothing else may change.
ADDED_SUMMARY_KEYS: dict[str, tuple[str, ...]] = {
    "fig3": ("long_link_fallbacks", "cluster_count", "mean_cluster_size", "max_cluster_size"),
    "fig4": ("long_link_fallbacks", "cluster_count", "mean_cluster_size", "max_cluster_size"),
    "threshold_sweep": ("long_link_fallbacks",),
    "overhead": ("long_link_fallbacks",),
    "ablation": ("long_link_fallbacks",),
    "churn_resilience": (
        "timed_out_receptions",
        "orphans_reassigned",
        "representatives_replaced",
        "bridges_created",
        "failed_runs",
        "long_link_fallbacks",
    ),
    "relay_comparison": (
        "blocks_measured",
        "compact_blocks_reconstructed",
        "compact_txs_requested",
        "compact_fallbacks",
        "compact_txn_timeouts",
        "blocks_pushed",
        "headers_received",
    ),
}

#: name -> prefix that sample labels gained after :data:`RESULT_DIGESTS` were
#: captured: attacks labels its dynamic cells' samples like their summaries.
#: :func:`result_digest` strips it from every sample label before hashing.
ADDED_SAMPLE_PREFIXES: dict[str, str] = {"attacks": "dynamic/"}

#: The digests of :func:`result_digest`, captured on commit d3cad9f.  Unlike
#: :data:`GOLDEN_DIGESTS` they cover results only: experiment, config (minus
#: ``workers``), options, seeds, summaries, samples and verdicts.
RESULT_DIGESTS = {
    "fig3": "c43e9c6162a9c7c59c64e4904ff2e4c4737fd99b5060cfcd21b1bdcbbba32f3a",
    "fig4": "20488b39626a96aa9fed01b3c877b958a89384ed461f5f6fa53ecc5c016a50c4",
    "threshold_sweep": "5cfb1abc1ecfe4709a86cc2f0925ba3499cea66ae899bf4449d6fa89377254c2",
    "overhead": "9c4a9b890720b1f89a8b5b0c9af00db661741d7b53ff68e49eb81050da61ae6e",
    "attacks": "83a575d9fb6fad0ba1995c5f72a5c7f9b9054c9b5af47470983bd25c11d6c0e0",
    "doublespend": "5416918e7687b535d6d2195a871f60424036b945b07689f249843d48e823b4bf",
    "ablation": "a2d2abbade2de3268781bddaf2c32bf41be5ab55fe3385d7ba437503eedf1de7",
    "churn_resilience": "c538a8db7e3cd267926fe446ef2aa2858f21dc7d876f4b29791776655563b4e4",
    "relay_comparison": "be659628f02e23fbff080e9a93244a885b6c11aeea8ad662b4a4e0af5b0935d9",
    "load_frontier": "a14e437c8eb5dd65a2002fc78c4a7e552beed01f703a6b4666518470b0392775",
    "scale": "f859ed87cde63b138d1a83b9e45f2a0918bea8a1069284d95bf5754037d31e72",
    "validation": "3bfcfcc6cf9f2b9974b7f3c8a5ae019e522ec9da84276f0a94785658e74810da",
}


def golden_run(name: str, workers: int):
    """One experiment's golden run at ``workers`` workers."""
    config, options = CASES[name]
    return run_experiment(name, config.with_overrides(workers=workers), dict(options))


def _scale_cell_digest(result) -> str:
    cells = [
        (key, cell.events, cell.delay_samples, cell.state_prunes, cell.pruned_inventory_entries)
        for key, pooled in result.payload.items()
        for cell in pooled.cells
    ]
    return hashlib.sha256(repr(cells).encode()).hexdigest()


def golden_digest(result) -> str:
    """The full envelope fingerprint (scale: its cell counters)."""
    if result.experiment == "scale":
        return _scale_cell_digest(result)
    return result.fingerprint()


def result_digest(result) -> str:
    """sha256 over the canonical JSON of a run's results.

    Summary keys listed in :data:`ADDED_SUMMARY_KEYS` are removed first, and
    each of them must be present on at least one label.  A prefix listed in
    :data:`ADDED_SAMPLE_PREFIXES` is stripped from every sample label, and
    every sample label must carry it.
    """
    if result.experiment == "scale":
        return _scale_cell_digest(result)
    data = result.to_dict()
    added = set(ADDED_SUMMARY_KEYS.get(result.experiment, ()))
    summaries = data["summaries"]
    missing = {key for key in added if not any(key in m for m in summaries.values())}
    assert not missing, f"listed but never stored: {sorted(missing)}"
    samples = data["samples"]
    prefix = ADDED_SAMPLE_PREFIXES.get(result.experiment)
    if prefix is not None:
        entries = {kind: samples[kind] for kind in ("series", "timeseries")}
        labels = [entry["label"] for kind in entries.values() for entry in kind]
        assert labels and all(label.startswith(prefix) for label in labels)
        samples = {
            **samples,
            **{
                kind: [{**entry, "label": entry["label"][len(prefix) :]} for entry in kind_entries]
                for kind, kind_entries in entries.items()
            },
        }
    results = {
        "experiment": data["experiment"],
        "config": {k: v for k, v in data["config"].items() if k != "workers"},
        "options": data["options"],
        "seeds": data["seeds"],
        "summaries": {
            label: {k: v for k, v in metrics.items() if k not in added}
            for label, metrics in summaries.items()
        },
        "samples": samples,
        "verdicts": data["verdicts"],
    }
    return hashlib.sha256(json.dumps(results, indent=2, sort_keys=True).encode()).hexdigest()


def test_every_experiment_has_a_golden():
    assert (
        sorted(CASES)
        == sorted(GOLDEN_DIGESTS)
        == sorted(RESULT_DIGESTS)
        == sorted(experiment_names())
    )
    assert set(ADDED_SUMMARY_KEYS) <= set(CASES)
    assert set(ADDED_SAMPLE_PREFIXES) <= set(CASES)


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("name", sorted(CASES))
def test_envelope_matches_golden(name, workers):
    result = golden_run(name, workers)
    assert result_digest(result) == RESULT_DIGESTS[name]
    assert golden_digest(result) == GOLDEN_DIGESTS[name]
