"""Adversary-plane experiment tests: grid invariance, envelopes, goldens.

The satellites of the adversary-plane PR, in one place:

* **Worker-count invariance** of the dynamic (attack × protocol × seed)
  grid, here on the *eclipse* and *selfish* cells — the churn-composed and
  block-withholding code paths.  The plain byzantine cell's invariance is
  pinned by ``test_api_registry.TestNewlyParallelJobs``.
* **Envelope round trip** — an attacks run survives
  ``ExperimentResult.from_json(result.to_json())`` untouched, which requires
  that no NaN ever reaches the summaries (unmeasured quantities are simply
  omitted).
* **The surface pin** — the ``eclipse/<protocol>`` and
  ``partition/<protocol>`` summaries of all three protocols hold one digest
  at one and two workers.
* **Deterministic victim selection** — ``_pick_victim`` is a pure function
  of the built topology, so eclipse cells aim at the same node on every
  rebuild of the same seed.
* **The named-stream contract** — with no adversary installed the fig3
  protocol comparison still reproduces the pre-adversary golden sample
  digests byte-for-byte: the behaviour filter in
  ``P2PNetwork._fanout`` takes zero extra RNG draws when the
  behaviour table is empty.
"""

from __future__ import annotations

import hashlib
import json
import math

import pytest

from repro.experiments.api import run_experiment
from repro.experiments.attacks import (
    _pick_victim,
    coverage_loss,
    degradation_ratio,
)
from repro.experiments.config import ExperimentConfig
from repro.experiments.results import ExperimentResult
from repro.experiments.runner import run_protocol_comparison
from repro.workloads.network_gen import NetworkParameters
from repro.workloads.scenarios import build_scenario
from tests.experiments.test_relay_experiment import (
    GOLDEN_CONFIG,
    GOLDEN_FIG3_DIGESTS,
)

CFG = ExperimentConfig(
    node_count=40, runs=1, seeds=(5, 11), measuring_nodes=1, run_timeout_s=30.0
)

#: The composed cells: eclipse rides on churn, selfish wires the withholding
#: miner — together they cover every adversary code path the plain byzantine
#: cell does not.
OPTIONS = {
    "attacks": ("eclipse", "selfish"),
    "protocols": ("bitcoin", "bcbpt"),
    "attack_blocks": 1,
    "attack_txs": 2,
}


@pytest.fixture(scope="module")
def attacks_result():
    """One serial attacks run shared by the whole module."""
    return run_experiment("attacks", CFG.with_overrides(workers=1), dict(OPTIONS))


class TestDynamicGrid:
    def test_grid_covers_requested_cells(self, attacks_result):
        dynamic = attacks_result.payload.dynamic
        assert set(dynamic) == {
            f"{attack}/{protocol}"
            for attack in ("none", "eclipse", "selfish")
            for protocol in ("bitcoin", "bcbpt")
        }
        for key, cell in dynamic.items():
            assert cell.label == key
            assert cell.blocks_measured() >= 0
            assert [seed_cell.seed for seed_cell in cell.cells] == list(CFG.seeds)

    def test_worker_invariance_of_composed_cells(self, attacks_result):
        """Two pool workers must merge to the exact serial payload —
        including the churn-composed eclipse cells and the selfish miner's
        Optional revenue shares (None, never NaN, for unmeasured seeds)."""
        parallel = run_experiment(
            "attacks", CFG.with_overrides(workers=2), dict(OPTIONS)
        )
        assert parallel.payload == attacks_result.payload

    def test_baseline_cells_are_honest(self, attacks_result):
        dynamic = attacks_result.payload.dynamic
        for protocol in ("bitcoin", "bcbpt"):
            baseline = dynamic[f"none/{protocol}"]
            assert baseline.total("messages_suppressed") == 0
            assert baseline.total("blocks_withheld") == 0
            assert all(not seed_cell.byzantine_nodes for seed_cell in baseline.cells)

    def test_eclipse_cells_compose_churn_and_selective_relay(self, attacks_result):
        dynamic = attacks_result.payload.dynamic
        for protocol in ("bitcoin", "bcbpt"):
            cell = dynamic[f"eclipse/{protocol}"]
            assert all(seed_cell.byzantine_nodes for seed_cell in cell.cells)
            assert cell.cells, "the victim's view must be measured"
            assert all(
                0.0 <= seed_cell.blocks.observer_coverage <= 1.0 for seed_cell in cell.cells
            )
            assert not math.isnan(coverage_loss(dynamic, "eclipse", protocol))

    def test_selfish_cells_track_revenue_against_hashpower(self, attacks_result):
        dynamic = attacks_result.payload.dynamic
        for protocol in ("bitcoin", "bcbpt"):
            cell = dynamic[f"selfish/{protocol}"]
            assert cell.attacker_hashpower == pytest.approx(0.35)
            assert len(cell.cells) == len(CFG.seeds)
            for share in (seed_cell.revenue_share for seed_cell in cell.cells):
                # None marks a seed whose chain held no mined blocks; a
                # measured share is a real fraction — never NaN, which would
                # break payload equality across the process pool.
                assert share is None or 0.0 <= share <= 1.0
            # The selfish bookkeeping is wired even when the attacker never
            # wins a block at this tiny scale.
            assert cell.total("blocks_withheld") >= cell.total("blocks_released") >= 0

    def test_degradation_is_measured_against_own_baseline(self, attacks_result):
        dynamic = attacks_result.payload.dynamic
        for protocol in ("bitcoin", "bcbpt"):
            ratio = degradation_ratio(dynamic, "eclipse", protocol)
            if not math.isnan(ratio):
                assert ratio > 0.0
        # An attack kind that never ran yields NaN, not a KeyError.
        assert math.isnan(degradation_ratio(dynamic, "delay", "bitcoin"))


class TestEnvelope:
    def test_round_trip_is_lossless(self, attacks_result):
        clone = ExperimentResult.from_json(attacks_result.to_json())
        assert clone.to_dict() == attacks_result.to_dict()

    def test_summaries_never_carry_nan(self, attacks_result):
        """NaN survives Python's json encoder but poisons envelope equality;
        unmeasured quantities must be omitted from summaries instead."""

        def walk(value):
            if isinstance(value, float):
                assert not math.isnan(value)
            elif isinstance(value, dict):
                for item in value.values():
                    walk(item)
            elif isinstance(value, (list, tuple)):
                for item in value:
                    walk(item)

        walk(attacks_result.summaries)

    def test_verdicts_are_booleans(self, attacks_result):
        for name in (
            "clustering_contains_byzantine_degradation",
            "representative_capture_widens_surface",
            "clustering_widens_eclipse_surface",
            "delay_injection_degrades_propagation",
            "selfish_mining_pays_somewhere",
        ):
            assert isinstance(attacks_result.verdicts[name], bool)

    def test_samples_carry_per_seed_block_delays(self, attacks_result):
        samples = attacks_result.samples
        labels = {entry["label"] for entry in samples["series"] + samples["timeseries"]}
        assert any(label.startswith("dynamic/none/") for label in labels)
        assert any(label.startswith("dynamic/eclipse/") for label in labels)
        # Every sample series belongs to the cell whose summary has its label
        # (the static eclipse surface's summary is ``eclipse/<protocol>``).
        assert labels <= set(attacks_result.summaries)


#: The eclipse-exposure and partition-cost summaries of every protocol at 40
#: nodes, seeds 3 and 11, with the eclipse campaign next to the baseline.
SURFACE_CONFIG = ExperimentConfig(
    node_count=40, runs=1, seeds=(3, 11), measuring_nodes=1, run_timeout_s=30.0
)
SURFACE_OPTIONS = {"attacks": ("eclipse",), "attack_blocks": 1}

#: sha256 of those summaries' canonical JSON, captured on commit dcef39b,
#: where separate topology-only jobs produced them.
SURFACE_DIGEST = "edc497b851eef3a4fb367a6f10a5122042f8ba3441595203b840583bfb8fa42e"


@pytest.mark.parametrize("workers", [1, 2])
def test_eclipse_and_partition_surfaces_match_their_pin(workers):
    result = run_experiment(
        "attacks", SURFACE_CONFIG.with_overrides(workers=workers), dict(SURFACE_OPTIONS)
    )
    surfaces = {
        label: summary
        for label, summary in result.summaries.items()
        if label.split("/")[0] in ("eclipse", "partition")
    }
    assert sorted(surfaces) == sorted(
        f"{surface}/{protocol}"
        for surface in ("eclipse", "partition")
        for protocol in ("bitcoin", "lbc", "bcbpt")
    )
    encoded = json.dumps(surfaces, sort_keys=True).encode()
    assert hashlib.sha256(encoded).hexdigest() == SURFACE_DIGEST


class TestVictimSelection:
    def _scenario(self, seed=5):
        return build_scenario(
            "bcbpt",
            NetworkParameters(node_count=40, seed=seed),
            latency_threshold_s=0.05,
        )

    def test_pick_victim_is_deterministic_across_rebuilds(self):
        first = _pick_victim(self._scenario())
        second = _pick_victim(self._scenario())
        assert first == second

    def test_pick_victim_targets_the_most_common_region(self):
        scenario = self._scenario()
        simulated = scenario.network
        victim = _pick_victim(scenario)
        by_region: dict[str, list[int]] = {}
        for node_id in simulated.node_ids():
            region = simulated.node(node_id).position.region
            by_region.setdefault(region, []).append(node_id)
        victim_region = simulated.node(victim).position.region
        assert len(by_region[victim_region]) == max(len(v) for v in by_region.values())
        assert victim == min(by_region[victim_region])


def _digest(samples) -> str:
    return hashlib.sha256(",".join(repr(s) for s in samples).encode()).hexdigest()


class TestAdversaryOffGoldens:
    """Regression for the adversary plane's zero-cost-when-off guarantee."""

    def test_fig3_golden_digests_survive_the_adversary_plane(self):
        """With no behaviour installed, the filter hook in
        ``_fanout`` must take zero extra draws and zero scheduling
        decisions: the pre-adversary fig3 sample digests reproduce
        byte-for-byte.  (Same goldens as test_relay_experiment — asserted
        here again so a regression in the adversary plumbing points at this
        PR, not at the relay strategies.)"""
        results = run_protocol_comparison(
            ("bitcoin", "lbc", "bcbpt"), GOLDEN_CONFIG
        )
        for name, expected in GOLDEN_FIG3_DIGESTS.items():
            assert _digest(results[name].delays.samples) == expected, (
                f"{name}: adversary-off run diverged from the golden fingerprint"
            )
