"""Tests for the declarative experiment registry and dispatch path."""

import dataclasses

import pytest

from repro.experiments.api import (
    DRIVER_MODULES,
    ExperimentOption,
    ExperimentSpec,
    experiment_names,
    get_experiment,
    register,
    resolve_options,
    run_experiment,
    validate_protocol_labels,
)
from repro.experiments.config import ExperimentConfig
from repro.experiments.fig3 import FIG3_PROTOCOLS
from repro.experiments.runner import run_protocol_comparison, summarize_propagation

#: Every experiment the paper/extension index defines, in display order.
EXPECTED_NAMES = [
    "fig3",
    "fig4",
    "threshold_sweep",
    "overhead",
    "attacks",
    "doublespend",
    "ablation",
    "churn_resilience",
    "relay_comparison",
    "load_frontier",
    "scale",
    "validation",
]

SMALL = ExperimentConfig(
    node_count=40, runs=2, seeds=(5,), measuring_nodes=2, run_timeout_s=30.0
)


class TestRegistry:
    def test_all_experiments_registered(self):
        assert experiment_names() == EXPECTED_NAMES
        assert len(EXPECTED_NAMES) == len(DRIVER_MODULES)

    def test_list_and_describe_agree_with_specs(self):
        """The round-trip the CLI exposes: every listed name resolves to a
        spec whose describe() carries its own name, id and title."""
        for name in experiment_names():
            spec = get_experiment(name)
            assert spec.name == name
            text = spec.describe()
            assert name in text
            assert spec.experiment_id in text
            assert spec.title in text
            for option in spec.options:
                assert option.flag in text

    def test_spec_attached_to_run_function(self):
        from repro.experiments.fig3 import run_fig3

        assert run_fig3.spec is get_experiment("fig3")

    def test_unknown_experiment_rejected_with_known_names(self):
        with pytest.raises(KeyError, match="fig3"):
            get_experiment("fig5")

    def test_duplicate_registration_from_other_source_rejected(self):
        spec = get_experiment("fig3")
        def imposter(config=None):  # a different implementation, same name
            return None
        with pytest.raises(ValueError, match="already registered"):
            register(dataclasses.replace(spec, run=imposter))
        # The original spec must be untouched by the failed attempt.
        assert get_experiment("fig3") is spec


class TestOptionResolution:
    SPEC = ExperimentSpec(
        name="_opts",
        experiment_id="T-1",
        title="option resolution fixture",
        description="",
        run=lambda config, **kwargs: kwargs,
        options=(
            ExperimentOption(flag="--count", dest="count", type=int, default=3),
            ExperimentOption(
                flag="--ms",
                dest="ms",
                type=float,
                convert=lambda v: v / 1000.0,
                kwarg="seconds",
            ),
            ExperimentOption(
                flag="--threshold-override",
                dest="threshold_override",
                type=float,
                config_field="latency_threshold_s",
            ),
        ),
    )

    def test_defaults_and_conversion(self):
        config, kwargs = resolve_options(self.SPEC, SMALL, {"ms": 50.0})
        assert config is SMALL
        assert kwargs == {"count": 3, "seconds": 0.05}

    def test_config_field_folds_into_config(self):
        config, kwargs = resolve_options(self.SPEC, SMALL, {"threshold_override": 0.04})
        assert config.latency_threshold_s == pytest.approx(0.04)
        assert "threshold_override" not in kwargs

    def test_unknown_option_rejected(self):
        with pytest.raises(ValueError, match="unknown option"):
            resolve_options(self.SPEC, SMALL, {"bogus": 1})


class TestDispatchValidation:
    def test_protocol_labels_validated_in_dispatch(self):
        """The registry checkpoint: a typo'd protocol fails before any
        simulation starts, for every experiment that accepts protocol labels."""
        for name in ("overhead", "attacks", "doublespend", "churn_resilience"):
            with pytest.raises(ValueError, match="unknown policy"):
                run_experiment(name, SMALL, {"protocols": ("bitcion",)})

    def test_threshold_suffix_labels_accepted(self):
        validate_protocol_labels(["bcbpt@50ms", "bitcoin"])
        with pytest.raises(ValueError, match="unknown policy"):
            validate_protocol_labels(["bcbpt@50ms", "bitcond"])


class TestEnvelope:
    def test_envelope_carries_config_seeds_and_payload(self):
        result = run_experiment("validation", SMALL, {"crawler_samples": 500})
        assert result.experiment == "validation"
        assert result.experiment_id == "Val-1"
        assert result.seeds == [5]
        assert result.config["node_count"] == 40
        assert result.options == {"crawler_samples": 500}
        assert result.payload.all_ok == result.verdicts["all_ok"]
        # The envelope must survive a JSON round trip untouched.
        from repro.experiments.results import ExperimentResult

        clone = ExperimentResult.from_json(result.to_json())
        assert clone.to_dict() == result.to_dict()


class TestFig3Equivalence:
    """Acceptance criterion: the ported fig3 path produces byte-identical
    aggregates to the pre-redesign ``run_protocol_comparison`` for every
    worker count."""

    @pytest.fixture(scope="class")
    def reference(self):
        return run_protocol_comparison(FIG3_PROTOCOLS, SMALL)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_ported_fig3_matches_direct_comparison(self, reference, workers):
        config = SMALL.with_overrides(workers=workers)
        ported = run_experiment("fig3", config).payload
        assert set(ported) == set(reference)
        for protocol in reference:
            old, new = reference[protocol], ported[protocol]
            assert new.delays.samples == old.delays.samples
            assert set(new.per_seed) == set(old.per_seed)
            for seed in old.per_seed:
                assert new.per_seed[seed].samples == old.per_seed[seed].samples
            assert set(new.per_rank) == set(old.per_rank)
            for rank in old.per_rank:
                assert new.per_rank[rank].samples == old.per_rank[rank].samples
            assert new.cluster_summaries == old.cluster_summaries

    @pytest.mark.parametrize("workers", [1, 2])
    def test_envelope_summaries_worker_invariant(self, reference, workers):
        config = SMALL.with_overrides(workers=workers)
        result = run_experiment("fig3", config)
        assert result.summaries == summarize_propagation(reference)
        for protocol in reference:
            stored = result.summaries[protocol]
            assert {key: stored[key] for key in reference[protocol].summary()} == (
                reference[protocol].summary()
            )


class TestNewlyParallelJobs:
    """overhead and attacks moved from serial loops onto the seed grid; their
    results must be identical for every worker count (frozen dataclasses, so
    equality is field-by-field)."""

    CFG = ExperimentConfig(
        node_count=40, runs=1, seeds=(5, 11), measuring_nodes=1, run_timeout_s=30.0
    )

    def test_overhead_worker_invariant(self):
        serial = run_experiment("overhead", self.CFG.with_overrides(workers=1)).payload
        parallel = run_experiment("overhead", self.CFG.with_overrides(workers=2)).payload
        assert serial == parallel

    #: Small dynamic-adversary sweep: enough cells to exercise the attack
    #: grid without running the full five-attack default in a unit test.
    ATTACK_OPTIONS = {
        "attacks": ("byzantine",),
        "protocols": ("bitcoin", "bcbpt"),
        "attack_blocks": 1,
        "attack_txs": 2,
    }

    def test_attacks_worker_invariant(self):
        serial = run_experiment(
            "attacks", self.CFG.with_overrides(workers=1), dict(self.ATTACK_OPTIONS)
        ).payload
        parallel = run_experiment(
            "attacks", self.CFG.with_overrides(workers=2), dict(self.ATTACK_OPTIONS)
        ).payload
        assert serial == parallel
