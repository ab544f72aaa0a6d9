"""Tests for the raw-sample capture layer (`repro.analysis.samples`).

Covers the SampleLog structure and its JSON transport (NaN-safe), the
envelope round-trip including the legacy sample-less path, worker-count
invariance of the persisted samples, and the shared block-arrival recorder.
"""

from __future__ import annotations

import json
import math

import pytest

from repro.analysis.samples import (
    SAMPLES_SCHEMA_VERSION,
    BlockArrivalRecorder,
    SampleLog,
)
from repro.experiments.api import run_experiment
from repro.experiments.config import ExperimentConfig
from repro.experiments.results import RESULT_SCHEMA_VERSION, ExperimentResult

TINY = dict(node_count=20, runs=1, seeds=(3,), measuring_nodes=1)


def make_log() -> SampleLog:
    log = SampleLog()
    log.extend("bcbpt", "delay_s", [0.01, 0.02, float("nan")], seed=3, unit="s")
    log.extend("bcbpt", "delay_s", [0.03], seed=11, unit="s")
    log.extend("bitcoin", "delay_s", [0.2, 0.4], seed=3, unit="s")
    log.add_point("bcbpt", "rank_variance_s2", 1.0, 2e-5, unit="s^2")
    log.add_point("bcbpt", "rank_variance_s2", 2.0, 3e-5, unit="s^2")
    return log


class TestSampleLog:
    def test_access_helpers(self):
        log = make_log()
        assert log.labels() == ["bcbpt", "bitcoin"]
        assert log.metrics() == ["delay_s"]
        assert log.values("bcbpt", "delay_s")[:2] == [0.01, 0.02]
        assert len(log.values("bcbpt", "delay_s")) == 4  # pooled across seeds
        assert set(log.per_seed("bcbpt", "delay_s")) == {3, 11}
        assert log.points("bcbpt", "rank_variance_s2") == [(1.0, 2e-5), (2.0, 3e-5)]
        assert log.sample_count() == 6
        assert bool(log) and len(log) == 4  # 3 series + 1 time series

    def test_add_per_seed_preserves_order(self):
        log = SampleLog()
        log.add_per_seed("x", "delay_s", {11: [1.0], 3: [2.0]}, unit="s")
        assert [series.seed for series in log.series()] == [11, 3]
        assert log.values("x", "delay_s") == [1.0, 2.0]

    def test_json_round_trip_preserves_nan(self):
        log = make_log()
        data = json.loads(json.dumps(log.to_dict()))
        clone = SampleLog.from_dict(data)
        original = log.values("bcbpt", "delay_s")
        restored = clone.values("bcbpt", "delay_s")
        assert len(original) == len(restored)
        for old, new in zip(original, restored):
            assert old == new or (math.isnan(old) and math.isnan(new))
        assert clone.points("bcbpt", "rank_variance_s2") == log.points(
            "bcbpt", "rank_variance_s2"
        )
        assert data["schema_version"] == SAMPLES_SCHEMA_VERSION

    def test_from_dict_accepts_empty_and_none(self):
        assert not SampleLog.from_dict(None)
        assert not SampleLog.from_dict({})

    def test_from_dict_rejects_newer_schema(self):
        with pytest.raises(ValueError, match="newer"):
            SampleLog.from_dict({"schema_version": SAMPLES_SCHEMA_VERSION + 1})

    def test_merge_concatenates_same_key_series(self):
        a = SampleLog()
        a.extend("x", "delay_s", [1.0], seed=3)
        b = SampleLog()
        b.extend("x", "delay_s", [2.0], seed=3)
        b.add_point("x", "coverage", 0.0, 1.0)
        merged = a.merge(b)
        assert merged.values("x", "delay_s") == [1.0, 2.0]
        assert merged.points("x", "coverage") == [(0.0, 1.0)]
        # inputs untouched
        assert a.values("x", "delay_s") == [1.0]


class TestEnvelopeRoundTrip:
    def test_samples_survive_serialize_load_diff(self):
        result = run_experiment("fig3", ExperimentConfig(**TINY))
        assert result.samples["series"], "fig3 must persist raw series"
        clone = ExperimentResult.from_json(result.to_json())
        assert clone.samples == json.loads(json.dumps(result.samples))
        # Raw samples are not diffed; identical runs stay identical.
        assert result.diff(clone).identical

    def test_legacy_v1_envelope_without_samples_loads(self):
        result = run_experiment("fig3", ExperimentConfig(**TINY))
        data = result.to_dict()
        del data["samples"]
        data["schema_version"] = 1
        legacy = ExperimentResult.from_dict(data)
        assert legacy.samples == {}
        assert legacy.summaries == result.summaries
        assert legacy.verdicts == result.verdicts

    def test_schema_version_bumped_for_samples(self):
        assert RESULT_SCHEMA_VERSION >= 2


class TestWorkerInvariance:
    @pytest.mark.parametrize("experiment", ["fig3", "relay_comparison"])
    def test_samples_identical_for_workers_1_and_2(self, experiment):
        """The envelope's samples field — series order, seeds and every raw
        value — must not depend on the worker count."""
        options = {}
        config = dict(TINY, seeds=(3, 11))
        if experiment == "relay_comparison":
            options = {
                "relays": ("flood",),
                "protocols": ("bitcoin",),
                "blocks": 1,
                "txs_per_block": 2,
            }
        serial = run_experiment(
            experiment, ExperimentConfig(**config, workers=1), options
        )
        parallel = run_experiment(
            experiment, ExperimentConfig(**config, workers=2), options
        )
        assert serial.samples == parallel.samples
        assert serial.samples["series"], "expected raw series to be persisted"


class TestBlockArrivalRecorder:
    class _StubNode:
        def __init__(self):
            self.block_listeners = []

    class _StubBlock:
        def __init__(self, block_hash):
            self.block_hash = block_hash

    def test_records_and_excludes(self):
        nodes = [self._StubNode() for _ in range(3)]
        recorder = BlockArrivalRecorder()
        recorder.attach(nodes)
        assert all(node.block_listeners == [recorder.observe] for node in nodes)
        block = self._StubBlock("abc")
        recorder.observe(0, block, 10.0)
        recorder.observe(2, block, 11.5)
        recorder.observe(1, block, 12.0)
        assert recorder.receivers("abc") == {0: 10.0, 2: 11.5, 1: 12.0}
        assert recorder.delays("abc", 10.0, exclude=(0,)) == [1.5, 2.0]
        assert recorder.delays("missing", 0.0) == []
