"""Determinism tests for multi-process experiment execution.

The contract: every (protocol, seed) job derives all randomness from its own
master seed, jobs merge in submission order, and ``workers=1`` runs the exact
serial path — so any worker count produces identical results.  These tests
compare the per-seed campaign records (every Δt, rank, coverage, counter and
cluster summary, not just summary statistics) between the serial path and a
multi-process run.
"""

from __future__ import annotations

import math

import pytest

from repro.experiments.backends import resolve_workers
from repro.experiments.config import ExperimentConfig
from repro.experiments.doublespend import run_doublespend
from repro.experiments.runner import run_protocol_comparison

#: Small enough to keep the multi-process comparison in CI-friendly time
#: (below ~80 nodes a BCBPT measuring node can end up with no proximity
#: connections, so do not shrink further).
QUICK = ExperimentConfig(node_count=80, runs=2, seeds=(3, 11), measuring_nodes=2)


def test_resolve_workers():
    assert resolve_workers(1, 10) == 1
    assert resolve_workers(8, 3) == 3
    assert resolve_workers(0, 2) >= 1
    with pytest.raises(ValueError):
        resolve_workers(-1, 4)


def _assert_same_results(serial, parallel):
    assert set(serial) == set(parallel)
    for label in serial:
        a, b = serial[label], parallel[label]
        assert [cell.seed for cell in a.cells] == list(QUICK.seeds)
        assert a.cells == b.cells


class TestWorkerCountInvariance:
    def test_comparison_identical_for_1_and_4_workers(self):
        serial = run_protocol_comparison(("bitcoin", "bcbpt"), QUICK.with_overrides(workers=1))
        parallel = run_protocol_comparison(("bitcoin", "bcbpt"), QUICK.with_overrides(workers=4))
        _assert_same_results(serial, parallel)

    def test_doublespend_identical_for_1_and_4_workers(self):
        serial = run_doublespend(
            QUICK.with_overrides(workers=1), races_per_seed=2, race_horizon_s=1.0
        )
        parallel = run_doublespend(
            QUICK.with_overrides(workers=4), races_per_seed=2, race_horizon_s=1.0
        )
        assert len(serial) == len(parallel)
        for a, b in zip(serial, parallel):
            assert a.protocol == b.protocol
            assert a.races == b.races
            assert a.mean_attacker_share == b.mean_attacker_share
            assert a.detection_rate == b.detection_rate
            if math.isnan(a.mean_detection_time_s):
                assert math.isnan(b.mean_detection_time_s)
            else:
                assert a.mean_detection_time_s == b.mean_detection_time_s
