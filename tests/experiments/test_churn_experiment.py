"""Churn-resilience experiment: determinism, worker invariance, validation.

Property-based coverage of the kernel's determinism contract under dynamic
membership: the same master seed must yield the *identical* event trace —
with and without churn — and the churn experiment's pooled aggregates must be
invariant to the worker count used to fan its jobs out.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.experiments.churn_resilience import (
    CHURN_LEVELS,
    resolve_levels,
    run_churn_resilience,
)
from repro.experiments.config import ExperimentConfig
from repro.workloads.generators import TransactionWorkload, WorkloadConfig, fund_nodes
from repro.workloads.network_gen import NetworkParameters
from repro.workloads.scenarios import ChurnSchedule, build_scenario

#: A short, hard-churning schedule for determinism runs.
FAST_CHURN = ChurnSchedule(
    median_session_s=8.0,
    sigma=0.8,
    stable_fraction=0.0,
    mean_downtime_s=3.0,
    discovery_interval_s=2.0,
    repair_interval_s=5.0,
)


def _trace_of(seed: int, *, churn: ChurnSchedule | None, horizon_s: float = 40.0):
    """Build, run and fingerprint one simulation's full event trace.

    A background payment workload generates real protocol traffic (INV,
    GETDATA, TX relay), so the fingerprint covers message scheduling and
    delivery, not just the churn bookkeeping.
    """
    scenario = build_scenario(
        "bcbpt",
        NetworkParameters(node_count=20, seed=seed, trace=True),
        latency_threshold_s=0.05,
        churn=churn,
    )
    simulated = scenario.network
    fund_nodes(list(simulated.nodes.values()), outputs_per_node=30)
    workload = TransactionWorkload(
        simulated.simulator,
        simulated.nodes,
        simulated.simulator.random.stream("trace-workload"),
        WorkloadConfig(transactions_per_second=1.0, sender_count=5),
    )
    workload.start()
    if churn is not None:
        scenario.start_churn()
    scenario.simulator.run(until=horizon_s)
    return [
        (record.time, record.category, record.subject, repr(record.detail))
        for record in scenario.simulator.tracer.records()
    ]


class TestKernelDeterminism:
    @given(seed=st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=5, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_same_seed_same_trace_without_churn(self, seed):
        assert _trace_of(seed, churn=None) == _trace_of(seed, churn=None)

    @given(seed=st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=5, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_same_seed_same_trace_with_churn(self, seed):
        first = _trace_of(seed, churn=FAST_CHURN)
        second = _trace_of(seed, churn=FAST_CHURN)
        assert first == second
        # The run produced real traffic — otherwise this test proves nothing.
        assert len(first) > 0

    def test_rebuilding_the_same_dynamic_scenario_is_deterministic(self):
        """Two independent builds of the same churn scenario agree on churn
        volume, not just on the message trace."""

        def run_once():
            scenario = build_scenario(
                "bcbpt",
                NetworkParameters(node_count=20, seed=77),
                latency_threshold_s=0.05,
                churn=FAST_CHURN,
            )
            scenario.start_churn()
            scenario.simulator.run(until=60.0)
            maintainer = scenario.maintainer
            return (
                maintainer.churn.leave_events,
                maintainer.churn.join_events,
                maintainer.repair_sweeps,
                maintainer.orphans_reassigned,
                maintainer.representatives_replaced,
                sorted(scenario.network.network.online_node_ids()),
            )

        first = run_once()
        assert first == run_once()
        assert first[0] > 0, "the schedule must actually churn"


def _tiny_config(seeds: tuple[int, ...], workers: int) -> ExperimentConfig:
    return ExperimentConfig(
        node_count=30,
        runs=1,
        seeds=seeds,
        measuring_nodes=1,
        run_timeout_s=15.0,
        workers=workers,
    )


def _fingerprint(results) -> dict:
    return {
        key: (
            tuple(result.delays.samples),
            tuple(sorted(cell.seed for cell in result.cells)),
            tuple(result.coverages),
            result.total("leave_events"),
            result.total("join_events"),
            result.total("repair_sweeps"),
            result.total("orphans_reassigned"),
            result.total("representatives_replaced"),
            result.total("bridges_created"),
            tuple(
                sorted((cell.seed, tuple(sorted(cell.cluster_after.items()))) for cell in result.cells)
            ),
        )
        for key, result in results.items()
    }


class TestWorkerInvariance:
    @given(seed_pair=st.tuples(st.integers(0, 500), st.integers(501, 1000)))
    @settings(max_examples=2, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_churn_experiment_is_worker_count_invariant(self, seed_pair):
        serial = run_churn_resilience(
            _tiny_config(seed_pair, workers=1),
            protocols=("bcbpt",),
            levels=("heavy",),
        )
        parallel = run_churn_resilience(
            _tiny_config(seed_pair, workers=2),
            protocols=("bcbpt",),
            levels=("heavy",),
        )
        assert _fingerprint(serial) == _fingerprint(parallel)

    def test_static_and_dynamic_levels_merge_across_protocols(self, render_payload):
        results = run_churn_resilience(
            _tiny_config((3,), workers=1),
            protocols=("bitcoin", "bcbpt"),
            levels=("static", "heavy"),
        )
        assert set(results) == {
            "bitcoin/static",
            "bitcoin/heavy",
            "bcbpt/static",
            "bcbpt/heavy",
        }
        for key, result in results.items():
            if result.level == "static":
                assert result.total("leave_events") == 0
                assert result.total("join_events") == 0
            assert len(result.delays) > 0
        rendered = render_payload("churn_resilience", results)
        assert "| bcbpt/heavy |" in rendered
        assert "`timed_out_receptions`" in rendered
        assert "`bridges_created`" in rendered


class TestValidation:
    def test_unknown_protocol_rejected_up_front(self):
        with pytest.raises(ValueError, match="unknown policy"):
            run_churn_resilience(_tiny_config((3,), workers=1), protocols=("bitcion",))

    def test_unknown_level_rejected(self):
        with pytest.raises(ValueError, match="unknown churn level"):
            run_churn_resilience(_tiny_config((3,), workers=1), levels=("hurricane",))

    def test_resolve_levels_accepts_overrides(self):
        custom = ChurnSchedule(median_session_s=10.0)
        resolved = resolve_levels(("static", "custom"), {"custom": custom})
        assert resolved == {"static": None, "custom": custom}

    def test_builtin_levels_are_well_formed(self):
        assert CHURN_LEVELS["static"] is None
        for name, schedule in CHURN_LEVELS.items():
            if schedule is not None:
                assert schedule.median_session_s > 0
                assert 0.0 <= schedule.stable_fraction <= 1.0
