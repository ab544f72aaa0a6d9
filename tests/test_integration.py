"""End-to-end integration tests crossing all layers.

These exercise the full pipeline (network construction -> clustering policy ->
funding -> measuring-node campaign -> statistics) at a moderate scale and
check the *qualitative* claims of the paper; the full-size reproduction runs
in ``benchmarks/``.
"""

import pytest

from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import INTER_RUN_GAP_S, run_protocol_comparison
from repro.measurement.measuring_node import MeasuringNode
from repro.net.churn import SessionLengthModel, SessionParameters
from repro.core.maintenance import ChurnMaintainer
from repro.workloads.generators import fund_nodes
from repro.workloads.network_gen import NetworkParameters
from repro.workloads.scenarios import build_scenario


CONFIG = ExperimentConfig(
    node_count=120, runs=6, seeds=(3,), measuring_nodes=3, run_timeout_s=30.0
)


@pytest.fixture(scope="module")
def comparison_results():
    """One moderate-scale three-way comparison shared by the ordering tests."""
    return run_protocol_comparison(("bitcoin", "lbc", "bcbpt"), CONFIG)


class TestPaperClaims:
    def test_bcbpt_beats_bitcoin_in_mean_delay(self, comparison_results):
        bcbpt = comparison_results["bcbpt"].summary()
        bitcoin = comparison_results["bitcoin"].summary()
        assert bcbpt["mean_s"] < bitcoin["mean_s"]

    def test_bcbpt_beats_bitcoin_in_variance(self, comparison_results):
        bcbpt = comparison_results["bcbpt"].summary()
        bitcoin = comparison_results["bitcoin"].summary()
        assert bcbpt["variance_s2"] < bitcoin["variance_s2"]

    def test_lbc_sits_between_bitcoin_and_bcbpt(self, comparison_results):
        """Both clustering protocols clearly beat Bitcoin; BCBPT is at least as
        good as LBC in mean (statistically tied at this reduced scale) and
        strictly better in variance.  The strict three-way mean ordering is
        asserted at full benchmark scale in ``benchmarks/test_bench_fig3.py``."""
        means = {name: r.summary()["mean_s"] for name, r in comparison_results.items()}
        variances = {name: r.summary()["variance_s2"] for name, r in comparison_results.items()}
        assert means["lbc"] < means["bitcoin"]
        assert means["bcbpt"] <= means["lbc"] * 1.1
        assert variances["bcbpt"] < variances["lbc"] < variances["bitcoin"]

    def test_bitcoin_variance_grows_with_connection_rank(self, comparison_results):
        """The paper: Bitcoin's delay variance grows with the number of
        connected nodes, BCBPT's stays comparatively flat."""
        bitcoin_curve = dict(comparison_results["bitcoin"].rank_variance_curve())
        bcbpt_curve = dict(comparison_results["bcbpt"].rank_variance_curve())
        shared_ranks = sorted(set(bitcoin_curve) & set(bcbpt_curve))
        assert len(shared_ranks) >= 4
        late = shared_ranks[len(shared_ranks) // 2 :]
        early = shared_ranks[: len(shared_ranks) // 2]
        bitcoin_growth = (
            sum(bitcoin_curve[r] for r in late) / len(late)
            - sum(bitcoin_curve[r] for r in early) / len(early)
        )
        # Bitcoin's variance rises appreciably from early to late ranks, and at
        # every shared rank BCBPT stays well below Bitcoin.
        assert bitcoin_growth > 0
        assert all(bcbpt_curve[r] < bitcoin_curve[r] for r in shared_ranks)

    def test_full_coverage_reached(self, comparison_results):
        for result in comparison_results.values():
            for cell in result.cells:
                # One coverage per run, measuring node after measuring node.
                assert len(cell.coverages) == CONFIG.measuring_nodes * CONFIG.runs
                for start in range(0, len(cell.coverages), CONFIG.runs):
                    per_node = cell.coverages[start : start + CONFIG.runs]
                    assert sum(per_node) / len(per_node) > 0.95


class TestEndToEndUnderChurn:
    def test_measurement_still_works_with_churn(self):
        scenario = build_scenario(
            "bcbpt", NetworkParameters(node_count=60, seed=19), latency_threshold_s=0.025
        )
        simulated = scenario.network
        fund_nodes(list(simulated.nodes.values()), outputs_per_node=6)
        maintainer = ChurnMaintainer(
            simulated.simulator,
            simulated.network,
            scenario.policy,
            simulated.seed_service,
            SessionLengthModel(
                simulated.simulator.random.stream("sessions"),
                SessionParameters(
                    median_session_s=120.0, sigma=0.8, stable_fraction=0.3, mean_downtime_s=30.0
                ),
            ),
            discovery_interval_s=10.0,
        )
        maintainer.start()
        # Pick a stable measuring node so it does not churn away mid-campaign.
        measuring_id = next(
            node_id
            for node_id in simulated.node_ids()
            if maintainer.churn._sessions.is_stable(node_id)
        )
        measuring = MeasuringNode(
            simulated.node(measuring_id),
            simulated.simulator.random.stream("measure"),
            exclude_long_links=True,
            run_timeout_s=30.0,
        )
        simulator = simulated.simulator
        runs = []
        for index in range(4):
            runs.append(measuring.measure_once(run_index=index))
            simulator.run(until=simulator.now + INTER_RUN_GAP_S)
        assert sum(len(run.receptions) for run in runs) > 0
        # Churn means some connections may drop mid-run; most must still arrive.
        assert sum(run.coverage for run in runs) / len(runs) > 0.6
