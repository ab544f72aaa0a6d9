"""Tests for the Ext-9 load-frontier experiment.

Covers registration, the driver's pooled merge, the saturation detector, the
worker-count-invariance contract (the P²-scalars-only merge is the whole
reason :class:`~repro.experiments.load_frontier.LoadJobResult` carries no raw
latency series), and the streamed-quantile exactness regression: on runs
small enough that the P² estimator is still in its exact phase, the streamed
confirmation summary must equal the exact ``percentile()`` of the same
samples.
"""

import math

import pytest

from repro.analysis.stats import StreamingQuantile, percentile
from repro.experiments.api import experiment_names, get_experiment, run_experiment
from repro.experiments.config import ExperimentConfig
from repro.experiments.load_frontier import (
    DEFAULT_RATES,
    LOAD_PROTOCOLS,
    bcbpt_advantage_under_load,
    build_report,
    cell_label,
    collect_samples,
    confirms_at_every_rate,
    run_load_frontier,
    saturation_point_tps,
)

TINY = ExperimentConfig(node_count=12, runs=1, seeds=(3, 11), measuring_nodes=1)

#: Cell parameters sized so the congested rate visibly saturates in ~60
#: simulated seconds: ~3 tx/s of block capacity against 1 and 6 tx/s.  The
#: 4 s block interval gives every seed ~15 blocks, enough that Poisson block
#: droughts do not starve the light cell's drain; the heavy cell pins its
#: capped mempools and starts fee-evicting.
TINY_KWARGS = dict(
    rates=(1.0, 6.0),
    profile_kind="constant",
    horizon_s=60.0,
    block_interval_s=4.0,
    max_block_bytes=3_000,
    mempool_max_size=60,
    confirmation_depth=2,
    mean_fee_satoshi=200.0,
    funding_outputs=4,
)


@pytest.fixture(scope="module")
def tiny_results():
    return run_load_frontier(TINY, protocols=("bitcoin", "bcbpt"), **TINY_KWARGS)


class TestRegistration:
    def test_registered(self):
        assert "load_frontier" in experiment_names()
        spec = get_experiment("load_frontier")
        assert spec.experiment_id == "Ext-9"
        assert spec.exit_verdict == "confirms_at_every_rate"
        assert set(spec.verdicts) == {
            "confirms_at_every_rate",
            "bcbpt_advantage_under_load",
            "bcbpt_saturates_no_earlier",
        }
        assert LOAD_PROTOCOLS == ("bitcoin", "bcbpt")
        assert len(DEFAULT_RATES) >= 3

    def test_option_validation(self):
        with pytest.raises(ValueError, match="at least one offered rate"):
            run_load_frontier(TINY, rates=())
        with pytest.raises(ValueError, match="rates must be positive"):
            run_load_frontier(TINY, rates=(0.0,))
        with pytest.raises(ValueError, match="profile kind"):
            run_load_frontier(TINY, profile_kind="surge")
        with pytest.raises(ValueError, match="horizon_s"):
            run_load_frontier(TINY, horizon_s=0.0)
        with pytest.raises(ValueError, match="confirmation_depth"):
            run_load_frontier(TINY, confirmation_depth=0)


class TestDriver:
    def test_cells_and_merge(self, tiny_results):
        expected_keys = {
            cell_label(protocol, rate)
            for protocol in ("bitcoin", "bcbpt")
            for rate in TINY_KWARGS["rates"]
        }
        assert set(tiny_results) == expected_keys
        for cell in tiny_results.values():
            assert [seed_cell.seed for seed_cell in cell.cells] == list(TINY.seeds)
            assert cell.total("txs_generated") > 0
            assert cell.total("txs_confirmed") > 0
            assert cell.total("blocks_mined") > 0
            assert cell.total("events") > 0
            assert cell.total("total_fees_collected") > 0
            assert cell.p99_latency_s() >= cell.p50_latency_s() - 1e-9

    def test_congestion_raises_latency_and_fills_blocks(self, tiny_results):
        for protocol in ("bitcoin", "bcbpt"):
            light = tiny_results[cell_label(protocol, 1.0)]
            heavy = tiny_results[cell_label(protocol, 6.0)]
            assert heavy.full_block_fraction() > light.full_block_fraction()
            assert heavy.backlog_final() > light.backlog_final()
            assert heavy.p99_latency_s() > light.p99_latency_s()

    def test_saturation_detected_at_the_congested_rate(self, tiny_results):
        for protocol in ("bitcoin", "bcbpt"):
            assert not tiny_results[cell_label(protocol, 1.0)].is_saturated()
            assert tiny_results[cell_label(protocol, 6.0)].is_saturated()
            assert saturation_point_tps(tiny_results, protocol) == 6.0

    def test_verdicts_and_report(self, tiny_results):
        assert confirms_at_every_rate(tiny_results)
        assert isinstance(bcbpt_advantage_under_load(tiny_results), bool)
        rendered = build_report(tiny_results).render()
        assert "Latency-vs-load frontier" in rendered
        assert "Saturation points" in rendered

    def test_collect_samples_series(self, tiny_results):
        log = collect_samples(tiny_results)
        for key, cell in tiny_results.items():
            per_seed = log.per_seed(key, "confirmation_p50_s")
            assert set(per_seed) == set(TINY.seeds)
            p50_by_seed = {c.seed: c.confirmation_p50_s for c in cell.cells}
            for seed, values in per_seed.items():
                assert values == [p50_by_seed[seed]]
            assert log.points(key, "mempool_backlog")


class TestWorkerInvariance:
    def test_workers_do_not_change_any_aggregate(self):
        """The whole merge is per-seed scalars in submission order, so two
        workers must reproduce the serial run bit-for-bit."""
        kwargs = dict(TINY_KWARGS, rates=(1.0, 4.0))
        serial = run_load_frontier(
            TINY.with_overrides(workers=1), protocols=("bitcoin",), **kwargs
        )
        fanned = run_load_frontier(
            TINY.with_overrides(workers=2), protocols=("bitcoin",), **kwargs
        )
        assert set(serial) == set(fanned)
        for key in serial:
            assert serial[key].summary() == fanned[key].summary()
        assert collect_samples(serial).to_dict() == collect_samples(fanned).to_dict()


class RecordingQuantile(StreamingQuantile):
    """StreamingQuantile that also stores its stream (the test oracle)."""

    def __init__(self, q):
        super().__init__(q)
        self.samples = []

    def add(self, value):
        self.samples.append(float(value))
        super().add(value)


class TestStreamingExactness:
    def test_streamed_summary_is_exact_on_small_runs(self):
        """≤5-sample exactness contract, end to end: drive a real cell whose
        confirmation count stays in the P² exact phase and check the streamed
        p50/p99 against ``percentile()`` over the recorded stream."""
        from repro.protocol.mining import MiningProcess, equal_hash_power
        from repro.workloads.generators import fund_nodes
        from repro.workloads.network_gen import NetworkParameters, build_network
        from repro.workloads.traffic import (
            ConfirmationTracker,
            TrafficModel,
            TrafficProfile,
        )

        simulated = build_network(NetworkParameters(node_count=10, seed=7))
        ids = simulated.node_ids()
        for index, node_id in enumerate(ids):
            simulated.network.connect(node_id, ids[(index + 1) % len(ids)])
            simulated.network.connect(node_id, ids[(index + 3) % len(ids)])
        fund_nodes(list(simulated.nodes.values()), outputs_per_node=3)
        tracker = ConfirmationTracker(simulated.node(ids[0]), depth=2)
        tracker.p50 = RecordingQuantile(0.5)
        tracker.p99 = RecordingQuantile(0.99)
        traffic = TrafficModel(
            simulated.simulator,
            simulated.nodes,
            profile=TrafficProfile(kind="constant", rate_tps=0.12),
            tracker=tracker,
        )
        mining = MiningProcess(
            simulated.simulator,
            simulated.nodes,
            equal_hash_power(ids),
            simulated.simulator.random.stream("load-mining"),
            block_interval_s=10.0,
        )
        traffic.start()
        mining.start()
        simulated.simulator.run(until=70.0)
        traffic.stop()
        mining.stop()

        samples = tracker.p50.samples
        assert 1 <= tracker.confirmed <= 5, "cell sized for the exact phase"
        assert tracker.p50.value() == percentile(samples, 50)
        assert tracker.p99.value() == percentile(samples, 99)
        assert tracker.latency_max == max(samples)
        assert not math.isnan(tracker.mean_latency)
