"""Scale-plane regression guards: peak memory and throughput floors.

Quick-lane (``-m "not slow"``): one mid-size scale cell — network and overlay
build, measuring-only funding, in-run pruning — must stay under a
*generous* traced-allocation ceiling and over a *generous* events/second
floor.  The bounds are an order of magnitude away from current numbers (at
400 nodes a cell peaks around 4 MB traced and runs well above 2000 events/s),
so they only trip on the regressions the scale plane exists to prevent:
funding going quadratic again, or the event loop slowing by 10x.

Per-pair latency state must follow the pairs a run touches.  Dense all-pairs
arrays are too small at 400 nodes to trip a memory ceiling, but they make a
fresh network's snapshot grow with nodes squared, so a fourth guard compares
the snapshots of fresh 400- and 1200-node networks: 1.11 and 7.63 MB (ratio
6.9) with the arrays, 0.39 and 1.16 MB (ratio 3.0) with a table of touched
pairs.

The scale cell funds only its measuring node, so it cannot see set-up memory
that grows with nodes x funding outputs.  A fund-everyone fig3 job at 600
nodes guards that: it peaked at about 130 MB traced while every node kept its
own copies of every funding txid, and at about 12 MB once one network-wide
confirmation index replaced them.  That job mines nothing, so a third guard
takes a 300-node fund-everyone network through one block and a two-block
reorg on every node: it grew by about 94 MB traced (and took 17 s) while each
node's first ledger write copied the whole funding ledger and every reorg
replayed it from genesis, and by under 1 MB once every ledger became a view
over one funding checkpoint.
"""

from __future__ import annotations

import time
import tracemalloc

from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import PropagationJob, run_propagation_job
from repro.experiments.scale import ScaleJob, run_scale_job, scale_parameters
from repro.protocol.block import Block
from repro.protocol.transaction import Transaction
from repro.workloads.generators import fund_nodes
from repro.workloads.network_gen import NetworkParameters, build_network, save_network

#: Mid-size rung: big enough that quadratic funding would blow through the
#: ceiling, small enough for the quick lane.
NODE_COUNT = 400

#: Generous ceiling on the cell's peak traced allocations.
PEAK_TRACED_BOUND_MB = 60.0

#: Generous floor on simulation throughput.
EVENTS_PER_S_FLOOR = 200.0

CONFIG = ExperimentConfig(
    node_count=NODE_COUNT, runs=1, seeds=(3,), measuring_nodes=1, run_timeout_s=30.0
)

#: Fund-everyone fig3 job size: large enough that a per-node copy of every
#: funding txid (600 x 1800 entries, twice) blows through the ceiling.
FUND_EVERYONE_NODES = 600

#: Ceiling on that job's peak traced allocations (linear set-up stays ~12 MB).
FUND_EVERYONE_TRACED_BOUND_MB = 40.0


#: Fund-everyone network that then mines: large enough that a per-node copy
#: of the funding ledger (300 x 900 entries) blows through the ceiling.
MINING_NODES = 300

#: Ceiling on that network's traced heap growth through one block and a
#: two-block reorg on every node (under 1 MB when ledgers are views).
MINING_GROWTH_BOUND_MB = 8.0


#: Bound on the snapshot size ratio of fresh networks at 1200 and 400 nodes:
#: 3.0 when the size is linear in nodes, 6.9 with dense all-pairs arrays.
SNAPSHOT_GROWTH_BOUND = 3.5


def _run_cell():
    job = ScaleJob(
        node_count=NODE_COUNT,
        protocol="bitcoin",
        seed=3,
        prune_depth=6,
        cell_runs=1,
        profile_memory=True,
        config=CONFIG,
    )
    return run_scale_job(job)


def test_scale_cell_peak_memory_under_bound():
    assert not tracemalloc.is_tracing()  # the job owns the tracer
    result = _run_cell()
    assert result.events > 0
    assert result.delay_samples > 0
    assert result.peak_traced_mb is not None
    assert result.peak_traced_mb < PEAK_TRACED_BOUND_MB, (
        f"scale cell memory regressed: peak {result.peak_traced_mb:.1f} MB "
        f"traced at {NODE_COUNT} nodes (bound {PEAK_TRACED_BOUND_MB} MB)"
    )


def test_scale_cell_throughput_over_floor():
    start = time.perf_counter()
    result = _run_cell()
    elapsed = time.perf_counter() - start
    assert result.events_per_s > EVENTS_PER_S_FLOOR, (
        f"scale cell throughput regressed: {result.events_per_s:.0f} events/s "
        f"at {NODE_COUNT} nodes (floor {EVENTS_PER_S_FLOOR}, cell took "
        f"{elapsed:.1f}s wall)"
    )


def test_fund_everyone_job_memory_is_linear():
    assert not tracemalloc.is_tracing()
    config = ExperimentConfig(
        node_count=FUND_EVERYONE_NODES, runs=1, seeds=(3,), measuring_nodes=1
    )
    job = PropagationJob(
        label="bitcoin",
        policy_name="bitcoin",
        threshold_s=config.latency_threshold_s,
        seed=3,
        config=config,
    )
    tracemalloc.start()
    try:
        result = run_propagation_job(job)
        peak_mb = tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()
    assert len(result.delays) > 0
    assert peak_mb < FUND_EVERYONE_TRACED_BOUND_MB, (
        f"fund-everyone set-up memory regressed: peak {peak_mb:.1f} MB traced at "
        f"{FUND_EVERYONE_NODES} nodes (bound {FUND_EVERYONE_TRACED_BOUND_MB} MB)"
    )


def test_fund_everyone_blocks_and_reorgs_stay_linear():
    assert not tracemalloc.is_tracing()
    simulated = build_network(NetworkParameters(node_count=MINING_NODES, seed=3))
    nodes = [simulated.node(node_id) for node_id in simulated.node_ids()]
    funding = fund_nodes(nodes, outputs_per_node=3)
    miner = nodes[0].keypair.address

    def coinbase_block(parent, nonce):
        reward = Transaction.coinbase(miner, 50, tag=f"mined-{nonce}")
        return Block.create(parent, [reward], timestamp=float(nonce), nonce=nonce, miner_id=0)

    tip = coinbase_block(funding, 1)
    side = coinbase_block(funding, 2)
    branch = (side, coinbase_block(side, 3))
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        for node in nodes:
            assert node.accept_block(tip, origin_peer=None)
        after_block = tracemalloc.get_traced_memory()[0]
        for node in nodes:
            for block in branch:
                assert node.accept_block(block, origin_peer=None)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert all(node.blockchain.tip is branch[-1] for node in nodes)
    growth_mb = (peak - start) / 1e6
    assert growth_mb < MINING_GROWTH_BOUND_MB, (
        f"fund-everyone ledger memory regressed: traced heap grew {growth_mb:.1f} MB "
        f"({(after_block - start) / 1e6:.1f} MB after one block) through a block and a "
        f"two-block reorg at {MINING_NODES} nodes (bound {MINING_GROWTH_BOUND_MB} MB)"
    )


def test_fresh_snapshot_grows_linearly_with_nodes(tmp_path):
    sizes = {}
    for node_count in (400, 1200):
        path = save_network(
            build_network(scale_parameters(node_count, 3, 6)), tmp_path / f"{node_count}.pkl"
        )
        sizes[node_count] = path.stat().st_size
    ratio = sizes[1200] / sizes[400]
    assert ratio < SNAPSHOT_GROWTH_BOUND, (
        f"fresh-network snapshots grew {ratio:.1f}x from 400 to 1200 nodes "
        f"({sizes[400] / 1e6:.2f} -> {sizes[1200] / 1e6:.2f} MB, bound "
        f"{SNAPSHOT_GROWTH_BOUND}x): per-pair state is no longer sparse"
    )
