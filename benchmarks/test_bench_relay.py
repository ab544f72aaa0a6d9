"""Ext-7 quick-lane guard — relay comparison end-to-end, compact beats flood,
headers-first beats flood at sync, adaptive narrows its fan-out.

Runs in the quick ``-m "not slow"`` lane: it drives the whole relay-strategy
stack — scenario construction with a non-default strategy, compact-block
reconstruction, the GETBLOCKTXN fallback plumbing, parallel fan-out and the
ordered merge — through the unified experiment API at small scale, and pins
the properties each strategy exists for:

* compact relay spends fewer *messages* per block than flood on every policy
  (header + short ids replace the INV/GETDATA/BLOCK triple), and
* compact relay ships fewer *block bytes* than flood on the same seed, once
  blocks carry a realistic number of transactions (with near-empty blocks the
  per-edge header push costs more than a handful of full-block transfers —
  which is exactly why BIP 152 matters for megabyte blocks);
* headers-first sync catches a lagging node up for fewer bytes per block than
  flood's tip-first orphan walk once the gap exceeds the orphan pool (the
  walk evicts tip-side orphans and re-downloads their bodies on the next
  announcement; headers-first fetches each body exactly once, in order);
* adaptive relay ends up announcing transactions to fewer peers than its
  degree (and therefore spends fewer INV messages than flood) once redundant
  INV crossfire has driven the fan-out down.

The wall-clock bounds are generous so a runtime regression in the relay path
fails loudly without tying CI to machine speed.
"""

from __future__ import annotations

import time

from repro.analysis.report import render_report
from repro.experiments.api import run_experiment
from repro.protocol.mining import MiningProcess, equal_hash_power
from repro.protocol.node import NodeConfig
from repro.workloads.generators import fund_nodes
from repro.workloads.network_gen import NetworkParameters, build_network

#: Generous upper bound (each run takes a few seconds on any recent machine).
WALL_CLOCK_BOUND_S = 60.0

#: Transactions per block: enough that a full block dwarfs the compact
#: header+short-id announcement even at benchmark scale.
TXS_PER_BLOCK = 40

#: Catch-up guard: blocks the lagging node is behind by.  Deliberately larger
#: than ``CATCHUP_ORPHAN_POOL`` so flood's tip-first walk overflows the pool.
CATCHUP_GAP = 24

#: Catch-up guard: orphan-pool cap for the lagging node.
CATCHUP_ORPHAN_POOL = 8


def _mine_at(simulated, winner_id):
    """Mine one block at ``winner_id`` from its own mempool."""
    mining = MiningProcess(
        simulated.simulator,
        simulated.nodes,
        equal_hash_power(simulated.node_ids()),
        simulated.simulator.random.stream("mining"),
    )
    block = mining.mine_one_block(winner_id=winner_id)
    assert block is not None
    return block


def test_relay_comparison_end_to_end_quickly(bench_config):
    config = bench_config.with_overrides(
        node_count=60,
        runs=1,
        seeds=bench_config.seeds[:1],
        measuring_nodes=1,
        funding_outputs_per_node=4,
    )
    start = time.perf_counter()
    run = run_experiment(
        "relay_comparison",
        config,
        # The full five-strategy default sweep is exercised (more cheaply) by
        # the experiment tests; this guard pins the compact-vs-flood headline
        # numbers at benchmark scale, so the sweep is pinned explicitly.
        {"blocks": 2, "txs_per_block": TXS_PER_BLOCK, "relays": ("flood", "compact", "push")},
    )
    elapsed = time.perf_counter() - start
    results = run.payload

    assert set(results) == {
        f"{relay}/{protocol}"
        for relay in ("flood", "compact", "push")
        for protocol in ("bitcoin", "lbc", "bcbpt")
    }
    for key, result in results.items():
        assert result.total("blocks_measured") == 2, f"{key} lost a block"
        assert result.mean_coverage() == 1.0, f"{key} did not reach every node"
        assert len(result.delays) > 0

    for protocol in ("bitcoin", "lbc", "bcbpt"):
        flood = results[f"flood/{protocol}"]
        compact = results[f"compact/{protocol}"]
        # The headline reductions: fewer relay messages per block, and fewer
        # block-payload bytes on the wire, on the same seed and overlay.
        assert compact.messages_per_block() < flood.messages_per_block(), protocol
        assert compact.block_payload_bytes_per_block() < flood.block_payload_bytes_per_block(), protocol
        # Compact also wins latency: one hop sheds a request round-trip.
        assert compact.delays.mean() < flood.delays.mean(), protocol

    # The compact machinery actually ran: blocks were rebuilt from mempools.
    assert results["compact/bcbpt"].total("compact_blocks_reconstructed") > 0
    # Push relay exercised its unsolicited path on the clustered overlays.
    assert results["push/bcbpt"].total("blocks_pushed") > 0

    assert run.verdicts["compact_fewer_messages_per_block"]
    assert run.verdicts["compact_faster_block_propagation"]

    print()
    print(render_report(run))
    assert elapsed < WALL_CLOCK_BOUND_S, (
        f"relay comparison run regressed: {elapsed:.1f}s (bound {WALL_CLOCK_BOUND_S}s)"
    )


def _run_catchup(relay: str) -> tuple[float, int]:
    """Sync a node ``CATCHUP_GAP`` blocks behind a live miner.

    Returns ``(bytes_per_synced_block, blocks_synced)`` for the whole
    catch-up, measured from the moment the lagging node connects.  The miner
    keeps producing blocks after the connection — exactly the situation a
    rejoining node faces — which is also what lets flood's walk resume after
    each orphan-pool overflow (the next tip INV restarts it).
    """
    config = NodeConfig(
        relay_strategy=relay,
        resync_on_reconnect=True,
        max_orphan_blocks=CATCHUP_ORPHAN_POOL,
    )
    simulated = build_network(
        NetworkParameters(node_count=2, seed=11, node_config=config)
    )
    network = simulated.network
    fund_nodes(list(simulated.nodes.values()), outputs_per_node=2)
    for _ in range(CATCHUP_GAP):
        _mine_at(simulated, 0)  # no connections yet: announcements go nowhere

    bytes_before = sum(network.bytes_sent.values())
    network.connect(0, 1)
    simulated.simulator.run(until=10.0)
    now = 10.0
    for _ in range(6):  # the network stays live while node 1 catches up
        _mine_at(simulated, 0)
        now += 10.0
        simulated.simulator.run(until=now)
    simulated.simulator.run(until=now + 60.0)

    miner, behind = simulated.node(0), simulated.node(1)
    assert behind.blockchain.tip.block_hash == miner.blockchain.tip.block_hash, (
        f"{relay}: lagging node never caught up "
        f"(height {behind.blockchain.height} vs {miner.blockchain.height})"
    )
    blocks_synced = behind.blockchain.height - 1  # genesis excluded
    total_bytes = sum(network.bytes_sent.values()) - bytes_before
    return total_bytes / blocks_synced, blocks_synced


def test_headers_sync_cheaper_than_flood_catchup():
    """Headers-first spends no more bytes per block than flood at sync.

    With the gap (24 blocks) larger than the orphan pool (8), flood's
    tip-first walk stashes bodies it must evict and re-download on later
    walks; headers-first learns the whole missing range from one GETHEADERS
    round-trip and fetches each body once, bottom-up, so nothing is ever
    orphaned.
    """
    start = time.perf_counter()
    flood_bytes, flood_synced = _run_catchup("flood")
    headers_bytes, headers_synced = _run_catchup("headers")
    elapsed = time.perf_counter() - start

    # Both runs synced the same chain, so bytes-per-block is comparable.
    assert flood_synced == headers_synced == CATCHUP_GAP + 6
    print(
        f"\ncatch-up bytes/block: flood={flood_bytes:.0f} headers={headers_bytes:.0f}"
    )
    assert headers_bytes <= flood_bytes, (
        f"headers-first sync regressed: {headers_bytes:.0f} bytes/block vs "
        f"flood's {flood_bytes:.0f}"
    )
    assert elapsed < WALL_CLOCK_BOUND_S


def _run_tx_waves(relay: str) -> object:
    """Drive four waves of transaction gossip through a degree-6 overlay."""
    config = NodeConfig(relay_strategy=relay)
    simulated = build_network(
        NetworkParameters(node_count=30, seed=12, node_config=config)
    )
    network = simulated.network
    ids = simulated.node_ids()
    for index, node_id in enumerate(ids):
        for chord in (1, 2, 3):  # ring + chords: every node has degree 6
            network.connect(node_id, ids[(index + chord) % len(ids)])
    fund_nodes(list(simulated.nodes.values()), outputs_per_node=4)

    now = 0.0
    txids = []
    for wave in range(4):
        for creator in (0, 7, 14, 21):
            tx = simulated.node(creator).create_transaction([(f"w{wave}-{creator}", 100)])
            txids.append(tx.txid)
        now += 20.0
        simulated.simulator.run(until=now)
    simulated.simulator.run(until=now + 40.0)

    # Liveness floor: narrowing must not strand transactions.
    for node in simulated.nodes.values():
        for txid in txids:
            assert txid in node.mempool or node.blockchain.contains_transaction(txid), (
                f"{relay}: tx {txid[:12]} stranded at node {node.node_id}"
            )
    return simulated


def test_adaptive_fanout_narrower_than_flood():
    """Adaptive relay converges to a narrower tx fan-out than its degree, and
    therefore spends fewer INV messages than flood on the same workload."""
    start = time.perf_counter()
    flood = _run_tx_waves("flood")
    adaptive = _run_tx_waves("adaptive")
    elapsed = time.perf_counter() - start

    narrowed = sum(n.stats.adaptive_fanout_narrowed for n in adaptive.nodes.values())
    assert narrowed > 0, "no node ever narrowed its fan-out"
    fanouts = [
        (node.relay.effective_fanout(), adaptive.network.topology.degree(node.node_id))
        for node in adaptive.nodes.values()
    ]
    assert any(width < degree for width, degree in fanouts)
    mean_fanout = sum(width for width, _ in fanouts) / len(fanouts)
    mean_degree = sum(degree for _, degree in fanouts) / len(fanouts)
    assert mean_fanout < mean_degree, (
        f"adaptive fan-out did not narrow: mean {mean_fanout:.2f} "
        f"vs degree {mean_degree:.2f}"
    )

    flood_invs = flood.network.messages_sent["inv"]
    adaptive_invs = adaptive.network.messages_sent["inv"]
    print(f"\ntx-wave INVs: flood={flood_invs} adaptive={adaptive_invs}")
    assert adaptive_invs < flood_invs, (
        f"adaptive spent {adaptive_invs} INVs vs flood's {flood_invs}"
    )
    assert elapsed < WALL_CLOCK_BOUND_S
