"""Tests for peer discovery, mining and the double-spend attacker."""

from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net.geo import GeoPosition
from repro.protocol.discovery import DnsSeedService
from repro.protocol.doublespend import DoubleSpendAttacker, tally_first_seen
from repro.protocol import mining as mining_mod
from repro.protocol.mining import MinerProfile, MiningProcess, equal_hash_power
from repro.workloads.generators import fund_nodes
from repro.workloads.network_gen import NetworkParameters, build_network


class TestDnsSeedService:
    def _service(self, count=20):
        rng = np.random.default_rng(3)
        positions = {
            i: GeoPosition(float(i), float(i), region=f"r{i % 3}", country="XX")
            for i in range(count)
        }
        service = DnsSeedService(positions, rng, seed_sample_size=5)
        for i in range(count):
            service.set_online(i, True)
        return service

    def test_query_excludes_requester(self):
        service = self._service()
        assert 0 not in service.query(0)

    def test_query_respects_sample_size(self):
        service = self._service()
        assert len(service.query(0)) == 5

    def test_query_returns_all_when_few_online(self):
        service = self._service(count=4)
        assert sorted(service.query(0)) == [1, 2, 3]

    def test_offline_nodes_not_returned(self):
        service = self._service(count=6)
        service.set_online(3, False)
        for _ in range(10):
            assert 3 not in service.query(0)

    def test_proximity_ranked_query_orders_by_distance(self):
        service = self._service()
        ranked = service.query_proximity_ranked(0)
        positions = {
            i: GeoPosition(float(i), float(i), region="r", country="XX") for i in range(20)
        }
        origin = positions[0]
        distances = [origin.distance_km(positions[peer]) for peer in ranked]
        assert distances == sorted(distances)

    def test_query_counter(self):
        service = self._service()
        service.query(0)
        service.query_proximity_ranked(1)
        assert service.queries_served == 2

    def test_invalid_sample_size_rejected(self):
        with pytest.raises(ValueError):
            DnsSeedService({}, np.random.default_rng(1), seed_sample_size=0)

    def test_set_online_rejects_node_without_position(self):
        """Regression: an id the seed cannot place used to be admitted, and the
        next ranked query died with a bare KeyError in the prefilter or sort."""
        service = self._service()
        with pytest.raises(KeyError, match="no position for node 99"):
            service.set_online(99, True)
        with pytest.raises(KeyError, match="no position for node 99"):
            service.set_online(99, False)
        assert service.online_count() == 20
        assert 99 not in service.query_proximity_ranked(0)


def _antimeridian_longitudes(rng, count):
    longitudes = rng.uniform(179.0, 181.0, count)
    return np.where(longitudes >= 180.0, longitudes - 360.0, longitudes)


def _ring_positions(rng, count):
    """Every node on one of the six points where the axes meet the globe.

    From any of them the four points around it lie on a ring a quarter
    circumference away, where cosines and haversines differ by rounding
    alone (the poles take random longitudes), and peers on one point tie
    exactly.  So the near-tie runs need the exact distance and the id
    tie-break, and the ``k``-th peer often falls inside the ring's run.
    """
    points = rng.integers(0, 6, count)
    latitudes = np.array([0.0, 0.0, 0.0, 0.0, 90.0, -90.0])[points]
    longitudes = np.where(
        points < 4, np.array([0.0, 90.0, 180.0, -90.0, 0.0, 0.0])[points], rng.uniform(-180.0, 180.0, count)
    )
    return latitudes, longitudes


#: Where :func:`seed_with_toggles` places its nodes: (latitudes, longitudes)
#: from a generator and a count.
LAYOUTS = {
    "world": lambda rng, n: (rng.uniform(-89.0, 89.0, n), rng.uniform(-179.0, 179.0, n)),
    # A box a couple of metres across (1e-5 degrees is about 1.1 m), where the
    # cosines of peers millimetres apart in distance differ by less than
    # their rounding: a cut with no margin drops some of the nearest.
    "metres": lambda rng, n: (
        48.86 + rng.uniform(-1e-5, 1e-5, n),
        2.35 + rng.uniform(-1e-5, 1e-5, n),
    ),
    "poles": lambda rng, n: (
        rng.choice([-1.0, 1.0], n) * rng.uniform(88.0, 90.0, n),
        rng.uniform(-180.0, 180.0, n),
    ),
    "antimeridian": lambda rng, n: (rng.uniform(-60.0, 60.0, n), _antimeridian_longitudes(rng, n)),
    "ring": _ring_positions,
}


def seed_with_toggles(data, *, sample_size, seed, counts=(101, 400)):
    """A DNS seed over ``counts`` (101–400 by default) random positions after random toggles.

    Returns the service, the positions and the set of ids left online.  The
    positions follow one of :data:`LAYOUTS`.  Ids are sparse, and a quarter
    of the nodes share a position with another, so rows differ from ids and
    distance ties reach the id tie-break.
    """
    count = data.draw(st.integers(*counts), label="count")
    place = LAYOUTS[data.draw(st.sampled_from(sorted(LAYOUTS)), label="layout")]
    layout = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="layout seed"))
    ids = sorted(int(i) for i in layout.choice(10 * count, size=count, replace=False))
    latitudes, longitudes = place(layout, count)
    twins = layout.choice(count, size=count // 4)
    latitudes[: count // 4], longitudes[: count // 4] = latitudes[twins], longitudes[twins]
    positions = {
        node_id: GeoPosition(float(lat), float(lon), region="r", country="XX")
        for node_id, lat, lon in zip(ids, latitudes, longitudes)
    }
    service = DnsSeedService(positions, np.random.default_rng(seed), seed_sample_size=sample_size)
    online = set()
    for node_id in ids:
        if layout.random() < 0.9:
            service.set_online(node_id, True)
            online.add(node_id)
    toggle(data, service, ids, online)
    return service, positions, online


def toggle(data, service, ids, online):
    """Random on/off toggles of ``ids`` on the seed, mirrored in ``online``."""
    toggles = data.draw(
        st.lists(st.tuples(st.sampled_from(ids), st.booleans()), max_size=60), label="toggles"
    )
    for node_id, up in toggles:
        service.set_online(node_id, up)
        if up:
            online.add(node_id)
        else:
            online.discard(node_id)


def requesters(data, positions):
    """Requesters to query for: known ids (online or not) and an unknown one."""
    ids = sorted(positions)
    return data.draw(st.lists(st.sampled_from(ids), min_size=1, max_size=4), label="ids") + [-1]


class TestDnsSeedRankingProperties:
    @given(data=st.data())
    @settings(max_examples=120, deadline=None)
    def test_ranked_query_matches_brute_force(self, data):
        """Populations on both sides of ``max(4k, 64)``: a seed at most that
        large ranks each requester once and filters by liveness, a larger one
        prefilters by cosine.  The same requesters ask again after each
        liveness change, over the whole globe, points metres apart, both
        polar caps, both sides of the antimeridian and six points that each
        see four others at one distance."""
        k = data.draw(st.integers(1, 30), label="k")
        counts = data.draw(st.sampled_from([(2, 100), (101, 400)]), label="counts")
        service, positions, online = seed_with_toggles(data, sample_size=k, seed=0, counts=counts)
        asking = requesters(data, positions)
        for _ in range(data.draw(st.integers(1, 3), label="rounds")):
            assert service.online_count() == len(online)
            for requester in asking:
                candidates = online - {requester}
                origin = positions.get(requester)
                if origin is None:
                    expected = sorted(candidates)[:k]
                else:
                    expected = sorted(
                        candidates, key=lambda peer: (origin.distance_km(positions[peer]), peer)
                    )[:k]
                assert service.query_proximity_ranked(requester) == expected
            toggle(data, service, sorted(positions), online)

    def test_nearest_computes_distances_only_inside_near_tie_runs(self, monkeypatch):
        """1,200 nodes on the world layout, a quarter of them on another's
        position: the only exact distances a query computes are to peers
        whose cosine ties another survivor's, the twins here."""
        count, k = 1200, 25
        layout = np.random.default_rng(5)
        latitudes, longitudes = LAYOUTS["world"](layout, count)
        twins = layout.choice(count, size=count // 4)
        latitudes[: count // 4], longitudes[: count // 4] = latitudes[twins], longitudes[twins]
        positions = {
            node_id: GeoPosition(float(lat), float(lon), region="r", country="XX")
            for node_id, (lat, lon) in enumerate(zip(latitudes, longitudes))
        }
        service = DnsSeedService(positions, np.random.default_rng(0), seed_sample_size=k)
        for node_id in positions:
            service.set_online(node_id, True)
        shared = Counter(positions.values())
        exact = GeoPosition.distance_km
        measured = []

        def spy(position, other):
            measured.append((position, other))
            return exact(position, other)

        runs = 0
        for origin_id in range(0, count, 6):
            origin = positions[origin_id]
            peers = [peer for peer in positions if peer != origin_id]
            expected = sorted(peers, key=lambda peer: (exact(origin, positions[peer]), peer))[:k]
            measured.clear()
            with monkeypatch.context() as patch:
                patch.setattr(GeoPosition, "distance_km", spy)
                assert service.nearest(origin_id, service.rows_of(peers), k) == expected
            farthest = exact(origin, positions[expected[-1]])
            for position, other in measured:
                assert position is origin
                assert shared[other] - (other == origin) >= 2
                assert exact(origin, other) <= farthest
            runs += bool(measured)
        assert runs > 100

    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_vanilla_query_returns_the_same_random_sample(self, data):
        k = data.draw(st.integers(1, 30), label="k")
        seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
        service, positions, online = seed_with_toggles(data, sample_size=k, seed=seed)
        reference_rng = np.random.default_rng(seed)
        for requester in requesters(data, positions):
            candidates = sorted(online - {requester})
            if len(candidates) > k:
                picked = reference_rng.choice(len(candidates), size=k, replace=False)
                candidates = [candidates[i] for i in picked]
            assert service.query(requester) == candidates


def build_ring_network(node_count=10, seed=4, outputs=3):
    simulated = build_network(NetworkParameters(node_count=node_count, seed=seed))
    ids = simulated.node_ids()
    for index, node_id in enumerate(ids):
        simulated.network.connect(node_id, ids[(index + 1) % len(ids)])
        simulated.network.connect(node_id, ids[(index + 2) % len(ids)])
    fund_nodes(list(simulated.nodes.values()), outputs_per_node=outputs)
    return simulated


class TestMining:
    def test_equal_hash_power_helper(self):
        profiles = equal_hash_power([1, 2, 3, 4])
        assert len(profiles) == 4
        assert sum(p.hash_power for p in profiles) == pytest.approx(1.0)

    def test_negative_hash_power_rejected(self):
        with pytest.raises(ValueError):
            MinerProfile(node_id=0, hash_power=-1.0)

    def test_requires_miners(self):
        simulated = build_ring_network()
        with pytest.raises(ValueError):
            MiningProcess(
                simulated.simulator, simulated.nodes, [], simulated.simulator.random.stream("m")
            )

    def test_mine_one_block_extends_winner_chain(self):
        simulated = build_ring_network()
        mining = MiningProcess(
            simulated.simulator,
            simulated.nodes,
            equal_hash_power(simulated.node_ids()),
            simulated.simulator.random.stream("mining"),
        )
        block = mining.mine_one_block(winner_id=0)
        assert block is not None
        assert simulated.node(0).blockchain.height == 2
        assert mining.blocks_mined == 1

    def test_block_contains_pending_transactions(self):
        simulated = build_ring_network()
        creator = simulated.node(2)
        tx = creator.create_transaction([("dest", 500)])
        simulated.simulator.run(until=30.0)
        mining = MiningProcess(
            simulated.simulator,
            simulated.nodes,
            equal_hash_power([0]),
            simulated.simulator.random.stream("mining"),
        )
        block = mining.mine_one_block(winner_id=0)
        assert block is not None
        assert block.contains(tx.txid)

    def test_block_capped_at_max_transactions(self, monkeypatch):
        simulated = build_ring_network()
        miner = simulated.node(0)
        for _ in range(3):
            miner.create_transaction([("dest", 500)], broadcast=False)
        assert len(miner.mempool) == 3
        monkeypatch.setattr(mining_mod, "MAX_BLOCK_TRANSACTIONS", 3)
        mining = MiningProcess(
            simulated.simulator,
            simulated.nodes,
            equal_hash_power([0]),
            simulated.simulator.random.stream("mining"),
        )
        block = mining.mine_one_block(winner_id=0)
        # The cap counts the coinbase: two of the three pending payments fit.
        assert len(block.transactions) == 3
        assert block.transactions[0].is_coinbase
        assert len(miner.mempool) == 1

    def test_block_found_hook_fires_before_acceptance(self):
        simulated = build_ring_network()
        mining = MiningProcess(
            simulated.simulator,
            simulated.nodes,
            equal_hash_power(simulated.node_ids()),
            simulated.simulator.random.stream("mining"),
        )
        assert mining.on_block_found is None
        seen = []
        mining.on_block_found = lambda block, miner_id: seen.append(
            (block.block_hash, miner_id, simulated.node(miner_id).blockchain.height)
        )
        block = mining.mine_one_block(winner_id=3)
        # The hook saw the block while the winner's chain was still at the
        # funding block; acceptance then extended it.
        assert seen == [(block.block_hash, 3, 1)]
        assert simulated.node(3).blockchain.height == 2

    def test_winner_selection_follows_hash_power(self):
        simulated = build_ring_network()
        miners = [MinerProfile(0, 0.9)] + [MinerProfile(i, 0.1 / 9) for i in range(1, 10)]
        mining = MiningProcess(
            simulated.simulator,
            simulated.nodes,
            miners,
            simulated.simulator.random.stream("mining"),
        )
        winners = [mining.pick_winner().node_id for _ in range(300)]
        assert winners.count(0) > 200

    def test_poisson_block_production(self):
        simulated = build_ring_network()
        mining = MiningProcess(
            simulated.simulator,
            simulated.nodes,
            equal_hash_power(simulated.node_ids()),
            simulated.simulator.random.stream("mining"),
            block_interval_s=20.0,
        )
        mining.start()
        simulated.simulator.run(until=400.0)
        mining.stop()
        # ~20 expected; accept a generous Poisson range.
        assert 5 <= mining.blocks_mined <= 45

    def test_offline_winner_produces_nothing(self):
        simulated = build_ring_network()
        simulated.network.set_online(0, False)
        mining = MiningProcess(
            simulated.simulator,
            simulated.nodes,
            equal_hash_power([0]),
            simulated.simulator.random.stream("mining"),
        )
        assert mining.mine_one_block(winner_id=0) is None

    def test_invalid_block_interval_rejected(self):
        simulated = build_ring_network()
        with pytest.raises(ValueError):
            MiningProcess(
                simulated.simulator,
                simulated.nodes,
                equal_hash_power([0]),
                simulated.simulator.random.stream("m"),
                block_interval_s=0.0,
            )


class TestDoubleSpend:
    def test_pair_conflicts(self):
        simulated = build_ring_network()
        attacker = DoubleSpendAttacker(simulated.node(0), merchant_address="merchant-addr")
        pair = attacker.build_pair(1000)
        assert pair.victim_tx.conflicts_with(pair.attacker_tx)
        assert pair.victim_tx.txid != pair.attacker_tx.txid

    def test_insufficient_funds_rejected(self):
        simulated = build_ring_network()
        attacker = DoubleSpendAttacker(simulated.node(0), merchant_address="merchant-addr")
        with pytest.raises(ValueError):
            attacker.build_pair(10**15)

    def test_first_seen_rule_splits_network(self):
        simulated = build_ring_network(node_count=12)
        network = simulated.network
        simulator = simulated.simulator
        attacker_node = simulated.node(0)
        attacker = DoubleSpendAttacker(attacker_node, simulated.node(6).keypair.address)
        pair = attacker.build_pair(1000)
        # Inject the two conflicting transactions at opposite sides of the ring.
        simulated.node(6).accept_transaction(pair.victim_tx, origin_peer=None)
        simulated.node(6).announce_transaction(pair.victim_tx.txid)
        simulated.node(0).accept_transaction(pair.attacker_tx, origin_peer=None)
        simulated.node(0).announce_transaction(pair.attacker_tx.txid)
        simulator.run(until=30.0)
        outcome = tally_first_seen(list(simulated.nodes.values()), pair)
        assert outcome.total_deciding_nodes == simulated.node_count
        assert outcome.nodes_first_saw_victim > 0
        assert outcome.nodes_first_saw_attacker > 0
        assert 0.0 < outcome.attacker_share < 1.0
