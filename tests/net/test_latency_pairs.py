"""Tests for the per-pair state of :class:`LatencyModel`.

Every built network leans on three promises of the pair table: a pair's
routing is drawn from the stream on its first touch, at the same stream
position whichever query touches it first; its routed path is resolved once
and kept; and every later draw (jitter, single or batched) lines up behind
those routing draws.  A pinned digest of an interleaved workload holds all
three to the bytes the earlier dict and array backends both produced.
"""

import hashlib
import pickle
import struct

import numpy as np
import pytest

from repro.net.geo import GeoModel
from repro.net.latency import LatencyModel, LatencyParameters


def sample_positions(count, seed=11):
    """Deterministic node positions for the workloads below."""
    return GeoModel(np.random.default_rng(seed)).sample_positions(count)


#: sha256 of every value :func:`interleaved_workload_digest` reads, pinned at
#: 25d2ef2, where the dict and the array backend both produced it.
INTERLEAVED_WORKLOAD_DIGEST = "ebb1cfc083e5c0f98fe5bbf5fd2a4c79a0a8da9c821f384fe04a7e3bf9afc0ab"


def interleaved_workload_digest(model, node_count=12):
    """Hash 300 interleaved queries of every kind a pair answers.

    A seeded generator picks the pair and the query: a routed path, a base RTT,
    one sample with its decomposition, a batch of samples, or a message delay.
    Each answer is hashed as little-endian doubles, so the digest pins the
    routing draws, their order on the stream and every jitter draw after them.
    """
    positions = sample_positions(node_count)
    rng = np.random.default_rng(99)  # drives the workload, not the model
    digest = hashlib.sha256()

    def put(*values):
        digest.update(struct.pack(f"<{len(values)}d", *values))

    for _ in range(300):
        a, b = (int(node) for node in rng.choice(node_count, size=2, replace=False))
        ends = (a, positions[a], b, positions[b])
        op = int(rng.integers(0, 5))
        if op == 0:
            put(model.path_km(a, b, positions[a].distance_km(positions[b])))
        elif op == 1:
            put(model.base_rtt_s(*ends))
        elif op == 2:
            sample = model.sample_rtt(*ends)
            put(
                sample.rtt_s,
                sample.transmission_s,
                sample.propagation_s,
                sample.queuing_s,
                sample.jitter_factor,
            )
        elif op == 3:
            put(*model.sample_rtts(*ends, int(rng.integers(1, 6))))
        else:
            put(model.one_way_delay_s(*ends, 345.0))
    return digest.hexdigest()


class TestPinnedStream:
    def test_interleaved_workload_digest_is_pinned(self):
        model = LatencyModel(np.random.default_rng(3), LatencyParameters())
        assert interleaved_workload_digest(model) == INTERLEAVED_WORKLOAD_DIGEST


class TestPairTable:
    def test_cached_after_first_touch(self):
        positions = sample_positions(6)
        model = LatencyModel(np.random.default_rng(3), LatencyParameters())
        assert not model.routing_cached(0, 1)
        model.base_rtt_s(0, positions[0], 1, positions[1])
        assert model.routing_cached(0, 1)
        assert model.routing_cached(1, 0)
        assert not model.routing_cached(0, 2)

    @pytest.mark.parametrize(
        "first_touch",
        [
            lambda model, ends: model.path_km(ends[0], ends[2], ends[1].distance_km(ends[3])),
            lambda model, ends: model.base_rtt_s(*ends),
            lambda model, ends: model.sample_rtt(*ends),
            lambda model, ends: model.sample_rtts(*ends, 4),
            lambda model, ends: model.one_way_delay_s(*ends, 345.0),
            lambda model, ends: model.one_way_propagation_s(*ends),
        ],
        ids=[
            "path_km",
            "base_rtt_s",
            "sample_rtt",
            "sample_rtts",
            "one_way_delay_s",
            "one_way_propagation_s",
        ],
    )
    def test_every_query_resolves_the_same_path_on_first_touch(self, first_touch):
        # Routing is drawn before any jitter draw, so whichever query touches
        # a pair first, it keeps the path a bare path_km call would resolve.
        positions = sample_positions(6)
        ends = (2, positions[2], 5, positions[5])
        model = LatencyModel(np.random.default_rng(3), LatencyParameters())
        reference = LatencyModel(np.random.default_rng(3), LatencyParameters())
        first_touch(model, ends)
        assert model.routing_cached(5, 2)
        expected = reference.path_km(2, 5, positions[2].distance_km(positions[5]))
        assert model.path_km(5, 2, 0.0) == expected

    def test_table_holds_only_touched_pairs(self):
        node_count = 100
        positions = sample_positions(node_count)
        model = LatencyModel(np.random.default_rng(0), LatencyParameters())
        touches = [(0, 99), (99, 0), (42, 7), (7, 42), (13, 14), (98, 1), (0, 99)]
        for a, b in touches:
            model.base_rtt_s(a, positions[a], b, positions[b])
        touched = {(min(a, b), max(a, b)) for a, b in touches}
        cached = {
            (a, b)
            for a in range(node_count)
            for b in range(a + 1, node_count)
            if model.routing_cached(a, b)
        }
        assert cached == touched
        # One float per touched pair, whatever the node count.
        assert sum(len(row) for row in model._path_km.values()) == len(touched)

    def test_pickled_model_keeps_paths_and_stream(self):
        # Network snapshots pickle the model mid-stream; a loaded copy must
        # answer every later query exactly as the original does.
        positions = sample_positions(12)
        model = LatencyModel(np.random.default_rng(3), LatencyParameters())
        for a, b in ((0, 1), (3, 9), (11, 4)):
            model.sample_rtt(a, positions[a], b, positions[b])
        copy = pickle.loads(pickle.dumps(model))
        for a, b in ((1, 0), (3, 9), (4, 11)):
            assert copy.routing_cached(a, b)
            assert copy.path_km(a, b, 0.0) == model.path_km(a, b, 0.0)
        assert not copy.routing_cached(0, 2)
        assert interleaved_workload_digest(copy) == interleaved_workload_digest(model)

    def test_path_resolves_once(self):
        # Positions are immutable for a run, so the first resolution is kept.
        model = LatencyModel(np.random.default_rng(3), LatencyParameters())
        first = model.path_km(0, 1, 1000.0)
        assert model.path_km(1, 0, 2000.0) == first

    def test_self_pair_rejected(self):
        model = LatencyModel(np.random.default_rng(0), LatencyParameters())
        position = sample_positions(1)[0]
        with pytest.raises(ValueError):
            model.path_km(3, 3, 10.0)
        with pytest.raises(ValueError):
            model.routing_cached(3, 3)
        with pytest.raises(ValueError):
            model.base_rtt_s(3, position, 3, position)

    def test_batched_jitter_matches_sequential_draws(self):
        batched = LatencyModel(np.random.default_rng(3), LatencyParameters())
        sequential = LatencyModel(np.random.default_rng(3), LatencyParameters())
        expected = [sequential.jitter_factor() for _ in range(16)]
        assert batched.jitter_factors(16).tolist() == expected
