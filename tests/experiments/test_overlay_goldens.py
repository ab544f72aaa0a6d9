"""Byte-identity goldens for overlays built above the DNS-seed prefilter size.

The 40-node fig3 golden configuration never asks the DNS seed to rank more
than 100 candidates, so it never runs the proximity prefilter
(``DnsSeedService.nearest``: a cut on the cosines of unit vectors, 1e-12
wide, then cosine order, with the exact distance and id ordering only the
near-tie runs), and its overlays are too small for long links and funding
to dominate set-up.  These goldens pin 150-node builds instead: per (seed,
policy), a sha256 over the sorted ``(node_a, node_b, is_cluster_link,
is_long_link)`` edges right after the build, and one over the fig3 Δt
samples of a short campaign on that overlay (fund-everyone, as fig3 does).
The 1,200-node edge digests pin the prefilter over about 1,200 candidates
per query, for BCBPT's join and LBC's outsider ranking alike; they were
taken before the cosine cut replaced a haversine one.  The stream-state
digests of 300- and 1,200-node builds pin every draw the build takes from
the latency and policy streams, and the pings it charges; they were taken
before the seed's cosine order and the inline pair resolution of the ping
path replaced an exact sort of every survivor.
"""

import hashlib

import pytest

from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import measure_propagation
from repro.workloads.network_gen import NetworkParameters
from repro.workloads.scenarios import build_scenario

from tests.experiments.test_relay_experiment import _digest

NODE_COUNT = 150

#: (seed, policy) -> (edge digest, Δt sample digest).
GOLDEN_150 = {
    (3, "bitcoin"): (
        "a51f7e3781d64ab1a19579f4c67b2dac5c7bb8f515088394748b5859247e1b4d",
        "f2bae30d9ac29f75b7aa2a315b2351154e87cab177c2f44ac88f0be8be896406",
    ),
    (3, "lbc"): (
        "29defa7ae3e6a3a6b0f61ca3ac312c9b4fc6a99e34a92574db2dd0d0d4d8c849",
        "9c5b81a2cbf7ac170cdb4e94c2a4e59bef5210cc4ad22c9b21fa804a7a722e85",
    ),
    (3, "bcbpt"): (
        "fe511af6663c14ad2b2550929c864d8738ac976b2b957996303a30c7ab2eb097",
        "682f475e87ee8bbc080d8e513be24ddcdf22be22c96a04cfe6b5b153fc06c71a",
    ),
    (11, "bitcoin"): (
        "9c6726b546805228c13cfa08864737451652e5c177aeda5ecf37cf6dbaf3822f",
        "3bc279db3264d3205571ef61ca761d1a31dc80a9748c724c947847ea8c004735",
    ),
    (11, "lbc"): (
        "afe30271033a53ba194e61c971961fcf219e5e72bd4069146ac5462215bbc816",
        "fa4cedc8bb4b93ac31632e9ff4383fdde0529cb9e4edd60b6fa43c8bcdbdfa81",
    ),
    (11, "bcbpt"): (
        "4f2ec80cf053b8646fa01979bcd7445219d38e7114ed87882679d82278be3dca",
        "a5b96df164e6cd9c6ac90463daadade3a05d535830445ed00240d88776a6ba68",
    ),
}


@pytest.mark.parametrize("seed, policy", sorted(GOLDEN_150))
def test_150_node_overlay_and_fig3_samples_match_golden(seed, policy):
    config = ExperimentConfig(
        node_count=NODE_COUNT, runs=1, seeds=(seed,), measuring_nodes=2, run_timeout_s=30.0
    )
    scenario = build_scenario(
        policy,
        NetworkParameters(node_count=NODE_COUNT, seed=seed),
        max_outbound=config.max_outbound,
    )
    edges = _edge_digest(scenario)
    samples = measure_propagation(scenario, config).delays
    expected_edges, expected_samples = GOLDEN_150[(seed, policy)]
    assert edges == expected_edges
    assert _digest(samples) == expected_samples


#: (seed, policy) -> edge digest of a 1,200-node build, where every DNS
#: query ranks about 1,200 candidates and LBC's outsider ranking runs over
#: more than 300 nodes.
GOLDEN_1200_EDGES = {
    (3, "bcbpt"): "81f24e3c7243f7c719f18c1140ef147b6745ebc9e26719f21a4ebeddfaf1b86a",
    (3, "lbc"): "ff8ea3bad812dfa016d369a832122f7a38c25918fe0079cef9124c188ebc7a48",
    (11, "bcbpt"): "79f0b8d778000884b97738af25406e2eeaf2df6202b9648bdab3483549869d4c",
    (11, "lbc"): "b352d69a3cf021cd1626449b9f07065ce82eed7de599078c45590442c25c112c",
}


#: The streams whose state a build leaves behind is pinned per policy: BCBPT
#: draws pair routings and ping jitter from the latency stream and shuffles
#: qualifying peers with its own; LBC draws from its own stream alone.
PINNED_STREAMS = {"bcbpt": ("latency", "policy-bcbpt"), "lbc": ("policy-lbc",)}

#: (nodes, seed, policy) -> sha256 over the pinned streams' ``bit_generator
#: .state`` and ``messages_sent["ping"]`` right after the build.  An edge
#: digest alone misses a reordered draw that still keeps every edge.
GOLDEN_STREAMS = {
    (300, 3, "bcbpt"): "a24db6f607b1c52ea0e97e07b022601ce4cde9d8efcbb6ddbb971c3534ff9e55",
    (300, 3, "lbc"): "e088b486c3803224331d750cab16906d6c8dfcdace7c793eb6cf352b8919fee4",
    (300, 11, "bcbpt"): "a361bfd17596643caae42700968f542f5476bed1a10d6e3826d6d89a8feeaee7",
    (300, 11, "lbc"): "e50b3e77b93ee50bdfc1005307e65a9ee96a4491e614b9dbe71c80dd235e5ab3",
    (1200, 3, "bcbpt"): "101ec4b44f9bff5f5138ce9b83b97149d5f49e315515643e3747a79f8f753915",
    (1200, 3, "lbc"): "3ee10d700bd16750dd4eb5c19079923286a479735075bd331e1a15d5ce23e3c3",
    (1200, 11, "bcbpt"): "f9e6ab9a6dfb3565c49d7d0727a29f8f66aa32e9c8e7d198feb6e753a14945b7",
    (1200, 11, "lbc"): "bc7d951e53d6fb7cd92a1b5fdac805f51a6457ac7971c0a9ae0c9ef6ef588a88",
}


@pytest.mark.parametrize("seed, policy", sorted(GOLDEN_1200_EDGES))
def test_1200_node_overlay_matches_golden(seed, policy):
    scenario = build_scenario(policy, NetworkParameters(node_count=1200, seed=seed), max_outbound=8)
    assert _edge_digest(scenario) == GOLDEN_1200_EDGES[(seed, policy)]
    assert _stream_digest(scenario) == GOLDEN_STREAMS[(1200, seed, policy)]


@pytest.mark.parametrize("seed, policy", sorted(GOLDEN_1200_EDGES))
def test_300_node_build_leaves_pinned_stream_states(seed, policy):
    scenario = build_scenario(policy, NetworkParameters(node_count=300, seed=seed), max_outbound=8)
    assert _stream_digest(scenario) == GOLDEN_STREAMS[(300, seed, policy)]


def _stream_digest(scenario) -> str:
    """sha256 over the policy's pinned stream states and the ping count so far."""
    random = scenario.simulator.random
    states = [random.stream(name).bit_generator.state for name in PINNED_STREAMS[scenario.name]]
    pings = scenario.network.network.messages_sent["ping"]
    return hashlib.sha256(repr((states, pings)).encode()).hexdigest()


def _edge_digest(scenario) -> str:
    """sha256 over the overlay's sorted ``(node_a, node_b, is_cluster_link, is_long_link)``."""
    edges = sorted(
        (link.node_a, link.node_b, link.is_cluster_link, link.is_long_link)
        for link in scenario.network.network.topology.links()
    )
    return hashlib.sha256(repr(edges).encode()).hexdigest()
