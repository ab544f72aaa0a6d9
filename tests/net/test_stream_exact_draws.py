"""The scalar draws on the set-up path consume the stream exactly as numpy's do.

``LatencyModel._draw_routing`` computes ``Generator.uniform`` from
``random()``, and the region and access-class draws search the CDF that
``Generator.choice(n, p=...)`` builds with ``random()``.  Each test replays the
same seed through the numpy call it replaces and checks both the values and
the stream position afterwards, so a numpy release that changes either
algorithm fails here rather than in an overlay golden.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net.bandwidth import AccessClass, BandwidthModel
from repro.net.geo import GeoModel, Region
from repro.net.latency import LatencyModel, LatencyParameters

SEEDS = st.integers(0, 2**64 - 1)


def ranges(low, high):
    """``(low, high)`` bounds inside ``[low, high]``, about half of them with ``low == high``."""
    bound = st.floats(low, high)
    return st.one_of(
        bound.map(lambda value: (value, value)),
        st.tuples(bound, bound).map(lambda pair: tuple(sorted(pair))),
    )


#: Weight vectors with zero weights among positive ones.
WEIGHTS = st.lists(
    st.one_of(st.just(0.0), st.floats(1e-3, 10.0)), min_size=1, max_size=8
).filter(lambda weights: sum(weights) > 0)


def choice_probabilities(weights):
    """The ``p`` the models handed ``Generator.choice``: each weight over the total."""
    total = sum(weights)
    return np.array([weight / total for weight in weights])


@given(
    seed=SEEDS,
    base=ranges(1.0, 3.0),
    extra=ranges(0.0, 20_000.0),
    detour_probability=st.floats(0.0, 1.0),
)
@settings(max_examples=200, deadline=None)
def test_routing_draws_match_uniform(seed, base, extra, detour_probability):
    parameters = LatencyParameters(
        base_detour_range=base,
        detour_extra_km_range=extra,
        detour_probability=detour_probability,
    )
    model = LatencyModel(np.random.default_rng(seed), parameters)
    reference = np.random.default_rng(seed)
    for _ in range(8):
        factor = float(reference.uniform(*base))
        extra_km = 0.0
        if reference.random() < detour_probability:
            extra_km = float(reference.uniform(*extra))
        assert model._draw_routing() == (factor, extra_km)
    assert model._rng.random() == reference.random()


@given(seed=SEEDS, weights=WEIGHTS)
@settings(max_examples=200, deadline=None)
def test_region_draws_match_choice(seed, weights):
    regions = [
        Region(f"r{index}", "XX", 10.0 * index, 5.0 * index, weight=weight)
        for index, weight in enumerate(weights)
    ]
    model = GeoModel(np.random.default_rng(seed), regions)
    reference = np.random.default_rng(seed)
    p = choice_probabilities(weights)
    for _ in range(16):
        expected = regions[int(reference.choice(len(regions), p=p))].name
        reference.normal(size=2)  # the latitude and longitude noise
        assert model.sample_position().region == expected
    assert model._rng.random() == reference.random()


@given(seed=SEEDS, weights=WEIGHTS)
@settings(max_examples=200, deadline=None)
def test_access_class_draws_match_choice(seed, weights):
    classes = [
        AccessClass(f"c{index}", uplink_bps=1e5 * (index + 1), downlink_bps=1e6, weight=weight)
        for index, weight in enumerate(weights)
    ]
    model = BandwidthModel(np.random.default_rng(seed), classes)
    reference = np.random.default_rng(seed)
    p = choice_probabilities(weights)
    for node_id in range(16):
        expected = classes[int(reference.choice(len(classes), p=p))].name
        assert model.assign(node_id).access_class == expected
    assert model._rng.random() == reference.random()


def test_negative_region_weight_rejected():
    regions = [Region("a", "XX", 0.0, 0.0, weight=2.0), Region("b", "XX", 0.0, 1.0, weight=-1.0)]
    with pytest.raises(ValueError, match="cannot be negative"):
        GeoModel(np.random.default_rng(1), regions)
