"""Tests for the Eq. (2)-(4) latency model."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net.geo import GeoPosition
from repro.net.latency import LatencyModel, LatencyParameters, SIGNAL_SPEED_WIRED_M_S


LONDON = GeoPosition(51.51, -0.13, "uk", "GB")
PARIS = GeoPosition(48.86, 2.35, "france", "FR")
TOKYO = GeoPosition(35.68, 139.69, "japan", "JP")


def make_model(seed=1, **overrides):
    params = LatencyParameters(**overrides) if overrides else LatencyParameters()
    return LatencyModel(np.random.default_rng(seed), params)


class TestParameters:
    def test_defaults_are_valid(self):
        LatencyParameters()

    def test_unstable_queue_rejected(self):
        with pytest.raises(ValueError):
            LatencyParameters(queue_service_rate_bps=10.0, ping_arrival_rate_per_s=1.0)

    def test_negative_jitter_rejected(self):
        with pytest.raises(ValueError):
            LatencyParameters(congestion_jitter_sigma=-0.1)

    def test_invalid_detour_probability_rejected(self):
        with pytest.raises(ValueError):
            LatencyParameters(detour_probability=1.5)

    def test_inverted_detour_range_rejected(self):
        with pytest.raises(ValueError):
            LatencyParameters(detour_extra_km_range=(500.0, 100.0))

    def test_base_detour_below_one_rejected(self):
        with pytest.raises(ValueError):
            LatencyParameters(base_detour_range=(0.5, 1.5))

    def test_with_overrides_returns_copy(self):
        base = LatencyParameters()
        changed = base.with_overrides(detour_probability=0.0)
        assert changed.detour_probability == 0.0
        assert base.detour_probability != 0.0


class TestEquationComponents:
    def test_transmission_delay_eq2_term(self):
        model = make_model(transmission_rate_bps=1000.0, ping_message_bytes=100.0)
        assert model.transmission_delay_s() == pytest.approx(0.1)

    def test_transmission_delay_for_custom_message(self):
        model = make_model(transmission_rate_bps=1_000_000.0)
        assert model.transmission_delay_s(500_000) == pytest.approx(0.5)

    def test_propagation_delay_eq3(self):
        model = make_model()
        # P = D / S for 1000 km over wired 2/3 c.
        expected = 1_000_000.0 / SIGNAL_SPEED_WIRED_M_S
        assert model.propagation_delay_s(1000.0) == pytest.approx(expected)

    def test_propagation_delay_negative_distance_rejected(self):
        with pytest.raises(ValueError):
            make_model().propagation_delay_s(-1.0)

    def test_queuing_delay_eq4(self):
        model = make_model(
            ping_message_bytes=32.0,
            queue_service_rate_bps=1000.0,
            ping_arrival_rate_per_s=10.0,
        )
        expected = 32.0 / (1000.0 - 10.0 * 32.0)
        assert model.queuing_delay_s() == pytest.approx(expected)


class TestBaseRtt:
    def test_rtt_contains_two_propagation_legs(self):
        model = make_model(
            congestion_jitter_sigma=0.0,
            detour_probability=0.0,
            base_detour_range=(1.0, 1.0),
        )
        rtt = model.base_rtt_s(0, LONDON, 1, PARIS)
        one_way = model.propagation_delay_s(LONDON.distance_km(PARIS))
        expected = model.transmission_delay_s() + 2 * one_way + model.queuing_delay_s()
        assert rtt == pytest.approx(expected)

    def test_rtt_is_deterministic_per_pair(self):
        model = make_model()
        first = model.base_rtt_s(0, LONDON, 1, PARIS)
        second = model.base_rtt_s(0, LONDON, 1, PARIS)
        assert first == second

    def test_rtt_symmetric_in_node_order(self):
        model = make_model()
        assert model.base_rtt_s(0, LONDON, 1, PARIS) == pytest.approx(
            model.base_rtt_s(1, PARIS, 0, LONDON)
        )

    def test_far_pair_has_larger_rtt_than_near_pair(self):
        model = make_model(detour_probability=0.0)
        near = model.base_rtt_s(0, LONDON, 1, PARIS)
        far = model.base_rtt_s(0, LONDON, 2, TOKYO)
        assert far > near

    def test_minimum_rtt_floor(self):
        model = make_model(minimum_rtt_s=0.01, detour_probability=0.0)
        same_place = GeoPosition(51.51, -0.13, "uk", "GB")
        assert model.base_rtt_s(0, LONDON, 1, same_place) >= 0.01


class TestSampling:
    def test_samples_vary_with_jitter(self):
        model = make_model(congestion_jitter_sigma=0.3)
        samples = {model.sample_rtt(0, LONDON, 1, PARIS).rtt_s for _ in range(10)}
        assert len(samples) > 1

    def test_samples_identical_without_jitter(self):
        model = make_model(congestion_jitter_sigma=0.0)
        samples = {model.sample_rtt(0, LONDON, 1, PARIS).rtt_s for _ in range(5)}
        assert len(samples) == 1

    def test_sample_decomposition_consistent(self):
        model = make_model(congestion_jitter_sigma=0.0, detour_probability=0.0)
        sample = model.sample_rtt(0, LONDON, 1, PARIS)
        reconstructed = (
            sample.transmission_s + 2 * sample.propagation_s + sample.queuing_s
        ) * sample.jitter_factor
        assert sample.rtt_s == pytest.approx(max(reconstructed, model.parameters.minimum_rtt_s))

    def test_one_way_delay_scales_with_message_size(self):
        model = make_model(congestion_jitter_sigma=0.0)
        small = model.one_way_delay_s(0, LONDON, 1, PARIS, message_bytes=100, jittered=False)
        large = model.one_way_delay_s(0, LONDON, 1, PARIS, message_bytes=1_000_000, jittered=False)
        assert large > small

    def test_one_way_delay_positive(self):
        model = make_model()
        assert model.one_way_delay_s(0, LONDON, 1, PARIS, message_bytes=100) > 0


def detoured(model, node_a, node_b):
    """Whether a pair's routing took a detour, read from its path at 1000 km.

    Stretch factors top out at 2.0, so a pair without a detour has a path
    under 2000 km; a detour adds at least 2000 km to at least 1200 km.
    """
    path = model.path_km(node_a, node_b, 1000.0)
    assert path < 2000.0 or path >= 3200.0
    return path >= 3200.0


class TestDetours:
    def test_detour_assignment_is_persistent(self):
        model = make_model(detour_probability=0.5)
        first = detoured(model, 3, 4)
        for _ in range(5):
            assert detoured(model, 3, 4) == first

    def test_no_detours_when_probability_zero(self):
        model = make_model(detour_probability=0.0)
        assert not any(detoured(model, i, i + 1) for i in range(50))

    def test_all_detours_when_probability_one(self):
        model = make_model(detour_probability=1.0)
        assert all(detoured(model, i, i + 1) for i in range(20))

    def test_detoured_pair_has_higher_rtt(self):
        # Force two models identical except detours, compare the same pair.
        no_detour = make_model(seed=5, detour_probability=0.0, congestion_jitter_sigma=0.0)
        all_detour = make_model(seed=5, detour_probability=1.0, congestion_jitter_sigma=0.0)
        assert all_detour.base_rtt_s(0, LONDON, 1, PARIS) > no_detour.base_rtt_s(0, LONDON, 1, PARIS)

    def test_detour_fraction_roughly_matches_probability(self):
        model = make_model(seed=11, detour_probability=0.3)
        count = sum(detoured(model, i, 1000 + i) for i in range(500))
        assert 0.2 <= count / 500 <= 0.4

    def test_path_km_at_least_great_circle(self):
        model = make_model()
        for i in range(20):
            assert model.path_km(i, i + 1, 1000.0) >= 1000.0

    @given(distance=st.floats(0.0, 20000.0))
    @settings(max_examples=50, deadline=None)
    def test_path_km_monotone_in_distance_property(self, distance):
        # A pair's path is resolved once, so the two distances go to two
        # models that draw the same routing.
        shorter = make_model(seed=2).path_km(1, 2, distance)
        longer = make_model(seed=2).path_km(1, 2, distance + 100.0)
        assert longer >= shorter
