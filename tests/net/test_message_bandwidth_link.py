"""Tests for wire-message sizing, the bandwidth model and the link layer."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net.bandwidth import AccessClass, BandwidthModel
from repro.net.geo import GeoModel, GeoPosition
from repro.net.latency import LatencyModel, LatencyParameters
from repro.net.link import Link, LinkDelayCalculator
from repro.net.message import (
    ADDR_ENTRY_BYTES,
    BLOCK_HEADER_BYTES,
    BLOCK_TXN_INDEX_BYTES,
    BLOCK_TXN_REQUEST_BYTES,
    HEADER_BYTES,
    INV_ENTRY_BYTES,
    WireMessage,
    message_size_bytes,
)

LONDON = GeoPosition(51.51, -0.13, "uk", "GB")
PARIS = GeoPosition(48.86, 2.35, "france", "FR")


class TestMessageSizes:
    def test_every_size_includes_header(self):
        for command in ("version", "verack", "ping", "pong", "getaddr", "inv", "tx", "block"):
            assert message_size_bytes(command, 1) >= HEADER_BYTES

    def test_inv_scales_with_entry_count(self):
        one = message_size_bytes("inv", 1)
        ten = message_size_bytes("inv", 10)
        assert ten - one == 9 * INV_ENTRY_BYTES

    def test_getdata_matches_inv_sizing(self):
        assert message_size_bytes("getdata", 4) == message_size_bytes("inv", 4)

    def test_addr_scales_with_address_count(self):
        assert message_size_bytes("addr", 10) - message_size_bytes("addr", 1) == 9 * ADDR_ENTRY_BYTES

    def test_tx_uses_transaction_size(self):
        assert message_size_bytes("tx", 500) == HEADER_BYTES + 500

    def test_tx_default_size(self):
        assert message_size_bytes("tx") > HEADER_BYTES

    def test_block_uses_block_size(self):
        assert message_size_bytes("block", 1_000_000) == HEADER_BYTES + 1_000_000

    def test_verack_is_header_only(self):
        assert message_size_bytes("verack") == HEADER_BYTES

    def test_unknown_command_rejected(self):
        with pytest.raises(KeyError):
            message_size_bytes("bogus")

    def test_negative_inventory_rejected(self):
        with pytest.raises(ValueError):
            message_size_bytes("inv", -1)

    def test_non_positive_tx_size_rejected(self):
        with pytest.raises(ValueError):
            message_size_bytes("tx", 0)

    def test_wire_message_rejects_sub_header_size(self):
        with pytest.raises(ValueError):
            WireMessage("inv", HEADER_BYTES - 1)

    def test_cmpctblock_uses_payload_bytes(self):
        assert message_size_bytes("cmpctblock", 500) == HEADER_BYTES + 500
        assert message_size_bytes("cmpctblock") == HEADER_BYTES + BLOCK_HEADER_BYTES

    def test_cmpctblock_smaller_than_header_rejected(self):
        with pytest.raises(ValueError):
            message_size_bytes("cmpctblock", BLOCK_HEADER_BYTES - 1)

    def test_getblocktxn_scales_with_index_count(self):
        one = message_size_bytes("getblocktxn", 1)
        ten = message_size_bytes("getblocktxn", 10)
        assert one == HEADER_BYTES + BLOCK_TXN_REQUEST_BYTES + BLOCK_TXN_INDEX_BYTES
        assert ten - one == 9 * BLOCK_TXN_INDEX_BYTES
        with pytest.raises(ValueError):
            message_size_bytes("getblocktxn", -1)

    def test_blocktxn_uses_transaction_bytes(self):
        assert message_size_bytes("blocktxn", 700) == (
            HEADER_BYTES + BLOCK_TXN_REQUEST_BYTES + 700
        )
        with pytest.raises(ValueError):
            message_size_bytes("blocktxn", -1)

    def test_compact_announcement_is_much_smaller_than_block(self):
        """The whole point of compact relay: header + short ids << full block."""
        block_bytes = 1_000_000
        compact_bytes = BLOCK_HEADER_BYTES + 2000 * 6 + 258
        assert message_size_bytes("cmpctblock", compact_bytes) < (
            message_size_bytes("block", block_bytes) / 50
        )


class TestBandwidthModel:
    def test_assignment_is_persistent(self, rng):
        model = BandwidthModel(rng)
        first = model.assign(7)
        assert model.assign(7) == first

    def test_effective_rate_is_bottleneck(self, rng):
        classes = (
            AccessClass("slow", uplink_bps=100.0, downlink_bps=100.0, weight=1.0),
        )
        model = BandwidthModel(rng, classes=classes)
        assert model.effective_rate_bps(1, 2) == pytest.approx(100.0)

    def test_transmission_delay(self, rng):
        classes = (AccessClass("c", uplink_bps=1000.0, downlink_bps=1000.0, weight=1.0),)
        model = BandwidthModel(rng, classes=classes)
        assert model.transmission_delay_s(1, 2, 500.0) == pytest.approx(0.5)

    def test_negative_size_rejected(self, rng):
        model = BandwidthModel(rng)
        with pytest.raises(ValueError):
            model.transmission_delay_s(1, 2, -1.0)

    def test_empty_class_list_rejected(self, rng):
        with pytest.raises(ValueError):
            BandwidthModel(rng, classes=[])

    def test_invalid_class_rates_rejected(self):
        with pytest.raises(ValueError):
            AccessClass("bad", uplink_bps=0.0, downlink_bps=10.0, weight=1.0)

    def test_class_mix_follows_weights(self):
        rng = np.random.default_rng(5)
        model = BandwidthModel(rng)
        counts = {}
        for node_id in range(2000):
            name = model.assign(node_id).access_class
            counts[name] = counts.get(name, 0) + 1
        # residential-fast has weight 0.40 of the default mix.
        assert 0.3 <= counts.get("residential-fast", 0) / 2000 <= 0.5


class TestLink:
    def test_make_orders_endpoints(self):
        link = Link.make(9, 2, established_at=1.0)
        assert link.key == (2, 9)

    def test_self_link_rejected(self):
        with pytest.raises(ValueError):
            Link(3, 3, established_at=0.0)

    def test_unordered_construction_rejected(self):
        with pytest.raises(ValueError):
            Link(5, 2, established_at=0.0)

    def test_other_endpoint(self):
        link = Link.make(1, 2, established_at=0.0)
        assert link.other(1) == 2
        assert link.other(2) == 1
        with pytest.raises(ValueError):
            link.other(3)


class TestLinkDelayCalculator:
    def _calculator(self, with_bandwidth=False):
        rng = np.random.default_rng(3)
        latency = LatencyModel(
            rng, LatencyParameters(congestion_jitter_sigma=0.0, detour_probability=0.0)
        )
        bandwidth = BandwidthModel(np.random.default_rng(4)) if with_bandwidth else None
        return LinkDelayCalculator(latency, bandwidth)

    def test_message_delay_positive(self):
        calc = self._calculator()
        assert calc.message_delay_s(0, LONDON, 1, PARIS, "inv", 1) > 0

    def test_larger_messages_take_longer(self):
        calc = self._calculator()
        small = calc.message_delay_s(0, LONDON, 1, PARIS, "tx", 300, jittered=False)
        big = calc.message_delay_s(0, LONDON, 1, PARIS, "block", 1_000_000, jittered=False)
        assert big > small

    def test_bandwidth_model_changes_transmission_component(self):
        flat = self._calculator(with_bandwidth=False)
        heterogeneous = self._calculator(with_bandwidth=True)
        flat_delay = flat.message_delay_s(0, LONDON, 1, PARIS, "block", 500_000, jittered=False)
        hetero_delay = heterogeneous.message_delay_s(
            0, LONDON, 1, PARIS, "block", 500_000, jittered=False
        )
        assert flat_delay != pytest.approx(hetero_delay)

    def test_ping_rtt_close_to_base_rtt_without_jitter(self):
        calc = self._calculator()
        ping = calc.ping_rtt_s(0, LONDON, 1, PARIS)
        base = calc.base_rtt_s(0, LONDON, 1, PARIS)
        assert ping == pytest.approx(base)

    def test_control_message_delay_roughly_half_rtt(self):
        calc = self._calculator()
        delay = calc.message_delay_s(0, LONDON, 1, PARIS, "inv", 1, jittered=False)
        rtt = calc.base_rtt_s(0, LONDON, 1, PARIS)
        assert delay < rtt
        assert delay > rtt / 4

    def test_negative_size_rejected(self):
        calc = self._calculator()
        with pytest.raises(ValueError):
            calc.message_delay_s(0, LONDON, 1, PARIS, "inv", size_bytes=-1)


def reference_delay_s(latency, bandwidth, sender, sender_pos, receiver, receiver_pos, size, **jitter):
    """The per-message delay computed from scratch: the latency model's
    one-way delay, then the bottleneck-rate substitution for the flat rate."""
    delay = latency.one_way_delay_s(
        sender, sender_pos, receiver, receiver_pos, message_bytes=size, **jitter
    )
    if bandwidth is not None:
        flat_transmission = latency.transmission_delay_s(size)
        bottleneck_transmission = bandwidth.transmission_delay_s(sender, receiver, size)
        delay = max(
            latency.parameters.minimum_rtt_s / 2.0,
            delay - flat_transmission + bottleneck_transmission,
        )
    return delay


class TestKeptLinkConstants:
    """The calculator keeps each directed pair's propagation and bottleneck
    rate; every delay must still equal the from-scratch reference exactly,
    and both random streams must end where the reference leaves them."""

    NODES = 7

    @given(data=st.data())
    @settings(max_examples=80, deadline=None)
    def test_delays_and_streams_match_the_reference(self, data):
        array_mode = data.draw(st.booleans(), label="array_mode")
        with_bandwidth = data.draw(st.booleans(), label="bandwidth")
        parameters = LatencyParameters(
            congestion_jitter_sigma=data.draw(st.sampled_from([0.0, 0.15, 0.8]), label="sigma"),
            minimum_rtt_s=data.draw(st.sampled_from([0.0005, 0.12]), label="minimum_rtt_s"),
        )
        seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
        positions = GeoModel(np.random.default_rng(seed)).sample_positions(self.NODES)
        node_count = self.NODES if array_mode else None

        def twin():
            latency = LatencyModel(np.random.default_rng([seed, 1]), parameters, node_count)
            bandwidth = BandwidthModel(np.random.default_rng([seed, 2])) if with_bandwidth else None
            return latency, bandwidth

        latency, bandwidth = twin()
        calculator = LinkDelayCalculator(latency, bandwidth)
        ref_latency, ref_bandwidth = twin()

        nodes = st.integers(0, self.NODES - 1)
        for _ in range(data.draw(st.integers(1, 40), label="steps")):
            sender = data.draw(nodes, label="sender")
            receiver = data.draw(nodes.filter(lambda n: n != sender), label="receiver")
            ends = (sender, positions[sender], receiver, positions[receiver])
            kind = data.draw(st.sampled_from(["fresh", "given", "fanout", "ping", "detour"]))
            if kind == "ping":
                # Another consumer of the latency stream between messages.
                assert calculator.ping_rtt_s(*ends) == ref_latency.sample_rtt(*ends).rtt_s
                continue
            if kind == "detour":
                # Array mode parks the routing drawn here until the first resolve.
                assert latency.pair_has_detour(sender, receiver) == ref_latency.pair_has_detour(
                    sender, receiver
                )
                continue
            payload = data.draw(st.integers(1, 1_000_000), label="payload")
            size = message_size_bytes("block", payload)
            if kind == "fanout":
                receivers = data.draw(
                    st.lists(nodes.filter(lambda n: n != sender), min_size=2, max_size=5),
                    label="receivers",
                )
                batched = calculator.can_batch_jitter(sender, receivers)
                assert batched == all(ref_latency.routing_cached(sender, r) for r in receivers)
                factors = calculator.jitter_factors(len(receivers)) if batched else None
                ref_factors = ref_latency.jitter_factors(len(receivers)) if batched else None
                if factors is None:  # not batched, or no jitter: per-message draws
                    factors = ref_factors = [None] * len(receivers)
                else:  # the network hands out Python floats, the reference numpy ones
                    factors = factors.tolist()
                for peer, factor, ref_factor in zip(receivers, factors, ref_factors):
                    peer_ends = (sender, positions[sender], peer, positions[peer])
                    assert calculator.message_delay_s(
                        *peer_ends, "block", size_bytes=size, jitter_factor=factor
                    ) == reference_delay_s(
                        ref_latency, ref_bandwidth, *peer_ends, size, jitter_factor=ref_factor
                    )
                continue
            jittered = data.draw(st.booleans(), label="jittered")
            factor = data.draw(st.floats(0.2, 5.0), label="factor") if kind == "given" else None
            assert calculator.message_delay_s(
                *ends, "block", payload, jittered=jittered, jitter_factor=factor
            ) == reference_delay_s(
                ref_latency, ref_bandwidth, *ends, size, jittered=jittered, jitter_factor=factor
            )
        assert latency._rng.bit_generator.state == ref_latency._rng.bit_generator.state
        if with_bandwidth:
            assert bandwidth._rng.bit_generator.state == ref_bandwidth._rng.bit_generator.state
