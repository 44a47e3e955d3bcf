"""Unit tests for single-side insertion and the van Ginneken reference."""

import pytest

from repro.flow import CtsConfig
from repro.insertion import SingleSideBufferInserter
from repro.insertion.vanginneken import van_ginneken_wire
from repro.routing import HierarchicalClockRouter
from tests.conftest import make_random_clock_net

ROUTING_CONFIG = CtsConfig(high_cluster_size=60, low_cluster_size=8)


class TestVanGinnekenWire:
    def test_short_wire_needs_no_buffer(self, pdk):
        solution = van_ginneken_wire(
            length=10.0, load_capacitance=1.0, layer=pdk.front_layer, buffer=pdk.buffer
        )
        assert solution.buffer_count == 0

    def test_long_heavily_loaded_wire_gets_buffers(self, pdk):
        solution = van_ginneken_wire(
            length=600.0, load_capacitance=40.0, layer=pdk.front_layer, buffer=pdk.buffer
        )
        assert solution.buffer_count >= 1

    def test_buffering_reduces_delay_on_long_wire(self, pdk):
        layer, buffer = pdk.front_layer, pdk.buffer
        unbuffered_delay = layer.wire_delay(600.0, 40.0)
        solution = van_ginneken_wire(600.0, 40.0, layer, buffer)
        assert solution.delay < unbuffered_delay

    def test_buffer_positions_inside_wire(self, pdk):
        solution = van_ginneken_wire(400.0, 30.0, pdk.front_layer, pdk.buffer)
        assert all(0.0 < pos < 400.0 for pos in solution.buffer_positions)

    def test_more_segments_never_hurt(self, pdk):
        coarse = van_ginneken_wire(500.0, 30.0, pdk.front_layer, pdk.buffer, segments=4)
        fine = van_ginneken_wire(500.0, 30.0, pdk.front_layer, pdk.buffer, segments=32)
        assert fine.delay <= coarse.delay + 1e-9

    def test_invalid_arguments_rejected(self, pdk):
        with pytest.raises(ValueError):
            van_ginneken_wire(-1.0, 1.0, pdk.front_layer, pdk.buffer)
        with pytest.raises(ValueError):
            van_ginneken_wire(1.0, 1.0, pdk.front_layer, pdk.buffer, segments=0)

    def test_zero_length_wire(self, pdk):
        solution = van_ginneken_wire(0.0, 5.0, pdk.front_layer, pdk.buffer)
        assert solution.delay == pytest.approx(0.0)
        assert solution.buffer_count == 0


class TestSingleSideBufferInserter:
    def test_never_inserts_ntsvs(self, pdk):
        clock_net = make_random_clock_net(count=80, extent=120.0, seed=8)
        routed = HierarchicalClockRouter(pdk, config=ROUTING_CONFIG).route(clock_net)
        result = SingleSideBufferInserter(pdk).run(routed.tree)
        assert result.inserted_ntsvs == 0
        assert result.inserted_buffers > 0
        routed.tree.validate()

    def test_accepts_front_only_pdk(self, front_pdk):
        clock_net = make_random_clock_net(count=60, extent=100.0, seed=9)
        routed = HierarchicalClockRouter(front_pdk, config=ROUTING_CONFIG).route(
            clock_net
        )
        result = SingleSideBufferInserter(front_pdk).run(routed.tree)
        assert result.inserted_ntsvs == 0
