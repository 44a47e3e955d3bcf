"""Unit tests for DP tree construction (Step 1) and edge segmentation."""

import pytest

from repro.flow import CtsConfig
from repro.insertion import InsertionMode, build_dp_tree
from repro.insertion.dp_tree import segment_long_edges
from repro.routing import HierarchicalClockRouter
from tests.conftest import make_random_clock_net


def route(pdk):
    """A routed, unbuffered design of a random sink cloud."""
    clock_net = make_random_clock_net(count=100, extent=120.0, seed=4)
    config = CtsConfig(high_cluster_size=60, low_cluster_size=8)
    router = HierarchicalClockRouter(pdk, config=config)
    return router.route_design(clock_net).design


@pytest.fixture()
def design(pdk):
    return route(pdk)


def trunk_nodes(design):
    """Every non-sink node below the clock root, from the realised tree."""
    return [
        n
        for n in design.to_clock_tree().nodes()
        if n.parent is not None and not n.is_sink
    ]


class TestSegmentation:
    def test_no_segmentation_when_edges_are_short(self, design):
        added = segment_long_edges(design, max_segment_length=1e6)
        assert added == 0

    def test_segmentation_bounds_edge_length(self, design):
        added = segment_long_edges(design, max_segment_length=15.0)
        assert added > 0
        for node in trunk_nodes(design):
            assert node.edge_length() <= 15.0 + 1e-6

    def test_segmentation_preserves_sinks_and_wirelength(self, design):
        before = design.to_clock_tree()
        segment_long_edges(design, max_segment_length=20.0)
        after = design.to_clock_tree()
        assert after.sink_count() == before.sink_count()
        assert after.wirelength() == pytest.approx(before.wirelength(), rel=1e-9)
        after.validate()

    def test_invalid_length_rejected(self, design):
        with pytest.raises(ValueError):
            segment_long_edges(design, max_segment_length=0.0)


class TestBuildDpTree:
    def test_one_dp_node_per_trunk_edge(self, pdk, design):
        dp_tree = build_dp_tree(design, pdk, max_segment_length=None)
        assert dp_tree.node_count == len(trunk_nodes(design))

    def test_bottom_up_order(self, pdk, design):
        dp_tree = build_dp_tree(design, pdk, max_segment_length=None)
        position = {id(node): i for i, node in enumerate(dp_tree.nodes)}
        for node in dp_tree.nodes:
            for pred in node.predecessors:
                assert position[id(pred)] < position[id(node)]

    def test_leaf_dp_nodes_carry_leaf_net_load(self, pdk, design):
        dp_tree = build_dp_tree(design, pdk, max_segment_length=None)
        for leaf in dp_tree.leaves():
            # The nominal batch: one corner per base tuple.
            (cap,) = leaf.corner_base_capacitance
            (max_delay,) = leaf.corner_base_max_delay
            (min_delay,) = leaf.corner_base_min_delay
            assert cap > 0
            assert max_delay >= min_delay >= 0
            assert leaf.has_direct_sinks

    def test_fanout_counts_sinks_downstream(self, pdk, design):
        dp_tree = build_dp_tree(design, pdk, max_segment_length=None)
        _nodes, total_sinks, _buffers, _ntsvs = design.counts()
        assert max(node.fanout for node in dp_tree.nodes) == total_sinks
        root_fanout = sum(root.fanout for root in dp_tree.root_nodes)
        assert root_fanout == total_sinks

    def test_root_nodes_are_children_of_clock_root(self, pdk, design):
        dp_tree = build_dp_tree(design, pdk, max_segment_length=None)
        for root_dp in dp_tree.root_nodes:
            assert design.parent_row[root_dp.tree_row] == 0

    def test_default_mode_applied(self, pdk, design):
        dp_tree = build_dp_tree(
            design, pdk, max_segment_length=None,
            default_mode=InsertionMode.INTRA_SIDE,
        )
        assert all(n.mode is InsertionMode.INTRA_SIDE for n in dp_tree.nodes)

    def test_configure_fanout_threshold(self, pdk, design):
        dp_tree = build_dp_tree(design, pdk, max_segment_length=None)
        dp_tree.configure_fanout_threshold(10)
        histogram = dp_tree.mode_histogram()
        assert histogram[InsertionMode.FULL] > 0
        assert histogram[InsertionMode.INTRA_SIDE] > 0
        for node in dp_tree.nodes:
            expected = (
                InsertionMode.FULL if node.fanout < 10 else InsertionMode.INTRA_SIDE
            )
            assert node.mode is expected

    def test_configure_fanout_threshold_extremes(self, pdk, design):
        dp_tree = build_dp_tree(design, pdk, max_segment_length=None)
        dp_tree.configure_fanout_threshold(10 ** 9)
        assert dp_tree.mode_histogram()[InsertionMode.INTRA_SIDE] == 0
        dp_tree.configure_fanout_threshold(0)
        assert dp_tree.mode_histogram()[InsertionMode.FULL] == 0

    def test_negative_threshold_rejected(self, pdk, design):
        dp_tree = build_dp_tree(design, pdk, max_segment_length=None)
        with pytest.raises(ValueError):
            dp_tree.configure_fanout_threshold(-1)

    def test_configure_modes_callable(self, pdk, design):
        dp_tree = build_dp_tree(design, pdk, max_segment_length=None)
        dp_tree.configure_modes(
            lambda node: InsertionMode.FULL if node.is_leaf else InsertionMode.INTRA_SIDE
        )
        for node in dp_tree.nodes:
            assert node.mode is (
                InsertionMode.FULL if node.is_leaf else InsertionMode.INTRA_SIDE
            )

    def test_segmentation_increases_dp_nodes(self, pdk):
        unsegmented = build_dp_tree(route(pdk), pdk, max_segment_length=None)
        segmented = build_dp_tree(route(pdk), pdk, max_segment_length=10.0)
        assert segmented.node_count > unsegmented.node_count
