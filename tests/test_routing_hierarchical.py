"""Unit tests for the hierarchical clock router (Section III-B)."""

import pytest

from repro.clocktree import NodeKind
from repro.flow import BackendSelection, CtsConfig
from repro.geometry import Point
from repro.netlist import ClockNet, ClockSink, ClockSource
from repro.routing import DME_BACKEND_NAMES, HierarchicalClockRouter
from repro.tech.layers import Side
from tests.conftest import make_random_clock_net
from tests.harness import clock_tree_fingerprint


def make_router(pdk, dme=None, **config_fields) -> HierarchicalClockRouter:
    """A router configured the one supported way: ``config=CtsConfig(...)``."""
    config = CtsConfig(backends=BackendSelection(dme=dme), **config_fields)
    return HierarchicalClockRouter(pdk, config=config)


class TestHierarchicalRouting:
    def test_tree_contains_all_sinks(self, pdk, random_clock_net):
        router = make_router(pdk, high_cluster_size=60, low_cluster_size=8)
        result = router.route(random_clock_net)
        sink_names = {n.name for n in result.tree.sinks()}
        assert sink_names == {s.name for s in random_clock_net.sinks}

    def test_tree_validates_and_is_front_side_only(self, pdk, random_clock_net):
        router = make_router(pdk, high_cluster_size=60, low_cluster_size=8)
        result = router.route(random_clock_net)
        result.tree.validate()
        assert all(n.side is Side.FRONT for n in result.tree.nodes())
        assert result.tree.buffer_count() == 0
        assert result.tree.ntsv_count() == 0

    def test_root_matches_clock_source(self, pdk, grid_clock_net):
        router = make_router(pdk, high_cluster_size=30, low_cluster_size=5)
        result = router.route(grid_clock_net)
        assert result.tree.root.location == grid_clock_net.source.location
        assert result.tree.root.kind is NodeKind.ROOT

    def test_tap_nodes_match_low_clusters(self, pdk, random_clock_net):
        router = make_router(pdk, high_cluster_size=60, low_cluster_size=8)
        result = router.route(random_clock_net)
        assert result.clustering is not None
        assert len(result.tap_nodes) == len(result.clustering.low_clusters)
        taps_in_tree = [n for n in result.tree.nodes() if n.kind is NodeKind.TAP]
        assert len(taps_in_tree) == len(result.tap_nodes)

    def test_sinks_attach_only_to_taps(self, pdk, random_clock_net):
        router = make_router(pdk, high_cluster_size=60, low_cluster_size=8)
        result = router.route(random_clock_net)
        for sink in result.tree.sinks():
            assert sink.parent.kind is NodeKind.TAP

    def test_wirelength_breakdown_sums_to_total(self, pdk, random_clock_net):
        router = make_router(pdk, high_cluster_size=60, low_cluster_size=8)
        result = router.route(random_clock_net)
        assert result.total_wirelength == pytest.approx(result.tree.wirelength())
        assert result.leaf_wirelength > 0
        assert result.trunk_wirelength > 0

    def test_multiple_high_clusters_are_joined_at_the_top(self, pdk):
        clock_net = make_random_clock_net(count=240, extent=400.0, seed=5)
        router = make_router(pdk, high_cluster_size=80, low_cluster_size=8)
        result = router.route(clock_net)
        assert len(result.clustering.high_clusters) >= 2
        result.tree.validate()
        assert {n.name for n in result.tree.sinks()} == {s.name for s in clock_net.sinks}

    def test_single_sink_design(self, pdk):
        clock_net = make_random_clock_net(count=1)
        router = HierarchicalClockRouter(pdk)
        result = router.route(clock_net)
        assert result.tree.sink_count() == 1
        result.tree.validate()

    def test_empty_clock_net_rejected(self, pdk, grid_clock_net):
        router = HierarchicalClockRouter(pdk)
        empty = type(grid_clock_net)(
            name="clk", source=grid_clock_net.source, sinks=[]
        )
        with pytest.raises(ValueError):
            router.route(empty)

    def test_invalid_cluster_sizes_rejected(self, pdk):
        with pytest.raises(ValueError):
            make_router(pdk, high_cluster_size=10, low_cluster_size=20)


class TestDegenerateInputs:
    """Failure and near-failure paths: degenerate clusters and geometries."""

    @pytest.mark.parametrize("dme_backend", DME_BACKEND_NAMES)
    def test_single_sink_low_clusters(self, pdk, dme_backend):
        """low_cluster_size=1 makes every tap a single-terminal DME."""
        net = make_random_clock_net(count=24, extent=60.0, seed=11)
        router = make_router(pdk, dme_backend, high_cluster_size=8, low_cluster_size=1)
        result = router.route(net)
        result.tree.validate()
        assert {n.name for n in result.tree.sinks()} == {s.name for s in net.sinks}
        for tap in result.tap_nodes:
            assert sum(1 for c in tap.children if c.is_sink) == 1

    @pytest.mark.parametrize("dme_backend", DME_BACKEND_NAMES)
    def test_all_coincident_sinks(self, pdk, dme_backend):
        """Every merge has distance zero — the degenerate balance branch."""
        sinks = [
            ClockSink(name=f"ff_{i}", location=Point(10.0, 10.0), capacitance=0.8)
            for i in range(12)
        ]
        net = ClockNet(
            name="clk",
            source=ClockSource(name="src", location=Point(0.0, 0.0)),
            sinks=sinks,
        )
        router = make_router(pdk, dme_backend, high_cluster_size=8, low_cluster_size=4)
        result = router.route(net)
        result.tree.validate()
        assert result.tree.sink_count() == len(sinks)
        # All merge geometry collapses onto the sink point: the only trunk
        # wire is the root-to-tree edge from the source at (0, 0).
        assert result.trunk_wirelength == pytest.approx(20.0, abs=1e-9)
        for node in result.tree.nodes():
            if node.kind is not NodeKind.ROOT:
                assert node.location == Point(10.0, 10.0)

    @pytest.mark.parametrize("dme_backend", DME_BACKEND_NAMES)
    def test_single_cluster_single_sink(self, pdk, dme_backend):
        """One high cluster holding one low cluster holding one sink."""
        net = make_random_clock_net(count=1)
        router = make_router(pdk, dme_backend)
        result = router.route(net)
        result.tree.validate()
        assert result.tree.sink_count() == 1
        assert len(result.tap_nodes) == 1

    def test_unknown_dme_backend_rejected(self, pdk):
        with pytest.raises(ValueError, match="unknown DME backend"):
            make_router(pdk, "bogus")


class TestDetourDisabledBalance:
    """detour_allowed=False saturates infeasible balances instead of snaking."""

    @pytest.mark.parametrize("backend", DME_BACKEND_NAMES)
    def test_infeasible_balance_saturates(self, pdk, backend):
        from repro.routing import create_dme_router
        from repro.routing.dme import DmeTerminal

        router = create_dme_router(
            pdk.front_layer, detour_allowed=False, backend=backend
        )
        slow = DmeTerminal("slow", Point(0.0, 0.0), capacitance=1.0, delay=500.0)
        fast = DmeTerminal("fast", Point(10.0, 0.0), capacitance=1.0, delay=0.0)
        tree = router.route([slow, fast])
        for child in tree.children:
            assert child.planned_edge_length <= 10.0 + 1e-9

    @pytest.mark.parametrize("backend", DME_BACKEND_NAMES)
    def test_coincident_infeasible_balance_allocates_nothing(self, pdk, backend):
        from repro.routing import create_dme_router
        from repro.routing.dme import DmeTerminal

        router = create_dme_router(
            pdk.front_layer, detour_allowed=False, backend=backend
        )
        slow = DmeTerminal("slow", Point(3.0, 3.0), capacitance=1.0, delay=500.0)
        fast = DmeTerminal("fast", Point(3.0, 3.0), capacitance=1.0, delay=0.0)
        tree = router.route([slow, fast])
        assert all(c.planned_edge_length == 0.0 for c in tree.children)
        # The unbalanced delay gap survives (nothing could be balanced).
        assert tree.subtree_delay == pytest.approx(500.0)


class TestFlatRouting:
    def test_flat_mode_has_no_taps(self, pdk, grid_clock_net):
        router = make_router(pdk, hierarchical_routing=False)
        result = router.route(grid_clock_net)
        assert result.clustering is None
        assert not result.tap_nodes
        assert result.tree.sink_count() == grid_clock_net.sink_count
        result.tree.validate()

    def test_hierarchical_wirelength_competitive_with_flat(self, pdk):
        """The paper's motivation: hierarchy controls wirelength on skewed inputs."""
        clock_net = make_random_clock_net(count=150, extent=150.0, seed=9)
        hier = make_router(pdk, high_cluster_size=80, low_cluster_size=10).route(
            clock_net
        )
        flat = make_router(pdk, hierarchical_routing=False).route(clock_net)
        # The hierarchical tree lumps leaf nets into short star nets and must
        # not blow up wirelength compared to the flat matching DME.
        assert hier.total_wirelength <= flat.total_wirelength * 1.5


class TestRouteAdapter:
    """``route()`` is ``route_design()`` realised as an object tree."""

    @pytest.mark.parametrize("dme", DME_BACKEND_NAMES)
    @pytest.mark.parametrize("hierarchical", [True, False], ids=["hier", "flat"])
    def test_route_equals_realised_route_design(self, pdk, dme, hierarchical):
        net = make_random_clock_net(count=140, extent=320.0, seed=3)
        router = make_router(
            pdk,
            dme,
            high_cluster_size=40,
            low_cluster_size=6,
            seed=7,
            hierarchical_routing=hierarchical,
        )
        routed = router.route(net)
        expected = router.route_design(net)
        assert clock_tree_fingerprint(routed.tree) == clock_tree_fingerprint(
            expected.design.to_clock_tree()
        )
        assert [tap.name for tap in routed.tap_nodes] == expected.tap_names
        assert all(tap.kind is NodeKind.TAP for tap in routed.tap_nodes)
        assert routed.trunk_wirelength == expected.trunk_wirelength
        assert routed.leaf_wirelength == expected.leaf_wirelength
        assert bool(routed.tap_nodes) is hierarchical
