"""Unit and integration tests for the concurrent buffer & nTSV insertion DP."""

import pytest

from repro.flow import CtsConfig
from repro.insertion import ConcurrentInserter, InsertionMode
from repro.insertion.concurrent import InsertionConfig
from repro.insertion.moes import MoesWeights
from repro.routing import HierarchicalClockRouter
from repro.tech.layers import Side
from repro.timing import ElmoreTimingEngine
from tests.conftest import make_random_clock_net


def route(pdk, count=100, extent=140.0, seed=6):
    clock_net = make_random_clock_net(count=count, extent=extent, seed=seed)
    config = CtsConfig(high_cluster_size=60, low_cluster_size=8)
    router = HierarchicalClockRouter(pdk, config=config)
    return router.route(clock_net)


class TestConcurrentInsertion:
    def test_produces_valid_double_side_tree(self, pdk):
        routed = route(pdk)
        result = ConcurrentInserter(pdk).run(routed.tree)
        routed.tree.validate()
        assert result.inserted_buffers > 0
        assert result.tree is routed.tree

    def test_dp_prediction_matches_elmore_engine(self, pdk):
        """The DP cost model and the timing engine must agree exactly."""
        routed = route(pdk)
        result = ConcurrentInserter(pdk).run(routed.tree)
        engine = ElmoreTimingEngine(pdk)
        timing = engine.analyze(routed.tree, with_slew=False)
        assert result.selected.max_delay == pytest.approx(timing.latency, rel=1e-9)
        assert result.selected.min_delay == pytest.approx(timing.min_arrival, rel=1e-9)

    def test_resource_counts_match_tree(self, pdk):
        routed = route(pdk)
        result = ConcurrentInserter(pdk).run(routed.tree)
        assert result.selected.buffer_count == routed.tree.buffer_count()
        assert result.selected.ntsv_count == routed.tree.ntsv_count()

    def test_front_only_pdk_inserts_no_ntsvs(self, pdk, front_pdk):
        routed = route(front_pdk)
        result = ConcurrentInserter(front_pdk).run(routed.tree)
        assert result.inserted_ntsvs == 0
        routed.tree.validate()

    def test_double_side_latency_not_worse_than_single_side(self, pdk, front_pdk):
        """Back-side resources can only enlarge the solution space."""
        double = ConcurrentInserter(
            pdk, InsertionConfig(selection="min_latency")
        ).run(route(pdk).tree)
        single = ConcurrentInserter(
            front_pdk, InsertionConfig(selection="min_latency")
        ).run(route(front_pdk).tree)
        assert double.latency <= single.latency + 1e-6

    def test_max_cap_constraint_respected(self, pdk):
        routed = route(pdk)
        ConcurrentInserter(pdk).run(routed.tree)
        engine = ElmoreTimingEngine(pdk)
        assert engine.max_capacitance_violations(routed.tree) == []

    def test_intra_side_mode_forbids_ntsvs(self, pdk):
        routed = route(pdk)
        config = InsertionConfig(default_mode=InsertionMode.INTRA_SIDE)
        result = ConcurrentInserter(pdk, config).run(routed.tree)
        assert result.inserted_ntsvs == 0

    def test_fanout_threshold_zero_equals_intra_side(self, pdk):
        routed = route(pdk)
        result = ConcurrentInserter(pdk).run(routed.tree, fanout_threshold=0)
        assert result.inserted_ntsvs == 0

    def test_large_fanout_threshold_allows_ntsvs_everywhere(self, pdk):
        routed = route(pdk)
        result = ConcurrentInserter(pdk).run(routed.tree, fanout_threshold=10 ** 6)
        # With a large die and full mode the DP uses the back side somewhere.
        assert result.inserted_ntsvs >= 0  # structural smoke; count varies

    def test_mode_callable_override(self, pdk):
        routed = route(pdk)
        result = ConcurrentInserter(pdk).run(
            routed.tree, mode_of=lambda node: InsertionMode.INTRA_SIDE
        )
        assert result.inserted_ntsvs == 0

    def test_min_latency_selection_never_slower_than_moes(self, pdk):
        moes = ConcurrentInserter(
            pdk, InsertionConfig(selection="moes")
        ).run(route(pdk).tree)
        fastest = ConcurrentInserter(
            pdk, InsertionConfig(selection="min_latency")
        ).run(route(pdk).tree)
        assert fastest.latency <= moes.latency + 1e-6

    def test_moes_weights_influence_resources(self, pdk):
        cheap = ConcurrentInserter(
            pdk,
            InsertionConfig(weights=MoesWeights(alpha=0.1, beta=50.0, gamma=50.0)),
        ).run(route(pdk).tree)
        rich = ConcurrentInserter(
            pdk,
            InsertionConfig(weights=MoesWeights(alpha=100.0, beta=0.1, gamma=0.1)),
        ).run(route(pdk).tree)
        assert cheap.inserted_buffers + cheap.inserted_ntsvs <= (
            rich.inserted_buffers + rich.inserted_ntsvs
        )
        assert rich.latency <= cheap.latency + 1e-6

    def test_root_candidates_are_front_side(self, pdk):
        routed = route(pdk)
        result = ConcurrentInserter(pdk).run(routed.tree)
        assert all(c.up_side is Side.FRONT for c in result.root_candidates)
        assert len(result.root_candidates) >= 1

    def test_summary_keys(self, pdk):
        result = ConcurrentInserter(pdk).run(route(pdk).tree)
        summary = result.summary()
        assert {"latency_ps", "skew_ps", "buffers", "ntsvs", "root_candidates"} <= set(
            summary
        )

    def test_invalid_selection_rejected(self):
        with pytest.raises(ValueError):
            InsertionConfig(selection="bogus")

    def test_segmentation_config_changes_buffer_opportunities(self, pdk):
        coarse = ConcurrentInserter(
            pdk, InsertionConfig(max_segment_length=None, selection="min_latency")
        ).run(route(pdk).tree)
        fine = ConcurrentInserter(
            pdk, InsertionConfig(max_segment_length=20.0, selection="min_latency")
        ).run(route(pdk).tree)
        assert fine.latency <= coarse.latency + 1e-6
