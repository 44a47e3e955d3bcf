"""Tests for the end-to-end flows (DoubleSideCTS / SingleSideCTS) and config."""

import pytest

from repro.flow import CtsConfig, DoubleSideCTS
from repro.insertion.moes import MoesWeights
from repro.timing import ElmoreTimingEngine


class TestCtsConfig:
    def test_paper_defaults(self):
        config = CtsConfig()
        assert config.high_cluster_size == 3000
        assert config.low_cluster_size == 30
        assert config.skew_trigger_fraction == pytest.approx(0.23)
        assert config.max_refined_endpoints == 33
        assert config.moes_weights == MoesWeights(1.0, 10.0, 1.0)
        assert config.fanout_threshold is None

    def test_with_updates_returns_new_config(self):
        config = CtsConfig()
        updated = config.with_updates(low_cluster_size=10)
        assert updated.low_cluster_size == 10
        assert config.low_cluster_size == 30

    def test_single_side_clears_fanout_threshold(self):
        config = CtsConfig(fanout_threshold=100)
        assert config.single_side().fanout_threshold is None


class TestDoubleSideCTS:
    def test_requires_backside_pdk(self, front_pdk):
        with pytest.raises(ValueError):
            DoubleSideCTS(front_pdk)

    def test_run_produces_valid_tree_and_metrics(self, ours_result, small_design):
        result = ours_result
        result.tree.validate()
        assert result.metrics.sinks == small_design.flip_flop_count
        assert result.metrics.latency > 0
        assert result.metrics.buffers == result.tree.buffer_count()
        assert result.metrics.ntsvs == result.tree.ntsv_count()
        assert result.metrics.wirelength == pytest.approx(result.tree.wirelength())
        assert result.runtime > 0

    def test_all_sinks_reached(self, ours_result, small_design):
        sink_names = {n.name for n in ours_result.tree.sinks()}
        expected = {ff.name for ff in small_design.flip_flops()}
        assert sink_names == expected

    def test_metrics_match_independent_evaluation(self, pdk, ours_result):
        timing = ElmoreTimingEngine(pdk).analyze(ours_result.tree, with_slew=False)
        assert ours_result.metrics.latency == pytest.approx(timing.latency)
        assert ours_result.metrics.skew == pytest.approx(timing.skew)

    def test_accepts_clock_net_input(self, pdk, small_design, small_config):
        clock_net = small_design.require_clock_net()
        result = DoubleSideCTS(pdk, small_config).run(clock_net, design_name="by_net")
        assert result.design_name == "by_net"
        assert result.metrics.sinks == clock_net.sink_count

    def test_rejects_unknown_input_type(self, pdk, small_config):
        with pytest.raises(TypeError):
            DoubleSideCTS(pdk, small_config).run("not a design")

    def test_deterministic_across_runs(self, pdk, small_design, small_config):
        a = DoubleSideCTS(pdk, small_config).run(small_design)
        b = DoubleSideCTS(pdk, small_config).run(small_design)
        assert a.metrics.latency == pytest.approx(b.metrics.latency)
        assert a.metrics.buffers == b.metrics.buffers
        assert a.metrics.ntsvs == b.metrics.ntsvs

    def test_disable_skew_refinement(self, pdk, small_design, small_config):
        config = small_config.with_updates(enable_skew_refinement=False)
        result = DoubleSideCTS(pdk, config).run(small_design)
        assert result.skew_report is None

    def test_fanout_threshold_zero_gives_single_side_solution(
        self, pdk, small_design, small_config
    ):
        config = small_config.with_updates(fanout_threshold=0)
        result = DoubleSideCTS(pdk, config).run(small_design)
        assert result.metrics.ntsvs == 0

    def test_summary_row(self, ours_result):
        row = ours_result.summary()
        assert row["flow"] == "ours"
        assert row["latency_ps"] > 0


class TestSingleSideCTS:
    def test_runs_on_backside_pdk_but_uses_front_only(self, single_side_result):
        assert single_side_result.metrics.ntsvs == 0
        assert single_side_result.metrics.buffers > 0
        assert single_side_result.metrics.back_wirelength == 0.0
        single_side_result.tree.validate()

    def test_flow_name(self, single_side_result):
        assert single_side_result.flow_name == "our_buffered_tree"

    def test_double_side_latency_beats_single_side(
        self, ours_result, single_side_result
    ):
        """The headline claim: back-side resources reduce latency."""
        assert ours_result.metrics.latency <= single_side_result.metrics.latency + 1e-6

    def test_same_routing_wirelength(self, ours_result, single_side_result):
        """Both flows share the clock topology, hence the same wirelength

        (the paper's Table III footnote: Clk WL is identical for Ours and the
        single-side tree built by our framework)."""
        assert ours_result.metrics.front_wirelength + ours_result.metrics.back_wirelength == pytest.approx(
            single_side_result.metrics.wirelength, rel=1e-6
        )
