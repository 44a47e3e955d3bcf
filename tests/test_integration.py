"""End-to-end integration tests: the paper's headline comparisons in miniature.

These tests reproduce the *shape* of the paper's results on small seeded
designs so they run in seconds: our double-side flow must beat the
incremental post-CTS baselines on latency while using fewer nTSVs, the DSE
sweep must expose a latency/resource trade-off, and every produced tree must
be electrically legal.
"""

import pytest

from repro.baselines import (
    FanoutBacksideOptimizer,
    OpenRoadLikeCTS,
    TimingCriticalBacksideOptimizer,
    VelosoBacksideOptimizer,
)
from repro.baselines.openroad_cts import OpenRoadCtsConfig
from repro.dse import DesignSpaceExplorer
from repro.evaluation import ComparisonTable, evaluate_tree
from repro.flow import DoubleSideCTS, SingleSideCTS
from repro.timing import ElmoreTimingEngine


@pytest.fixture(scope="module")
def flows(pdk, small_design, small_config):
    """Run every flow of Table III once on the shared small design."""
    ours = DoubleSideCTS(pdk, small_config).run(small_design)
    single = SingleSideCTS(pdk, small_config).run(small_design)
    openroad = OpenRoadLikeCTS(pdk, OpenRoadCtsConfig(leaf_cluster_size=10)).run(small_design)
    openroad_veloso = VelosoBacksideOptimizer(pdk).run(
        openroad.design, design_name=small_design.name
    )
    ours_veloso = VelosoBacksideOptimizer(pdk).run(
        single.design, design_name=small_design.name
    )
    ours_fanout = FanoutBacksideOptimizer(pdk, fanout_threshold=20).run(
        single.design, design_name=small_design.name
    )
    ours_critical = TimingCriticalBacksideOptimizer(pdk, critical_fraction=0.5).run(
        single.design, design_name=small_design.name
    )
    return {
        "ours": ours,
        "single": single,
        "openroad": openroad,
        "openroad+[2]": openroad_veloso,
        "single+[2]": ours_veloso,
        "single+[7]": ours_fanout,
        "single+[6]": ours_critical,
    }


class TestTableIiiShape:
    def test_all_trees_are_legal(self, flows):
        for run in flows.values():
            run.design.validate()

    def test_all_flows_reach_every_sink(self, flows, small_design):
        expected = {ff.name for ff in small_design.flip_flops()}
        for run in flows.values():
            design = run.design
            assert {design.names[row] for row in design.sink_rows()} == expected

    def test_ours_beats_single_side_on_latency(self, flows):
        assert flows["ours"].metrics.latency <= flows["single"].metrics.latency + 1e-6

    def test_backside_helps_the_openroad_tree(self, flows):
        assert (
            flows["openroad+[2]"].metrics.latency
            <= flows["openroad"].metrics.latency + 1e-6
        )

    def test_ours_latency_not_worse_than_incremental_baselines(self, flows):
        """The systematic flow explores a superset of the incremental flows."""
        ours = flows["ours"].metrics.latency
        for name in ("openroad+[2]", "single+[2]", "single+[7]", "single+[6]"):
            assert ours <= flows[name].metrics.latency * 1.05 + 1e-6

    def test_ours_uses_fewer_ntsvs_than_full_flipping(self, flows):
        assert flows["ours"].metrics.ntsvs <= flows["single+[2]"].metrics.ntsvs

    def test_post_cts_methods_preserve_buffer_count(self, flows):
        single_buffers = flows["single"].metrics.buffers
        for name in ("single+[2]", "single+[7]", "single+[6]"):
            assert flows[name].metrics.buffers == single_buffers

    def test_comparison_table_ratios(self, flows):
        # Only flows with distinct names go into one table ([2] appears twice
        # in `flows`, once on each substrate, so pick the OpenROAD one).
        table = ComparisonTable(reference_flow="ours")
        for key in ("ours", "single", "openroad", "openroad+[2]"):
            table.add(flows[key].metrics)
        summary = table.summary()
        assert summary["openroad_buffered_tree"]["latency"] >= 1.0
        assert set(summary) == {
            "our_buffered_tree",
            "openroad_buffered_tree",
            "veloso_2023",
        }

    def test_max_cap_respected_by_our_flow(self, pdk, flows):
        engine = ElmoreTimingEngine(pdk)
        assert engine.max_capacitance_violations(flows["ours"].tree) == []

    def test_evaluation_is_flow_independent(self, pdk, flows):
        """Re-evaluating any design reproduces the metrics reported by its flow."""
        for run in flows.values():
            again = evaluate_tree(run.design, pdk)
            assert again.latency == pytest.approx(run.metrics.latency)
            assert again.skew == pytest.approx(run.metrics.skew)
            assert again.buffers == run.metrics.buffers
            assert again.ntsvs == run.metrics.ntsvs


class TestFig10Shape:
    def test_moes_and_min_latency_selections_diverge_in_double_side(
        self, pdk, small_design, small_config
    ):
        from repro.insertion.moes import MoesWeights

        moes = DoubleSideCTS(pdk, small_config).run(small_design)
        fastest = DoubleSideCTS(
            pdk, small_config.with_updates(selection="min_latency")
        ).run(small_design)
        # Compare the DP-selected root candidates (Fig. 10 compares the
        # selections, before the skew-refinement buffers are added).
        weights = MoesWeights()
        assert fastest.insertion.selected.max_delay <= (
            moes.insertion.selected.max_delay + 1e-6
        )
        assert weights.score(moes.insertion.selected) <= (
            weights.score(fastest.insertion.selected) + 1e-6
        )


class TestFig12Shape:
    def test_dse_dominates_fixed_tree_baselines(self, pdk, small_design, small_config):
        explorer = DesignSpaceExplorer(pdk, small_config)
        sweep = explorer.explore(small_design, fanout_thresholds=[0, 5, 20, 10 ** 6])
        single = SingleSideCTS(pdk, small_config).run(small_design)
        baseline = explorer.sweep_fanout_baseline(
            single.design, thresholds=[5, 20, 100], design_name=small_design.name
        )
        best_ours = min(p.metrics.latency for p in sweep.points)
        best_baseline = min(p.metrics.latency for p in baseline.points)
        assert best_ours <= best_baseline + 1e-6

    def test_sweep_produces_resource_spread(self, pdk, small_design, small_config):
        explorer = DesignSpaceExplorer(pdk, small_config)
        sweep = explorer.explore(small_design, fanout_thresholds=[0, 10 ** 6])
        resources = [p.metrics.resource_count for p in sweep.points]
        assert resources[0] != resources[1] or sweep.points[0].metrics.ntsvs == 0
