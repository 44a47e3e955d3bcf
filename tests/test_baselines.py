"""Tests for the OpenROAD-like CTS and the post-CTS back-side baselines."""

import pytest

from repro.baselines import (
    FanoutBacksideOptimizer,
    OpenRoadLikeCTS,
    PdnAwareBacksideOptimizer,
    TimingCriticalBacksideOptimizer,
    VelosoBacksideOptimizer,
    assign_backside,
    trunk_edges,
)
from repro.baselines.openroad_cts import OpenRoadCtsConfig
from repro.ir.design import (
    KIND_BUFFER,
    KIND_SINK,
    KIND_STEINER,
    KIND_TAP,
    DesignArrays,
)
from repro.tech.layers import Side
from repro.timing import ElmoreTimingEngine


@pytest.fixture(scope="module")
def openroad_result(pdk, small_design):
    return OpenRoadLikeCTS(pdk, OpenRoadCtsConfig(leaf_cluster_size=10)).run(small_design)


def copy_of(design: DesignArrays) -> DesignArrays:
    """A private copy of ``design`` (the optimizers' own copy idiom)."""
    clone = DesignArrays(name=design.name, capacity=design.size)
    clone.restore(design.snapshot())
    return clone


def subtree_rows(design: DesignArrays, row: int) -> list[int]:
    rows, stack = [], [row]
    while stack:
        current = stack.pop()
        rows.append(current)
        stack.extend(design.children_rows[current])
    return rows


def comparable_row(metrics) -> dict:
    row = metrics.as_row()
    row.pop("runtime_s")
    return row


class TestOpenRoadLikeCTS:
    def test_single_side_buffered_tree(self, openroad_result, small_design):
        design = openroad_result.design
        design.validate()
        _nodes, sinks, buffers, ntsvs = design.counts()
        assert buffers > 0
        assert ntsvs == 0
        assert sinks == small_design.flip_flop_count
        assert openroad_result.metrics.back_wirelength == 0.0

    def test_every_leaf_cluster_has_a_buffer(self, openroad_result):
        design = openroad_result.design
        for row in design.sink_rows():
            assert design.kind[design.parent_row[row]] == KIND_BUFFER

    def test_metrics_flow_name(self, openroad_result):
        assert openroad_result.metrics.flow == "openroad_buffered_tree"

    def test_max_cap_not_violated_at_leaf_level(self, pdk, openroad_result):
        tree = openroad_result.design.to_clock_tree()
        engine = ElmoreTimingEngine(pdk.front_side_only())
        violating = [name for name, _ in engine.max_capacitance_violations(tree)]
        leaf_buffers = {n.name for n in tree.buffers()
                        if all(c.is_sink for c in n.children)}
        assert not (set(violating) & leaf_buffers)

    def test_accepts_clock_net(self, pdk, small_design):
        clock_net = small_design.require_clock_net()
        result = OpenRoadLikeCTS(pdk).run(clock_net, design_name="net_input")
        assert result.design_name == "net_input"


class TestTrunkEdges:
    def test_trunk_edges_exclude_leaf_nets(self, openroad_result):
        design = openroad_result.design
        children = trunk_edges(design)
        assert children, "a buffered tree must have trunk edges"
        for child in children:
            assert design.kind[child] != KIND_SINK
        # No selected edge may be a pure leaf-level buffer driving only sinks.
        for child in children:
            kinds = {int(design.kind[row]) for row in subtree_rows(design, child)}
            assert kinds & {KIND_TAP, KIND_STEINER}

    def test_trunk_edges_are_in_preorder(self, openroad_result):
        design = openroad_result.design
        position = {row: i for i, row in enumerate(design.rows_preorder())}
        children = trunk_edges(design)
        assert children == sorted(children, key=position.__getitem__)


class TestAssignBackside:
    def test_flipping_all_trunk_edges_inserts_ntsvs(self, pdk, openroad_result):
        design = copy_of(openroad_result.design)
        assignment = assign_backside(design, pdk, trunk_edges(design))
        design.validate()
        assert assignment.flipped_edges > 0
        assert assignment.inserted_ntsvs > 0
        assert design.counts()[3] == assignment.inserted_ntsvs
        assert design.wirelength(Side.BACK) > 0

    def test_no_selection_is_a_no_op(self, pdk, openroad_result):
        design = copy_of(openroad_result.design)
        version = design.version
        assignment = assign_backside(design, pdk, [])
        assert assignment.flipped_edges == 0
        assert design.counts()[3] == 0
        assert design.version == version

    def test_requires_backside_pdk(self, front_pdk, openroad_result):
        with pytest.raises(ValueError):
            assign_backside(copy_of(openroad_result.design), front_pdk, [])


OPTIMIZERS = [
    VelosoBacksideOptimizer,
    FanoutBacksideOptimizer,
    TimingCriticalBacksideOptimizer,
    PdnAwareBacksideOptimizer,
]


class TestOptimizerInput:
    @pytest.mark.parametrize("optimizer", OPTIMIZERS, ids=lambda c: c.__name__)
    def test_object_tree_rejected(self, pdk, openroad_result, optimizer):
        tree = openroad_result.design.to_clock_tree()
        with pytest.raises(TypeError, match="DesignArrays.from_clock_tree"):
            optimizer(pdk).run(tree)

    @pytest.mark.parametrize(
        "optimizer",
        [TimingCriticalBacksideOptimizer, PdnAwareBacksideOptimizer],
        ids=lambda c: c.__name__,
    )
    def test_substrate_row_order_does_not_matter(
        self, pdk, single_side_result, optimizer
    ):
        """A substrate whose rows are not breadth-first and its
        breadth-first renumbered copy give the same run.  A buffer spliced
        above the root's first child moves to the end of the root's
        children, so the copy renumbers nearly every row."""
        loose = copy_of(single_side_result.design)
        top = loose.children_rows[0][0]
        loose.add_buffer(
            top, float(loose.x[top]), float(loose.y[top]), pdk.buffer.input_capacitance
        )
        breadth_first = [int(r) for level in loose.levels() for r in level]
        assert breadth_first != list(range(loose.size))
        renumbered = DesignArrays.from_clock_tree(loose.to_clock_tree())
        assert renumbered.names != loose.names

        a = optimizer(pdk).run(loose, design_name="unit")
        b = optimizer(pdk).run(renumbered, design_name="unit")
        assert a.assignment.flipped_edges > 0
        assert a.metrics.latency == b.metrics.latency
        assert a.metrics.skew == b.metrics.skew
        assert comparable_row(a.metrics) == comparable_row(b.metrics)
        assert a.assignment == b.assignment


class TestVeloso:
    def test_flips_everything_and_reduces_latency(self, pdk, openroad_result):
        optimizer = VelosoBacksideOptimizer(pdk)
        run = optimizer.run(openroad_result.design, design_name="unit")
        run.design.validate()
        assert run.metrics.ntsvs > 0
        assert run.metrics.latency <= openroad_result.metrics.latency + 1e-6
        # The substrate design is untouched: the optimizer edits a copy.
        assert run.design is not openroad_result.design
        assert openroad_result.design.counts()[3] == 0

    def test_buffer_count_unchanged(self, pdk, openroad_result):
        run = VelosoBacksideOptimizer(pdk).run(openroad_result.design)
        assert run.metrics.buffers == openroad_result.metrics.buffers


class TestFanoutBaseline:
    def test_threshold_controls_ntsv_count(self, pdk, openroad_result):
        few = FanoutBacksideOptimizer(pdk, fanout_threshold=10 ** 6).run(
            openroad_result.design
        )
        many = FanoutBacksideOptimizer(pdk, fanout_threshold=1).run(
            openroad_result.design
        )
        assert few.metrics.ntsvs <= many.metrics.ntsvs
        many.design.validate()

    def test_threshold_one_equals_veloso(self, pdk, openroad_result):
        fanout_all = FanoutBacksideOptimizer(pdk, fanout_threshold=1).run(
            openroad_result.design
        )
        veloso = VelosoBacksideOptimizer(pdk).run(openroad_result.design)
        assert fanout_all.metrics.ntsvs == veloso.metrics.ntsvs
        assert fanout_all.metrics.latency == pytest.approx(veloso.metrics.latency)

    def test_invalid_threshold_rejected(self, pdk):
        with pytest.raises(ValueError):
            FanoutBacksideOptimizer(pdk, fanout_threshold=0)


class TestTimingCriticalBaseline:
    def test_fraction_controls_scope(self, pdk, openroad_result):
        small = TimingCriticalBacksideOptimizer(pdk, critical_fraction=0.2).run(
            openroad_result.design
        )
        large = TimingCriticalBacksideOptimizer(pdk, critical_fraction=0.9).run(
            openroad_result.design
        )
        assert small.metrics.ntsvs <= large.metrics.ntsvs
        small.design.validate()
        large.design.validate()

    def test_latency_not_degraded(self, pdk, openroad_result):
        run = TimingCriticalBacksideOptimizer(pdk, critical_fraction=0.5).run(
            openroad_result.design
        )
        assert run.metrics.latency <= openroad_result.metrics.latency + 1e-6

    def test_invalid_fraction_rejected(self, pdk):
        with pytest.raises(ValueError):
            TimingCriticalBacksideOptimizer(pdk, critical_fraction=0.0)


class TestPdnAwareBaseline:
    def test_budget_limits_ntsvs(self, pdk, openroad_result):
        tight = PdnAwareBacksideOptimizer(pdk, ntsv_budget=6).run(
            openroad_result.design
        )
        loose = PdnAwareBacksideOptimizer(pdk, ntsv_budget=10 ** 6).run(
            openroad_result.design
        )
        assert tight.metrics.ntsvs <= loose.metrics.ntsvs
        tight.design.validate()

    def test_invalid_budget_rejected(self, pdk):
        with pytest.raises(ValueError):
            PdnAwareBacksideOptimizer(pdk, ntsv_budget=-1)
