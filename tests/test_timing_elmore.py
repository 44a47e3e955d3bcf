"""Unit tests for the Elmore timing engine (Eq. (1) / Eq. (2) of the paper)."""

import pytest

from repro.clocktree import ClockTree, ClockTreeNode, NodeKind
from repro.geometry import Point
from repro.ir.design import DesignArrays
from repro.tech.layers import Side
from repro.timing import ElmoreTimingEngine


def two_sink_tree(length=100.0, sink_cap=2.0) -> ClockTree:
    """root --wire--> steiner --> two sinks at distance 0 (pure trunk test)."""
    root = ClockTreeNode("root", NodeKind.ROOT, Point(0, 0))
    tree = ClockTree(root)
    steiner = ClockTreeNode("st", NodeKind.STEINER, Point(length, 0))
    root.add_child(steiner)
    steiner.add_child(
        ClockTreeNode("a", NodeKind.SINK, Point(length, 0), capacitance=sink_cap)
    )
    steiner.add_child(
        ClockTreeNode("b", NodeKind.SINK, Point(length, 0), capacitance=sink_cap)
    )
    return tree


def buffered_two_sink_tree(pdk, buffer_x: float, **kwargs) -> ClockTree:
    """:func:`two_sink_tree` with a buffer at ``(buffer_x, 0)`` above ``st``.

    Object trees are read-only views, so the edit goes through the design.
    """
    design = DesignArrays.from_clock_tree(two_sink_tree(**kwargs))
    design.add_buffer(
        design.name_to_row["st"], buffer_x, 0.0, pdk.buffer.input_capacitance
    )
    return design.to_clock_tree()


class TestWireDelay:
    def test_l_model_formula(self, pdk):
        engine = ElmoreTimingEngine(pdk)
        layer = pdk.front_layer
        length, load = 50.0, 10.0
        expected = (layer.unit_resistance * length) * (
            layer.unit_capacitance * length + load
        )
        assert engine.wire_delay(length, Side.FRONT, load) == pytest.approx(expected)

    def test_backside_wire_much_faster(self, pdk):
        engine = ElmoreTimingEngine(pdk)
        front = engine.wire_delay(200.0, Side.FRONT, 10.0)
        back = engine.wire_delay(200.0, Side.BACK, 10.0)
        assert back < front / 10.0


class TestSubtreeCapacitance:
    def test_hand_computed_loads(self, pdk):
        tree = two_sink_tree(length=100.0, sink_cap=2.0)
        engine = ElmoreTimingEngine(pdk)
        caps = engine.subtree_capacitances(tree)
        # Steiner: two zero-length sink wires + two sink caps.
        assert caps["st"] == pytest.approx(4.0)
        wire_cap = pdk.front_layer.wire_capacitance(100.0)
        assert caps["root"] == pytest.approx(4.0 + wire_cap)

    def test_buffer_shields_downstream_load(self, pdk):
        tree = buffered_two_sink_tree(pdk, 50.0)
        engine = ElmoreTimingEngine(pdk)
        caps = engine.subtree_capacitances(tree)
        buffer_node = tree.buffers()[0]
        assert caps[buffer_node.name] == pytest.approx(pdk.buffer.input_capacitance)

    def test_driver_loads_and_violations(self, pdk):
        tree = two_sink_tree(length=400.0, sink_cap=25.0)
        engine = ElmoreTimingEngine(pdk)
        violations = engine.max_capacitance_violations(tree)
        assert violations and violations[0][0] == "root"
        # After buffering near the sinks the root still drives the long wire
        # (violating), but the buffer itself must not violate.
        tree = buffered_two_sink_tree(pdk, 399.0, length=400.0, sink_cap=25.0)
        names = [name for name, _ in engine.max_capacitance_violations(tree)]
        assert all(not name.startswith("buffer") for name in names)


class TestArrivals:
    def test_single_wire_latency_matches_hand_computation(self, pdk):
        tree = two_sink_tree(length=100.0, sink_cap=2.0)
        engine = ElmoreTimingEngine(pdk)
        result = engine.analyze(tree, with_slew=False)
        layer = pdk.front_layer
        load = 4.0 + layer.wire_capacitance(100.0)
        expected = 0.1 * load + layer.wire_delay(100.0, 4.0)
        assert result.latency == pytest.approx(expected)

    def test_equidistant_sinks_have_zero_skew(self, pdk):
        tree = two_sink_tree()
        engine = ElmoreTimingEngine(pdk)
        assert engine.skew(tree) == pytest.approx(0.0, abs=1e-9)

    def test_asymmetric_sinks_have_positive_skew(self, pdk):
        tree = two_sink_tree()
        far = ClockTreeNode("far", NodeKind.SINK, Point(160, 0), capacitance=2.0)
        tree.find("st").add_child(far)
        engine = ElmoreTimingEngine(pdk)
        result = engine.analyze(tree, with_slew=False)
        assert result.skew > 0
        assert result.arrivals["far"] == result.latency

    def test_buffer_reduces_latency_on_long_heavily_loaded_wire(self, pdk):
        heavy = two_sink_tree(length=300.0, sink_cap=25.0)
        engine = ElmoreTimingEngine(pdk)
        before = engine.latency(heavy)
        buffered = buffered_two_sink_tree(pdk, 150.0, length=300.0, sink_cap=25.0)
        after = engine.latency(buffered)
        assert after < before

    def test_ntsv_pattern_matches_eq2(self, pdk):
        """Two nTSVs + back-side wire must reproduce Eq. (2) exactly."""
        length, sink_cap = 120.0, 3.0
        design = DesignArrays.from_clock_tree(
            two_sink_tree(length=length, sink_cap=sink_cap)
        )
        steiner = design.name_to_row["st"]
        cap = pdk.ntsv.capacitance
        low = design.add_ntsv(steiner, length, 0.0, cap, upstream_front=False)
        design.add_ntsv(low, 0.0, 0.0, cap, upstream_front=True)
        tree = design.to_clock_tree()
        tree.validate()

        engine = ElmoreTimingEngine(pdk)
        result = engine.analyze(tree, with_slew=False)

        rb = pdk.back_layer.unit_resistance
        cb = pdk.back_layer.unit_capacitance
        r_tsv, c_tsv = pdk.ntsv.resistance, pdk.ntsv.capacitance
        cd = 2 * sink_cap  # two sinks at the steiner
        eq2 = (
            r_tsv * (c_tsv + cd)
            + rb * length * (cb * length + c_tsv + cd)
            + r_tsv * (2 * c_tsv + cb * length + cd)
        )
        root_load = cd + 2 * c_tsv + cb * length
        expected = 0.1 * root_load + eq2
        assert result.latency == pytest.approx(expected, rel=1e-9)

    def test_nldm_mode_changes_buffer_delay(self, pdk):
        tree = buffered_two_sink_tree(pdk, 100.0, length=200.0, sink_cap=10.0)
        linear = ElmoreTimingEngine(pdk, use_nldm=False).latency(tree)
        nldm = ElmoreTimingEngine(pdk, use_nldm=True).latency(tree)
        assert linear != pytest.approx(nldm, abs=1e-12) or linear > 0

    def test_analyze_requires_sinks(self, pdk):
        root = ClockTreeNode("root", NodeKind.ROOT, Point(0, 0))
        tree = ClockTree(root)
        with pytest.raises(ValueError):
            ElmoreTimingEngine(pdk).analyze(tree)
