"""Unit tests for slew propagation and the TimingResult container."""

import pytest

from repro.clocktree import ClockTree, ClockTreeNode, NodeKind
from repro.geometry import Point
from repro.ir.design import DesignArrays
from repro.timing import ElmoreTimingEngine, TimingResult, ramp_slew
from repro.timing.slew import peri_combine


class TestSlewPrimitives:
    def test_ramp_slew_is_ln9_times_elmore(self):
        assert ramp_slew(10.0) == pytest.approx(21.97, abs=0.01)

    def test_ramp_slew_rejects_negative(self):
        with pytest.raises(ValueError):
            ramp_slew(-1.0)

    def test_peri_combination(self):
        assert peri_combine(3.0, 4.0) == pytest.approx(5.0)
        assert peri_combine(0.0, 7.0) == pytest.approx(7.0)


class TestSlewPropagation:
    def _tree(self, length):
        root = ClockTreeNode("root", NodeKind.ROOT, Point(0, 0))
        tree = ClockTree(root)
        steiner = ClockTreeNode("st", NodeKind.STEINER, Point(length, 0))
        root.add_child(steiner)
        steiner.add_child(
            ClockTreeNode("a", NodeKind.SINK, Point(length, 0), capacitance=2.0)
        )
        return tree

    def test_longer_wire_degrades_slew(self, pdk):
        engine = ElmoreTimingEngine(pdk)
        short = engine.analyze(DesignArrays.from_clock_tree(self._tree(20.0)))
        long = engine.analyze(DesignArrays.from_clock_tree(self._tree(200.0)))
        assert long.slews["a"] > short.slews["a"]

    def test_buffer_regenerates_slew(self, pdk):
        engine = ElmoreTimingEngine(pdk)
        design = DesignArrays.from_clock_tree(self._tree(300.0))
        slew_unbuffered = engine.analyze(design).slews["a"]
        design.add_buffer(
            design.name_to_row["a"], 295.0, 0.0, pdk.buffer.input_capacitance
        )
        slew_buffered = engine.analyze(design).slews["a"]
        assert slew_buffered < slew_unbuffered

    def test_analyze_populates_slews(self, pdk):
        tree = self._tree(100.0)
        result = ElmoreTimingEngine(pdk).analyze(tree, with_slew=True)
        assert "a" in result.slews
        assert result.max_slew > 0


class TestTimingResult:
    def test_latency_skew_min(self):
        result = TimingResult(arrivals={"a": 10.0, "b": 14.0, "c": 11.0})
        assert result.latency == 14.0
        assert result.min_arrival == 10.0
        assert result.skew == 4.0

    def test_empty_result_rejected(self):
        with pytest.raises(ValueError):
            TimingResult(arrivals={})

    def test_slowest_and_fastest(self):
        result = TimingResult(arrivals={"a": 10.0, "b": 14.0, "c": 11.0})
        assert result.slowest_sinks(2) == [("b", 14.0), ("c", 11.0)]
        assert result.fastest_sinks(1) == [("a", 10.0)]

    def test_skew_violation_trigger(self):
        result = TimingResult(arrivals={"a": 70.0, "b": 100.0})
        assert result.skew_violates(0.23)  # 30 > 23
        assert not result.skew_violates(0.5)

    def test_skew_violation_fraction_bounds(self):
        result = TimingResult(arrivals={"a": 1.0})
        with pytest.raises(ValueError):
            result.skew_violates(0.0)
        with pytest.raises(ValueError):
            result.skew_violates(1.5)

    def test_summary_keys(self):
        result = TimingResult(arrivals={"a": 10.0}, slews={"a": 12.0})
        summary = result.summary()
        assert summary["latency_ps"] == 10.0
        assert summary["max_slew_ps"] == 12.0
        assert summary["sinks"] == 1.0
