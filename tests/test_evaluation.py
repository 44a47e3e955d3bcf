"""Tests for metrics, comparison tables, and text reporting."""

import math

import pytest

from repro.evaluation import (
    ClockTreeMetrics,
    ComparisonTable,
    evaluate_tree,
    format_metrics,
    format_table,
    geometric_mean_ratio,
)
from repro.evaluation.reporting import format_ratio_summary


def metrics(design="d", flow="f", latency=100.0, skew=10.0, buffers=10, ntsvs=5,
            wirelength=1000.0, back=100.0, runtime=1.0):
    return ClockTreeMetrics(
        design=design,
        flow=flow,
        latency=latency,
        skew=skew,
        buffers=buffers,
        ntsvs=ntsvs,
        wirelength=wirelength,
        front_wirelength=wirelength - back,
        back_wirelength=back,
        runtime=runtime,
        sinks=100,
    )


class TestClockTreeMetrics:
    def test_derived_properties(self):
        m = metrics()
        assert m.resource_count == 15
        assert m.backside_fraction == pytest.approx(0.1)

    def test_backside_fraction_of_empty_tree(self):
        m = metrics(wirelength=0.0, back=0.0)
        assert m.backside_fraction == 0.0

    def test_as_row_keys(self):
        row = metrics().as_row()
        assert {"design", "flow", "latency_ps", "skew_ps", "buffers", "ntsvs"} <= set(row)

    def test_ratio_to_matches_paper_convention(self):
        ours = metrics(flow="ours", latency=50.0, skew=5.0, buffers=10, ntsvs=10)
        other = metrics(flow="other", latency=100.0, skew=20.0, buffers=20, ntsvs=40)
        ratios = ours.ratio_to(other)
        assert ratios["latency"] == pytest.approx(2.0)
        assert ratios["skew"] == pytest.approx(4.0)
        assert ratios["buffers"] == pytest.approx(2.0)
        assert ratios["ntsvs"] == pytest.approx(4.0)

    def test_ratio_with_zero_divisor(self):
        ours = metrics(flow="ours", ntsvs=0)
        other = metrics(flow="other", ntsvs=10)
        assert math.isinf(ours.ratio_to(other)["ntsvs"])

    def test_evaluate_tree_consistency(self, pdk, ours_result):
        m = evaluate_tree(ours_result.design, pdk, design="x", flow="y", runtime=1.5)
        assert m.buffers == ours_result.tree.buffer_count()
        assert m.ntsvs == ours_result.tree.ntsv_count()
        assert m.wirelength == pytest.approx(
            m.front_wirelength + m.back_wirelength
        )
        assert m.runtime == 1.5


class TestGeometricMean:
    def test_simple(self):
        assert geometric_mean_ratio([1.0, 4.0]) == pytest.approx(2.0)

    def test_skips_non_finite(self):
        assert geometric_mean_ratio([2.0, float("inf"), 0.0]) == pytest.approx(2.0)

    def test_empty_is_nan(self):
        assert math.isnan(geometric_mean_ratio([]))


class TestComparisonTable:
    def _table(self):
        table = ComparisonTable(reference_flow="ours")
        for design in ("C1", "C2"):
            table.add(metrics(design=design, flow="ours", latency=50.0, ntsvs=10))
            table.add(metrics(design=design, flow="other", latency=100.0, ntsvs=20))
        return table

    def test_designs_and_flows(self):
        table = self._table()
        assert table.designs == ["C1", "C2"]
        assert table.flows == ["ours", "other"]

    def test_duplicate_entry_rejected(self):
        table = self._table()
        with pytest.raises(ValueError):
            table.add(metrics(design="C1", flow="ours"))

    def test_ratio_row(self):
        table = self._table()
        ratios = table.ratio_row("other")
        assert ratios["latency"] == pytest.approx(2.0)
        assert ratios["ntsvs"] == pytest.approx(2.0)

    def test_summary_excludes_reference(self):
        summary = self._table().summary()
        assert set(summary) == {"other"}

    def test_rows_flat(self):
        rows = self._table().rows()
        assert len(rows) == 4
        assert rows[0]["design"] == "C1"

    def test_metrics_for_lookup(self):
        table = self._table()
        assert table.metrics_for("C1", "other").latency == 100.0


class TestReporting:
    def test_format_table_alignment(self):
        rows = [{"a": 1, "b": "xy"}, {"a": 222, "b": "z"}]
        text = format_table(rows)
        lines = text.splitlines()
        assert lines[0].startswith("a")
        assert len(lines) == 4
        assert all(len(line) == len(lines[0]) for line in lines[1:])

    def test_format_table_empty(self):
        assert format_table([]) == "(empty table)"

    def test_format_table_column_selection(self):
        rows = [{"a": 1, "b": 2}]
        text = format_table(rows, columns=["b"])
        assert "a" not in text.splitlines()[0]

    def test_format_metrics_one_liner(self):
        line = format_metrics(metrics())
        assert "latency=100.00ps" in line
        assert "buffers=10" in line

    def test_format_ratio_summary(self):
        table = ComparisonTable(reference_flow="ours")
        table.add(metrics(design="C1", flow="ours", latency=50.0))
        table.add(metrics(design="C1", flow="other", latency=100.0))
        text = format_ratio_summary(table.summary())
        assert "other" in text
        assert "2.0" in text
