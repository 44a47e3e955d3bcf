"""Unit tests for the adaptive factor (Fig. 8) and skew refinement (Sec. III-D)."""

import pytest

from repro.designs import random_sink_cloud
from repro.flow import DoubleSideCTS
from repro.ir.design import KIND_SINK, DesignArrays
from repro.refinement import (
    SkewRefiner,
    adaptive_scale_factor,
    refined_endpoint_count,
)
from repro.timing import ElmoreTimingEngine


class TestAdaptiveScaleFactor:
    def test_small_designs_use_high_factor(self):
        assert adaptive_scale_factor(1000) == pytest.approx(0.1)
        assert adaptive_scale_factor(6000) == pytest.approx(0.1)

    def test_large_designs_use_low_factor(self):
        assert adaptive_scale_factor(10_000) == pytest.approx(0.06)
        assert adaptive_scale_factor(50_000) == pytest.approx(0.06)

    def test_linear_interpolation_between_breakpoints(self):
        mid = adaptive_scale_factor(8000)  # halfway between 6000 and 10000
        assert mid == pytest.approx(0.08)

    def test_monotonically_non_increasing(self):
        values = [adaptive_scale_factor(n) for n in range(0, 20000, 500)]
        assert all(a >= b for a, b in zip(values, values[1:]))

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            adaptive_scale_factor(-1)


class TestRefinedEndpointCount:
    def test_formula_min_of_budget_and_cap(self):
        # N=100 -> t=0.1 -> 10 endpoints, below the cap of 33.
        assert refined_endpoint_count(100) == 10
        # N=10000 -> t=0.06 -> 600, capped at 33.
        assert refined_endpoint_count(10_000) == 33

    def test_paper_cap_value(self):
        assert refined_endpoint_count(10 ** 6, max_endpoints=33) == 33

    def test_custom_cap(self):
        assert refined_endpoint_count(10_000, max_endpoints=5) == 5

    def test_zero_sinks(self):
        assert refined_endpoint_count(0) == 0

    def test_at_least_one_for_tiny_designs(self):
        assert refined_endpoint_count(3) == 1

    def test_invalid_cap_rejected(self):
        with pytest.raises(ValueError):
            refined_endpoint_count(100, max_endpoints=0)


class TestSkewRefiner:
    @pytest.fixture()
    def unrefined(self, pdk, small_design, small_config):
        config = small_config.with_updates(enable_skew_refinement=False)
        return DoubleSideCTS(pdk, config).run(small_design)

    @staticmethod
    def fresh(unrefined) -> DesignArrays:
        return DesignArrays.from_clock_tree(unrefined.tree)

    def test_invalid_parameters_rejected(self, pdk):
        with pytest.raises(ValueError):
            SkewRefiner(pdk, skew_trigger_fraction=0.0)
        with pytest.raises(ValueError):
            SkewRefiner(pdk, skew_trigger_fraction=1.5)
        with pytest.raises(ValueError):
            SkewRefiner(pdk, strategy="bogus")
        with pytest.raises(ValueError, match="end-point count must be at least 1"):
            SkewRefiner(pdk, max_endpoints=0)

    def test_object_tree_rejected(self, pdk, unrefined):
        with pytest.raises(TypeError, match=r"DesignArrays\.from_clock_tree"):
            SkewRefiner(pdk, force=True).refine(unrefined.design.to_clock_tree())

    def test_not_triggered_when_skew_is_small(self, pdk, unrefined):
        refiner = SkewRefiner(pdk, skew_trigger_fraction=0.999)
        report = refiner.refine(self.fresh(unrefined))
        assert not report.triggered
        assert report.added_buffers == 0
        assert report.before.skew == report.after.skew

    def test_forced_refinement_never_degrades(self, pdk, unrefined):
        design = self.fresh(unrefined)
        refiner = SkewRefiner(pdk, force=True)
        report = refiner.refine(design)
        assert report.triggered
        assert report.after.skew <= report.before.skew + 1e-9
        assert report.after.latency <= report.before.latency + 1e-6
        design.validate()
        design.to_clock_tree().validate()

    def test_added_buffers_reported_consistently(self, pdk, unrefined):
        design = self.fresh(unrefined)
        before_buffers = design.counts()[2]
        report = SkewRefiner(pdk, force=True).refine(design)
        assert design.counts()[2] == before_buffers + report.added_buffers

    def test_shield_slow_strategy_runs(self, pdk, unrefined):
        design = self.fresh(unrefined)
        report = SkewRefiner(pdk, force=True, strategy="shield_slow").refine(design)
        assert report.after.skew <= report.before.skew + 1e-9
        design.validate()

    def test_refinement_respects_endpoint_budget(self, pdk, unrefined):
        design = self.fresh(unrefined)
        report = SkewRefiner(pdk, force=True, max_endpoints=3).refine(design)
        assert report.refined_endpoints <= 3
        assert report.added_buffers <= 3

    def test_report_summary_keys(self, pdk, unrefined):
        report = SkewRefiner(pdk, force=True).refine(self.fresh(unrefined))
        summary = report.summary()
        assert {"triggered", "added_buffers", "skew_before_ps", "skew_after_ps"} <= set(
            summary
        )
        assert report.skew_reduction >= -1e-9
        assert report.latency_increase <= 1e-6

    def test_refined_tree_timing_matches_engine(self, pdk, unrefined):
        design = self.fresh(unrefined)
        report = SkewRefiner(pdk, force=True).refine(design)
        timing = ElmoreTimingEngine(pdk).analyze(design, with_slew=False)
        assert timing.skew == pytest.approx(report.after.skew)
        assert timing.latency == pytest.approx(report.after.latency)

    def test_reference_engine_makes_the_vectorized_edits(self, pdk, unrefined):
        """The reference engine refines a design (realising each version)
        and makes exactly the vectorized engine's edits."""
        shapes = {}
        reports = {}
        for engine in ("reference", "vectorized"):
            design = self.fresh(unrefined)
            reports[engine] = SkewRefiner(pdk, force=True, engine=engine).refine(
                design
            )
            shapes[engine] = sorted(
                (design.names[row], design.names[int(design.parent_row[row])])
                for row in design.rows_preorder()[1:]
            )
        assert reports["reference"].added_buffers > 0
        assert shapes["reference"] == shapes["vectorized"]
        assert reports["reference"].after.skew == pytest.approx(
            reports["vectorized"].after.skew, abs=1e-9
        )

    def test_rejected_trial_restores_the_endpoint_children_order(
        self, pdk, small_config, monkeypatch
    ):
        """A rejected trial puts every adopted sink back in its slot among
        the end-point's children, also when the buffer adopted only some of
        the end-point's sinks."""
        children_before: dict[int, list[int]] = {}
        partial: list[tuple[list[int], list[int]]] = []
        insert = SkewRefiner._insert_endpoint_buffer
        remove = SkewRefiner._remove_endpoint_buffer

        def traced_insert(self, design, endpoint_row, snapshot):
            children_before[endpoint_row] = list(design.children_rows[endpoint_row])
            return insert(self, design, endpoint_row, snapshot)

        def traced_remove(design, endpoint_row, *trial):
            adopted = len(design.children_rows[design.size - 1])  # the buffer
            before = children_before[endpoint_row]
            sinks = sum(design.kind[child] == KIND_SINK for child in before)
            remove(design, endpoint_row, *trial)
            if adopted < sinks:
                partial.append((before, list(design.children_rows[endpoint_row])))

        monkeypatch.setattr(SkewRefiner, "_insert_endpoint_buffer", traced_insert)
        monkeypatch.setattr(
            SkewRefiner, "_remove_endpoint_buffer", staticmethod(traced_remove)
        )
        DoubleSideCTS(pdk, small_config).run(random_sink_cloud(200, seed=5))
        assert partial, "no rejected trial adopted a strict subset of sinks"
        for before, after in partial:
            assert after == before
