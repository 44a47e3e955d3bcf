"""Differential tests for multi-corner scenario batching.

The batched vectorized engine (one design compile, leading scenario axis) must
be numerically indistinguishable (to 1e-9) from the reference engine's
per-corner loop — i.e. from running ``ElmoreTimingEngine(scenario.apply_to(
pdk))`` once per scenario — on arbitrary trees, with per-scenario NLDM
overrides, and after arbitrary sequences of incremental edits served from
the dirty-cone path.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.evaluation import evaluate_tree
from repro.flow import CtsConfig
from repro.ir.design import DesignArrays
from repro.tech import CornerSet, Scenario
from repro.tech.corners import PRESET_SCENARIOS
from repro.timing import (
    ElmoreTimingEngine,
    VectorizedElmoreEngine,
    create_engine,
)
from tests.test_timing_vectorized import (
    random_design,
    random_design_edit,
    random_tree,
)

TOLERANCE = 1e-9

SIGNOFF = CornerSet.parse("tt,ss,ff,hot,cold")


def assert_corners_match(reference, vectorized, tree, context="") -> None:
    """Batched vectorized results equal the per-corner reference loop.

    ``tree`` is a design or an object tree; the vectorized engine times an
    object tree through its compiled design.
    """
    design = (
        tree if isinstance(tree, DesignArrays) else DesignArrays.from_clock_tree(tree)
    )
    ref_results = reference.analyze_corners(tree)
    vec_results = vectorized.analyze_corners(design)
    assert ref_results.keys() == vec_results.keys(), context
    for corner in ref_results:
        ref, vec = ref_results[corner], vec_results[corner]
        assert ref.arrivals.keys() == vec.arrivals.keys(), (context, corner)
        for sink in ref.arrivals:
            assert ref.arrivals[sink] == pytest.approx(
                vec.arrivals[sink], abs=TOLERANCE
            ), (context, corner, sink)
            assert ref.slews[sink] == pytest.approx(
                vec.slews[sink], abs=TOLERANCE
            ), (context, corner, sink)
    ref_skews = reference.skew_per_corner(tree)
    vec_skews = vectorized.skew_per_corner(design)
    for corner in ref_skews:
        assert ref_skews[corner] == pytest.approx(
            vec_skews[corner], abs=TOLERANCE
        ), (context, corner)
    assert reference.worst_skew(tree) == pytest.approx(
        vectorized.worst_skew(design), abs=TOLERANCE
    ), context
    assert reference.worst_latency(tree) == pytest.approx(
        vectorized.worst_latency(design), abs=TOLERANCE
    ), context


# ------------------------------------------------------------ construction
class TestScenario:
    def test_nominal_apply_is_identity(self, pdk):
        assert Scenario.nominal().apply_to(pdk) is pdk

    def test_apply_scales_wires_and_buffer(self, pdk):
        scenario = PRESET_SCENARIOS["ss"]
        derived = scenario.apply_to(pdk)
        assert derived.front_layer.unit_resistance == pytest.approx(
            pdk.front_layer.unit_resistance * scenario.wire_res_scale
        )
        assert derived.back_layer.unit_capacitance == pytest.approx(
            pdk.back_layer.unit_capacitance * scenario.wire_cap_scale
        )
        assert derived.buffer.intrinsic_delay == pytest.approx(
            pdk.buffer.intrinsic_delay * scenario.buffer_derate
        )
        assert derived.ntsv.resistance == pytest.approx(
            pdk.ntsv.resistance * scenario.ntsv_res_scale
        )
        # Load-side parameters are corner-independent.
        assert derived.buffer.input_capacitance == pdk.buffer.input_capacitance
        assert derived.ntsv.capacitance == pdk.ntsv.capacitance

    def test_apply_derates_nldm_tables(self, pdk):
        scenario = Scenario("wc", buffer_derate=1.25)
        derived = scenario.apply_to(pdk)
        assert derived.buffer.nldm_delay.lookup(10.0, 5.0) == pytest.approx(
            pdk.buffer.nldm_delay.lookup(10.0, 5.0) * 1.25
        )

    def test_validation(self):
        with pytest.raises(ValueError, match="positive"):
            Scenario("bad", wire_res_scale=0.0)
        with pytest.raises(ValueError, match="invalid scenario name"):
            Scenario("a:b")


class TestCornerSet:
    def test_parse_presets_and_custom(self):
        corners = CornerSet.parse("tt,ss,wc:1.2:1.1:1.3")
        assert corners.names == ["tt", "ss", "wc"]
        custom = corners[2]
        assert custom.wire_res_scale == 1.2
        assert custom.wire_cap_scale == 1.1
        assert custom.buffer_derate == 1.3
        assert custom.ntsv_res_scale == 1.2  # defaults to the wire R scale

    def test_parse_signoff_shorthand(self):
        assert CornerSet.parse("signoff").names == ["tt", "ss", "ff", "hot", "cold"]

    def test_parse_rejects_unknown_and_malformed(self):
        with pytest.raises(ValueError, match="unknown corner preset"):
            CornerSet.parse("tt,zz")
        with pytest.raises(ValueError, match="malformed corner spec"):
            CornerSet.parse("wc:1.2")
        with pytest.raises(ValueError, match="non-numeric"):
            CornerSet.parse("wc:a:b:c")

    def test_duplicate_names_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            CornerSet.parse("ss,ss")

    def test_duplicate_error_lists_the_offending_names(self):
        # The message must name the colliding corners (they key metric
        # columns and the serve session-cache identity).
        with pytest.raises(ValueError, match=r"\['tt'\]"):
            CornerSet.parse("tt,tt")
        with pytest.raises(ValueError, match=r"\['ss', 'tt'\]"):
            CornerSet.parse("tt,ss,tt,ss")

    def test_duplicate_via_signoff_expansion_rejected(self):
        # "signoff" expands to the five presets, so adding tt again collides.
        with pytest.raises(ValueError, match=r"\['tt'\]"):
            CornerSet.parse("signoff,tt")

    def test_custom_corner_shadowing_a_preset_rejected(self):
        with pytest.raises(ValueError, match=r"\['ss'\]"):
            CornerSet.parse("ss,ss:1.2:1.1:1.25")

    def test_ensure_nominal_prepends(self):
        corners = CornerSet.parse("ss,ff").ensure_nominal()
        assert corners.nominal_index() == 0
        assert len(corners) == 3
        # Already-nominal sets are returned untouched.
        assert SIGNOFF.ensure_nominal() is SIGNOFF

    def test_resolve_forms(self):
        assert CornerSet.resolve(None).names == ["tt"]
        assert CornerSet.resolve("ss,ff").names == ["ss", "ff"]
        assert CornerSet.resolve(PRESET_SCENARIOS["ss"]).names == ["ss"]
        assert CornerSet.resolve(SIGNOFF) is SIGNOFF
        assert CornerSet.resolve(list(SIGNOFF)).names == SIGNOFF.names


# ----------------------------------------------------------- full analysis
class TestBatchedFullAnalysis:
    @pytest.mark.parametrize("use_nldm", [False, True])
    def test_matches_reference_loop(self, pdk, use_nldm):
        rng = np.random.default_rng(31)
        for trial in range(5):
            tree = random_tree(rng, sinks=30 + 10 * trial, internals=10 + 4 * trial)
            ref = ElmoreTimingEngine(pdk, use_nldm=use_nldm, corners=SIGNOFF)
            vec = VectorizedElmoreEngine(pdk, use_nldm=use_nldm, corners=SIGNOFF)
            assert_corners_match(ref, vec, tree, context=f"trial {trial}")

    def test_matches_without_backside(self, front_pdk):
        rng = np.random.default_rng(5)
        tree = random_tree(rng, backside=False)
        ref = ElmoreTimingEngine(front_pdk, corners=SIGNOFF)
        vec = VectorizedElmoreEngine(front_pdk, corners=SIGNOFF)
        assert_corners_match(ref, vec, tree, context="front only")

    def test_per_scenario_nldm_override(self, pdk):
        corners = CornerSet(
            (
                Scenario.nominal(),
                Scenario("ss_nldm", wire_res_scale=1.15, buffer_derate=1.18,
                         use_nldm=True),
            )
        )
        tree = random_tree(np.random.default_rng(8), sinks=25, internals=10)
        ref = ElmoreTimingEngine(pdk, corners=corners)
        vec = VectorizedElmoreEngine(pdk, corners=corners)
        assert_corners_match(ref, vec, tree, context="nldm override")
        # The override really produced NLDM delays: they differ from linear.
        linear = ElmoreTimingEngine(
            pdk, corners=CornerSet((Scenario("ss_lin", wire_res_scale=1.15,
                                             buffer_derate=1.18),))
        )
        design = DesignArrays.from_clock_tree(tree)
        assert vec.analyze_corners(design)["ss_nldm"].latency != pytest.approx(
            linear.analyze_corners(tree)["ss_lin"].latency, abs=TOLERANCE
        )

    def test_primary_corner_is_nominal(self, pdk):
        """analyze()/skew()/latency() report nominal even mid-batch."""
        design = random_design(np.random.default_rng(3))
        batched = VectorizedElmoreEngine(pdk, corners="ss,tt,ff")
        nominal = VectorizedElmoreEngine(pdk)
        assert batched.skew(design) == pytest.approx(
            nominal.skew(design), abs=TOLERANCE
        )
        assert batched.latency(design) == pytest.approx(
            nominal.latency(design), abs=TOLERANCE
        )
        result = batched.analyze(design)
        assert result.skew == pytest.approx(nominal.skew(design), abs=TOLERANCE)

    def test_nominal_inserted_when_missing(self, pdk):
        engine = VectorizedElmoreEngine(pdk, corners="ss,ff")
        assert engine.corners.nominal_index() == 0
        assert len(engine.corners) == 3

    def test_loads_report_primary_corner(self, pdk):
        design = random_design(np.random.default_rng(12))
        batched = VectorizedElmoreEngine(pdk, corners=SIGNOFF)
        nominal = ElmoreTimingEngine(pdk)
        ref_loads = nominal.driver_loads(design)
        vec_loads = batched.driver_loads(design)
        assert ref_loads.keys() == vec_loads.keys()
        for name in ref_loads:
            assert ref_loads[name] == pytest.approx(vec_loads[name], abs=TOLERANCE)

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**32 - 1))
    def test_property_random_trees_match(self, pdk, seed):
        rng = np.random.default_rng(seed)
        tree = random_tree(
            rng, sinks=int(rng.integers(5, 60)), internals=int(rng.integers(0, 30))
        )
        ref = ElmoreTimingEngine(pdk, corners=SIGNOFF)
        vec = VectorizedElmoreEngine(pdk, corners=SIGNOFF)
        assert_corners_match(ref, vec, tree, context=f"seed {seed}")


# ------------------------------------------------------------- incremental
class TestBatchedIncremental:
    def test_edit_sequences_match_fresh_reference(self, pdk):
        rng = np.random.default_rng(77)
        design = random_design(rng, sinks=50, internals=25)
        vec = VectorizedElmoreEngine(pdk, corners=SIGNOFF)
        ref = ElmoreTimingEngine(pdk, corners=SIGNOFF)
        assert_corners_match(ref, vec, design, context="initial")
        changed = 0
        for step in range(15):
            kind = random_design_edit(design, rng, pdk)
            changed += kind != "rewire_noop"
            assert_corners_match(ref, vec, design, context=f"step {step} ({kind})")
        # The whole sequence must have been served incrementally: one compile
        # for the initial analysis, then one corner-batched dirty-cone update
        # per step that changed the design.
        assert vec.full_compiles == 1
        assert vec.incremental_updates >= changed

    def test_batched_edits_between_queries(self, pdk):
        rng = np.random.default_rng(123)
        design = random_design(rng, sinks=40, internals=20)
        vec = VectorizedElmoreEngine(pdk, corners="tt,ss,ff")
        for _ in range(4):
            for _ in range(int(rng.integers(1, 4))):
                random_design_edit(design, rng, pdk)
            ref = ElmoreTimingEngine(pdk, corners="tt,ss,ff")
            assert_corners_match(ref, vec, design, context="batched edits")

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**32 - 1))
    def test_property_incremental_matches(self, pdk, seed):
        rng = np.random.default_rng(seed)
        design = random_design(rng, sinks=int(rng.integers(10, 40)), internals=12)
        vec = VectorizedElmoreEngine(pdk, corners=SIGNOFF)
        ref = ElmoreTimingEngine(pdk, corners=SIGNOFF)
        vec.analyze(design)
        for step in range(4):
            kind = random_design_edit(design, rng, pdk)
            assert_corners_match(
                ref, vec, design, context=f"seed {seed} step {step} {kind}"
            )


# ------------------------------------------------------------- integration
class TestFactoryAndConfig:
    def test_factory_passes_corners(self, pdk):
        vec = create_engine(pdk, "vectorized", corners="tt,ss")
        ref = create_engine(pdk, "reference", corners="tt,ss")
        assert vec.corners.names == ["tt", "ss"]
        assert ref.corners.names == ["tt", "ss"]

    def test_config_carries_corner_set(self):
        config = CtsConfig(corners=CornerSet.parse("tt,ss"))
        assert config.corners.names == ["tt", "ss"]
        # with_updates round-trips the frozen dataclass.
        assert config.with_updates(seed=1).corners is config.corners

    def test_cli_parses_corners_flag(self):
        from repro.cli import _config_for, build_parser

        args = build_parser().parse_args(["run", "C4", "--corners", "tt,ss,ff"])
        config = _config_for(args)
        assert config.corners.names == ["tt", "ss", "ff"]
        args = build_parser().parse_args(["run", "C4"])
        assert _config_for(args).corners is None

    def test_evaluate_tree_corner_columns(self, pdk):
        design = random_design(np.random.default_rng(1))
        metrics = evaluate_tree(design, pdk, design="d", flow="f", corners="tt,ss,ff")
        assert set(metrics.corner_skews) == {"tt", "ss", "ff"}
        assert metrics.worst_skew >= metrics.skew - TOLERANCE
        assert metrics.corner_skews["tt"] == pytest.approx(metrics.skew, abs=TOLERANCE)
        row = metrics.as_row()
        assert row["worst_corner"] in {"tt", "ss", "ff"}
        assert row["skew_ss_ps"] == pytest.approx(metrics.corner_skews["ss"], abs=1e-3)
        # Nominal-only evaluation keeps the classic columns.
        nominal = evaluate_tree(design, pdk, design="d", flow="f")
        assert not nominal.corner_skews
        assert "worst_corner" not in nominal.as_row()

    def test_dse_objectives_use_worst_corner(self, pdk):
        from repro.dse.explorer import DsePoint

        metrics = evaluate_tree(
            random_design(np.random.default_rng(2)), pdk, corners="tt,ss"
        )
        point = DsePoint(configuration="c", parameter=1.0, metrics=metrics)
        assert point.objectives[0] == pytest.approx(metrics.worst_latency)
        assert point.objectives[1] == pytest.approx(metrics.worst_skew)
        # ss is strictly slower than tt, so the worst corner dominates.
        assert metrics.worst_skew == pytest.approx(metrics.corner_skews["ss"])


class TestRegressionGate:
    def test_gate_passes_and_fails(self, tmp_path):
        import json
        import sys

        sys.path.insert(0, "benchmarks")
        try:
            import check_regression
        finally:
            sys.path.pop(0)

        floors = tmp_path / "floors.json"
        floors.write_text(json.dumps({"smoke": {"repeated_skew": 100.0}}))
        results = tmp_path / "results.json"
        results.write_text(
            json.dumps([{"flow": "repeated_skew", "sinks": 500, "speedup": 250.0}])
        )
        argv = ["--results", str(results), "--floors", str(floors), "--mode", "smoke"]
        assert check_regression.main(argv) == 0
        results.write_text(
            json.dumps([{"flow": "repeated_skew", "sinks": 500, "speedup": 50.0}])
        )
        assert check_regression.main(argv) == 1
        assert check_regression.main(["--results", str(tmp_path / "nope.json")]) == 2
