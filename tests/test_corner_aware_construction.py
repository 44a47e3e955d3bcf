"""Differential and effectiveness tests for corner-aware construction.

Corner-aware construction moves the PVT corner batch from evaluation into
the optimisation loops themselves: the insertion DP propagates per-corner
(cap, delay) tuples and selects on worst-corner cost, and the skew
refinement accepts/rejects edits on worst-corner skew.  These tests pin the
two contracts that make that safe:

* **Engine equivalence** — the vectorized (batched) and reference
  (per-corner loop) engines must drive the optimizers to *identical*
  decisions, with candidate costs agreeing to 1e-9, including after random
  splice/rewire edit sequences served from the incremental path.
* **Executable spec** — the DP's per-corner cost tuples must equal what the
  reference engine's per-corner loop measures on the realised tree, i.e. the
  analytic corner cost model and ``scenario.apply_to`` timing are the same
  model.

Plus the effectiveness regression of the tentpole: corner-aware refinement
must reach a worst-corner skew no worse than nominal-optimised refinement on
the generated design suite, without regressing nominal skew past the
configured budget.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.designs import benchmark_suite
from repro.flow import CtsConfig, DoubleSideCTS
from repro.insertion import ConcurrentInserter
from repro.insertion.candidate import CandidateSolution
from repro.insertion.patterns import PATTERNS
from repro.ir.design import DesignArrays
from repro.refinement import SkewRefiner
from repro.routing import HierarchicalClockRouter
from repro.tech import CornerSet
from repro.tech.layers import Side
from repro.timing import ElmoreTimingEngine, create_engine
from tests.conftest import make_random_clock_net
from tests.test_timing_vectorized import random_design, random_design_edit

TOLERANCE = 1e-9

SIGNOFF = CornerSet.parse("tt,ss,ff,hot,cold")

ENGINES = ("reference", "vectorized")


def route(pdk, count=100, extent=140.0, seed=6):
    """A routed, unbuffered design of a random sink cloud."""
    clock_net = make_random_clock_net(count=count, extent=extent, seed=seed)
    config = CtsConfig(high_cluster_size=60, low_cluster_size=8)
    router = HierarchicalClockRouter(pdk, config=config)
    return router.route_design(clock_net).design


def tree_shape(design) -> list[tuple]:
    """A structural fingerprint: every node with its parent, kind and sides."""
    tree = design.to_clock_tree()
    return sorted(
        (
            node.name,
            node.kind.value,
            node.side.value,
            node.wire_side.value,
            node.parent.name if node.parent is not None else "",
        )
        for node in tree.nodes()
    )


def refine_tree(refiner: SkewRefiner, tree):
    """Refine a design compiled from ``tree``; return the report and the
    refined design realised as an object tree."""
    design = DesignArrays.from_clock_tree(tree)
    report = refiner.refine(design)
    return report, design.to_clock_tree()


def refinement_edits(tree, before_names: set[str]) -> list[tuple]:
    """The endpoint edits a refinement made: (buffer parent, adopted sinks)."""
    return sorted(
        (
            node.parent.name,
            tuple(sorted(child.name for child in node.children)),
        )
        for node in tree.nodes()
        if node.name not in before_names
    )


# --------------------------------------------------------------- insertion DP
class TestCornerAwareInsertionDp:
    @pytest.mark.parametrize("engine", ENGINES)
    def test_dp_corner_tuples_match_reference_engine_loop(self, pdk, engine):
        """The DP's per-corner cost prediction is the reference per-corner loop.

        For every corner of the batch, the selected candidate's corner tuple
        entry must equal the latency/min-arrival that the reference engine
        (one ``scenario.apply_to(pdk)`` analysis per corner — the executable
        spec) measures on the realised tree.
        """
        design = route(pdk)
        result = ConcurrentInserter(pdk, engine=engine, corners=SIGNOFF).run(design)
        selected = result.selected
        reference = ElmoreTimingEngine(pdk, corners=SIGNOFF)
        per_corner = reference.analyze_corners(design, with_slew=False)
        for k, name in enumerate(reference.corners.names):
            assert selected.corner_max_delay[k] == pytest.approx(
                per_corner[name].latency, abs=TOLERANCE
            ), name
            assert selected.corner_min_delay[k] == pytest.approx(
                per_corner[name].min_arrival, abs=TOLERANCE
            ), name

    def test_engines_pick_identical_candidates(self, pdk):
        """Both engines must realise the same tree from the same DP run."""
        results = {}
        for engine in ENGINES:
            results[engine] = ConcurrentInserter(
                pdk, engine=engine, corners=SIGNOFF
            ).run(route(pdk))
        ref, vec = results["reference"], results["vectorized"]
        assert ref.selected.corner_max_delay == pytest.approx(
            vec.selected.corner_max_delay, abs=TOLERANCE
        )
        assert ref.selected.corner_capacitance == pytest.approx(
            vec.selected.corner_capacitance, abs=TOLERANCE
        )
        assert ref.inserted_buffers == vec.inserted_buffers
        assert ref.inserted_ntsvs == vec.inserted_ntsvs
        assert tree_shape(ref.tree) == tree_shape(vec.tree)
        # And the final corner sign-off of the two runs agrees to 1e-9.
        for name in ref.timing_per_corner:
            assert ref.timing_per_corner[name].skew == pytest.approx(
                vec.timing_per_corner[name].skew, abs=TOLERANCE
            ), name

    def test_pattern_costs_match_per_corner_nominal_loop(self, pdk):
        """Corner tuple entry k of a pattern cost == nominal DP on corner k.

        This pins the corner cost model at the ``_apply_pattern`` level: the
        batched evaluation must be exactly the per-corner loop of nominal
        evaluations against each ``scenario.apply_to(pdk)`` technology.
        """
        corner_inserter = ConcurrentInserter(pdk, corners=SIGNOFF)
        corners = corner_inserter.corners
        corner_count = len(corners)
        base = CandidateSolution(
            up_side=Side.FRONT,
            capacitance=3.0,
            max_delay=5.0,
            min_delay=2.0,
            corner_capacitance=(3.0,) * corner_count,
            corner_max_delay=(5.0,) * corner_count,
            corner_min_delay=(2.0,) * corner_count,
        )
        nominal_base = CandidateSolution(
            up_side=Side.FRONT, capacitance=3.0, max_delay=5.0, min_delay=2.0
        )
        length = 37.0
        for pattern in PATTERNS:
            batched = corner_inserter._apply_pattern(pattern, length, base)
            for k, scenario in enumerate(corners):
                single = ConcurrentInserter(scenario.apply_to(pdk))._apply_pattern(
                    pattern, length, nominal_base
                )
                if batched is None:
                    assert single is None or not scenario.is_nominal
                    continue
                assert single is not None, (pattern.name, scenario.name)
                assert batched.corner_capacitance[k] == pytest.approx(
                    single.capacitance, abs=TOLERANCE
                ), (pattern.name, scenario.name)
                assert batched.corner_max_delay[k] == pytest.approx(
                    single.max_delay, abs=TOLERANCE
                ), (pattern.name, scenario.name)
                assert batched.corner_min_delay[k] == pytest.approx(
                    single.min_delay, abs=TOLERANCE
                ), (pattern.name, scenario.name)

    def test_scalar_fields_mirror_primary_corner(self, pdk):
        """Every root candidate's scalars equal its nominal tuple entries."""
        result = ConcurrentInserter(pdk, corners=SIGNOFF).run(route(pdk))
        primary = SIGNOFF.nominal_index()
        for candidate in result.root_candidates:
            assert candidate.capacitance == candidate.corner_capacitance[primary]
            assert candidate.max_delay == candidate.corner_max_delay[primary]
            assert candidate.min_delay == candidate.corner_min_delay[primary]

    def test_max_cap_respected_at_every_corner(self, pdk):
        """The driven-load constraint is physical: it holds per corner."""
        design = route(pdk)
        ConcurrentInserter(pdk, corners=SIGNOFF).run(design)
        for scenario in SIGNOFF:
            engine = ElmoreTimingEngine(scenario.apply_to(pdk))
            assert engine.max_capacitance_violations(design) == [], scenario.name

    def test_worst_corner_views_on_candidates(self, pdk):
        result = ConcurrentInserter(pdk, corners=SIGNOFF).run(route(pdk))
        selected = result.selected
        assert selected.worst_max_delay == max(selected.corner_max_delay)
        assert selected.worst_capacitance == max(selected.corner_capacitance)
        assert selected.worst_max_delay >= selected.max_delay - TOLERANCE
        # Nominal-only candidates degrade to the scalar fields.
        nominal = CandidateSolution(
            up_side=Side.FRONT, capacitance=1.0, max_delay=4.0, min_delay=1.0
        )
        assert nominal.worst_max_delay == 4.0
        assert nominal.worst_capacitance == 1.0
        assert nominal.worst_skew == 3.0

    @settings(max_examples=5, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**32 - 1))
    def test_property_engines_agree_on_random_nets(self, pdk, seed):
        rng = np.random.default_rng(seed)
        count = int(rng.integers(30, 80))
        results = {}
        for engine in ENGINES:
            results[engine] = ConcurrentInserter(
                pdk, engine=engine, corners=SIGNOFF
            ).run(route(pdk, count=count, seed=seed % 1000))
        ref, vec = results["reference"], results["vectorized"]
        assert ref.selected.corner_max_delay == pytest.approx(
            vec.selected.corner_max_delay, abs=TOLERANCE
        )
        assert tree_shape(ref.tree) == tree_shape(vec.tree)
        # Executable spec: DP tuples == per-corner reference loop latencies.
        reference = ElmoreTimingEngine(pdk, corners=SIGNOFF)
        per_corner = reference.analyze_corners(ref.tree, with_slew=False)
        for k, name in enumerate(reference.corners.names):
            assert ref.selected.corner_max_delay[k] == pytest.approx(
                per_corner[name].latency, abs=TOLERANCE
            ), (seed, name)


# ------------------------------------------------------------ skew refinement
@pytest.fixture(scope="module")
def unrefined_tree(pdk, small_design, small_config):
    """A buffered but unrefined tree shared by the refinement tests."""
    config = small_config.with_updates(enable_skew_refinement=False)
    return DoubleSideCTS(pdk, config).run(small_design).tree


class TestCornerAwareRefinement:
    def test_engines_make_identical_edits(self, pdk, unrefined_tree):
        reports = {}
        trees = {}
        before_names = {node.name for node in unrefined_tree.nodes()}
        for engine in ENGINES:
            reports[engine], tree = refine_tree(
                SkewRefiner(
                    pdk,
                    force=True,
                    engine=engine,
                    corners=SIGNOFF,
                    nominal_skew_budget=2.0,
                ),
                unrefined_tree,
            )
            trees[engine] = (tree, before_names)
        ref, vec = reports["reference"], reports["vectorized"]
        assert ref.added_buffers == vec.added_buffers
        ref_edits = refinement_edits(*trees["reference"])
        vec_edits = refinement_edits(*trees["vectorized"])
        assert ref_edits == vec_edits
        assert ref.worst_skew_after == pytest.approx(
            vec.worst_skew_after, abs=TOLERANCE
        )
        assert ref.after.skew == pytest.approx(vec.after.skew, abs=TOLERANCE)

    @pytest.mark.parametrize("engine", ENGINES)
    def test_worst_corner_never_degrades(self, pdk, unrefined_tree, engine):
        report, tree = refine_tree(
            SkewRefiner(pdk, force=True, engine=engine, corners=SIGNOFF),
            unrefined_tree,
        )
        assert report.worst_skew_after <= report.worst_skew_before + TOLERANCE
        # The zero default budget means nominal skew must not regress at all.
        assert report.after.skew <= report.before.skew + TOLERANCE
        tree.validate()

    def test_corner_report_fields(self, pdk, unrefined_tree):
        report, _ = refine_tree(
            SkewRefiner(pdk, force=True, corners=SIGNOFF), unrefined_tree
        )
        assert set(report.corner_skews_before) == set(SIGNOFF.names)
        assert set(report.corner_skews_after) == set(SIGNOFF.names)
        assert report.worst_skew_before == max(report.corner_skews_before.values())
        assert report.worst_skew_reduction >= -TOLERANCE
        summary = report.summary()
        assert {"worst_skew_before_ps", "worst_skew_after_ps"} <= set(summary)
        # Nominal-only reports keep the classic shape.
        nominal_report, _ = refine_tree(SkewRefiner(pdk, force=True), unrefined_tree)
        assert nominal_report.corner_skews_before == {}
        assert "worst_skew_before_ps" not in nominal_report.summary()
        assert nominal_report.worst_skew_after == nominal_report.after.skew

    def test_not_triggered_below_corner_trigger(self, pdk, unrefined_tree):
        report, _ = refine_tree(
            SkewRefiner(pdk, skew_trigger_fraction=0.999, corners=SIGNOFF),
            unrefined_tree,
        )
        assert not report.triggered
        assert report.added_buffers == 0
        assert report.corner_skews_before == report.corner_skews_after

    def test_invalid_budget_rejected(self, pdk):
        with pytest.raises(ValueError, match="budget"):
            SkewRefiner(pdk, nominal_skew_budget=-1.0)

    @settings(max_examples=5, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**32 - 1))
    def test_property_identical_edits_after_random_edit_sequences(self, pdk, seed):
        """Engines agree on refinement decisions after splice/rewire churn.

        The tree first suffers a random recorded edit sequence (splices and
        rewires), then both engines refine copies corner-aware; the
        vectorized engine serves the trial loop from its corner-batched
        incremental path and must make exactly the reference decisions.
        """
        rng = np.random.default_rng(seed)
        design = random_design(rng, sinks=int(rng.integers(20, 50)), internals=12)
        for _ in range(int(rng.integers(1, 6))):
            random_design_edit(design, rng, pdk)
        tree = design.to_clock_tree()
        before_names = {node.name for node in tree.nodes()}
        reports = {}
        edits = {}
        for engine in ENGINES:
            reports[engine], refined = refine_tree(
                SkewRefiner(
                    pdk,
                    force=True,
                    engine=engine,
                    corners=SIGNOFF,
                    nominal_skew_budget=1.0,
                ),
                tree,
            )
            edits[engine] = refinement_edits(refined, before_names)
        assert edits["reference"] == edits["vectorized"], seed
        assert reports["reference"].added_buffers == reports["vectorized"].added_buffers
        assert reports["reference"].worst_skew_after == pytest.approx(
            reports["vectorized"].worst_skew_after, abs=TOLERANCE
        ), seed


# ------------------------------------------------------- flow / CLI / DSE
class TestCornerAwareFlowSurfaces:
    def test_flow_builds_corner_aware(self, pdk, small_design, small_config):
        config = small_config.with_updates(
            corners=SIGNOFF,
            corner_aware_construction=True,
            nominal_skew_budget=1.0,
        )
        result = DoubleSideCTS(pdk, config).run(small_design)
        result.tree.validate()
        assert set(result.metrics.corner_skews) == set(SIGNOFF.names)
        assert result.insertion.timing_per_corner is not None
        assert result.insertion.worst_skew >= result.insertion.skew - TOLERANCE
        if result.skew_report is not None and result.skew_report.triggered:
            assert set(result.skew_report.corner_skews_after) == set(SIGNOFF.names)

    def test_config_construction_corners_gate(self):
        plain = CtsConfig(corners=SIGNOFF)
        assert plain.construction_corners() is None
        aware = CtsConfig(corners=SIGNOFF, corner_aware_construction=True)
        assert aware.construction_corners() is SIGNOFF
        off = CtsConfig(corner_aware_construction=True)
        assert off.construction_corners() is None

    def test_cli_flag_round_trip(self):
        from repro.cli import CliError, _config_for, build_parser

        args = build_parser().parse_args(
            [
                "run",
                "C4",
                "--corners",
                "tt,ss",
                "--corner-aware-construction",
                "--nominal-skew-budget",
                "1.5",
            ]
        )
        config = _config_for(args)
        assert config.corner_aware_construction
        assert config.nominal_skew_budget == 1.5
        assert config.corners.names == ["tt", "ss"]
        # The flag without --corners is a usage error (typed, so main()
        # can render it as a one-line message and --debug can reraise it).
        bad = build_parser().parse_args(["run", "C4", "--corner-aware-construction"])
        with pytest.raises(CliError, match="--corners"):
            _config_for(bad)
        # So is a nominal-skew budget without corner-aware construction.
        bad = build_parser().parse_args(
            ["run", "C4", "--corners", "tt,ss", "--nominal-skew-budget", "1.0"]
        )
        with pytest.raises(CliError, match="corner-aware"):
            _config_for(bad)

    def test_dse_sweep_runs_corner_aware(self, pdk):
        from repro.dse import DesignSpaceExplorer

        designs = benchmark_suite(scale=0.05, include_combinational=False, only=["C4"])
        config = CtsConfig(
            high_cluster_size=60,
            low_cluster_size=8,
            corners=SIGNOFF,
            corner_aware_construction=True,
        )
        result = DesignSpaceExplorer(pdk, config).explore(
            designs["C4"], fanout_thresholds=[0, 1000]
        )
        assert len(result.points) == 2
        for point in result.points:
            assert set(point.metrics.corner_skews) == set(SIGNOFF.names)
            assert point.objectives[1] == pytest.approx(point.metrics.worst_skew)


# ------------------------------------------------- effectiveness regression
class TestEffectivenessRegression:
    """Corner-aware refinement must beat (or tie) nominal-optimised refinement
    on worst-corner skew across the generated design suite, for both engines,
    without regressing nominal skew past the configured budget."""

    BUDGET = 2.0

    @pytest.fixture(scope="class")
    def suite_trees(self, pdk):
        designs = benchmark_suite(
            scale=0.25, include_combinational=False, only=["C4", "C5"]
        )
        config = CtsConfig(
            high_cluster_size=400,
            low_cluster_size=30,
            seed=7,
            enable_skew_refinement=False,
        )
        return {
            bench_id: DoubleSideCTS(pdk, config).run(design).tree
            for bench_id, design in designs.items()
        }

    @pytest.mark.parametrize("engine", ENGINES)
    @pytest.mark.parametrize("bench_id", ["C4", "C5"])
    def test_corner_aware_beats_nominal_refinement(
        self, pdk, suite_trees, engine, bench_id
    ):
        base = suite_trees[bench_id]
        _, nominal_tree = refine_tree(
            SkewRefiner(pdk, force=True, engine=engine), base
        )
        report, corner_tree = refine_tree(
            SkewRefiner(
                pdk,
                force=True,
                engine=engine,
                corners=SIGNOFF,
                nominal_skew_budget=self.BUDGET,
            ),
            base,
        )

        signoff = create_engine(pdk, engine, corners=SIGNOFF)
        nominal_opt_worst = signoff.worst_skew(
            DesignArrays.from_clock_tree(nominal_tree)
        )
        corner_opt_worst = signoff.worst_skew(DesignArrays.from_clock_tree(corner_tree))
        assert corner_opt_worst <= nominal_opt_worst + TOLERANCE, (
            bench_id,
            engine,
            corner_opt_worst,
            nominal_opt_worst,
        )
        # Worst-corner skew never degrades past the unrefined tree either.
        assert corner_opt_worst <= report.worst_skew_before + TOLERANCE
        # Nominal skew regression is bounded by the configured budget.
        assert report.after.skew <= report.before.skew + self.BUDGET + TOLERANCE
