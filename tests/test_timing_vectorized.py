"""Differential tests: VectorizedElmoreEngine vs the reference engine.

The vectorized kernel must be numerically indistinguishable (to 1e-9) from
:class:`ElmoreTimingEngine` on arbitrary trees, with and without NLDM
delays and nTSVs, and — crucially — after arbitrary sequences of
incremental :class:`DesignArrays` edits served from the engine's
dirty-cone path.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.clocktree import ClockTree, ClockTreeNode, NodeKind
from repro.geometry import Point
from repro.ir.design import KIND_BUFFER, KIND_SINK, KIND_STEINER, DesignArrays
from repro.tech.layers import Side
from repro.timing import (
    ElmoreTimingEngine,
    VectorizedElmoreEngine,
    create_engine,
)

TOLERANCE = 1e-9

#: Every per-row column of a :class:`DesignArrays`.
DESIGN_COLUMNS = (
    "parent_row",
    "kind",
    "edge_length",
    "wire_front",
    "cap",
    "x",
    "y",
    "side_front",
)


# --------------------------------------------------------------- generators
def random_tree(
    rng: np.random.Generator,
    sinks: int = 50,
    internals: int = 20,
    backside: bool = True,
) -> ClockTree:
    """A seeded random tree exercising every node kind and wire side."""
    root = ClockTreeNode("root", NodeKind.ROOT, Point(0.0, 0.0))
    tree = ClockTree(root)
    nodes = [root]
    kinds = [NodeKind.STEINER, NodeKind.TAP, NodeKind.BUFFER]
    if backside:
        kinds.append(NodeKind.NTSV)

    def random_side() -> Side:
        if backside and rng.random() < 0.3:
            return Side.BACK
        return Side.FRONT

    for i in range(internals):
        kind = kinds[int(rng.integers(len(kinds)))]
        capacitance = 0.0
        if kind is NodeKind.BUFFER:
            capacitance = float(rng.uniform(0.5, 1.5))
        elif kind is NodeKind.NTSV:
            capacitance = 0.004
        node = ClockTreeNode(
            f"n{i}",
            kind,
            Point(float(rng.uniform(0, 100)), float(rng.uniform(0, 100))),
            capacitance=capacitance,
            wire_side=random_side(),
        )
        nodes[int(rng.integers(len(nodes)))].add_child(node)
        nodes.append(node)
    for i in range(sinks):
        node = ClockTreeNode(
            f"s{i}",
            NodeKind.SINK,
            Point(float(rng.uniform(0, 100)), float(rng.uniform(0, 100))),
            capacitance=float(rng.uniform(0.5, 2.0)),
            wire_side=random_side(),
        )
        nodes[int(rng.integers(len(nodes)))].add_child(node)
    return tree


def assert_engines_match(reference, vectorized, tree, context="") -> None:
    """The reference engine on ``tree`` equals the vectorized engine on the
    tree's compiled design; loads are compared by node name."""
    design = DesignArrays.from_clock_tree(tree)
    a = reference.analyze(tree)
    b = vectorized.analyze(design)
    assert a.arrivals.keys() == b.arrivals.keys(), context
    for name in a.arrivals:
        assert a.arrivals[name] == pytest.approx(b.arrivals[name], abs=TOLERANCE), (
            context,
            name,
        )
        assert a.slews[name] == pytest.approx(b.slews[name], abs=TOLERANCE), (
            context,
            name,
        )
    ref_loads = reference.driver_loads(tree)
    vec_loads = vectorized.driver_loads(design)
    assert ref_loads.keys() == vec_loads.keys(), context
    for key in ref_loads:
        assert ref_loads[key] == pytest.approx(vec_loads[key], abs=TOLERANCE), context
    ref_caps = reference.subtree_capacitances(tree)
    vec_caps = vectorized.subtree_capacitances(design)
    assert ref_caps.keys() == vec_caps.keys(), context
    for key in ref_caps:
        assert ref_caps[key] == pytest.approx(vec_caps[key], abs=TOLERANCE), context
    ref_violations = sorted(reference.max_capacitance_violations(tree))
    vec_violations = sorted(vectorized.max_capacitance_violations(design))
    assert [name for name, _ in ref_violations] == [
        name for name, _ in vec_violations
    ], context
    for (_, ref_load), (_, vec_load) in zip(ref_violations, vec_violations):
        assert ref_load == pytest.approx(vec_load, abs=TOLERANCE), context


# ----------------------------------------------------------- full analysis
class TestFullAnalysisDifferential:
    @pytest.mark.parametrize("use_nldm", [False, True])
    def test_matches_reference_on_random_trees(self, pdk, use_nldm):
        rng = np.random.default_rng(17)
        for trial in range(10):
            tree = random_tree(rng, sinks=40 + 10 * trial, internals=10 + 5 * trial)
            ref = ElmoreTimingEngine(pdk, use_nldm=use_nldm)
            vec = VectorizedElmoreEngine(pdk, use_nldm=use_nldm)
            assert_engines_match(ref, vec, tree, context=f"trial {trial}")

    def test_matches_reference_without_backside(self, front_pdk):
        rng = np.random.default_rng(23)
        for trial in range(5):
            tree = random_tree(rng, backside=False)
            ref = ElmoreTimingEngine(front_pdk)
            vec = VectorizedElmoreEngine(front_pdk)
            assert_engines_match(ref, vec, tree, context=f"trial {trial}")

    def test_latency_and_skew_shortcuts(self, pdk):
        tree = random_tree(np.random.default_rng(5))
        design = DesignArrays.from_clock_tree(tree)
        ref = ElmoreTimingEngine(pdk)
        vec = VectorizedElmoreEngine(pdk)
        assert vec.latency(design) == pytest.approx(ref.latency(tree), abs=TOLERANCE)
        assert vec.skew(design) == pytest.approx(ref.skew(tree), abs=TOLERANCE)

    def test_inner_root_kind_node_matches_reference(self, pdk):
        """A ROOT-kind node grafted internally still gets the source stage."""
        tree = random_tree(np.random.default_rng(9), sinks=10, internals=5)
        inner = ClockTreeNode("inner_root", NodeKind.ROOT, Point(5, 5))
        tree.root.add_child(inner)
        inner.add_child(
            ClockTreeNode("s_inner", NodeKind.SINK, Point(6, 6), capacitance=1.0)
        )
        assert_engines_match(
            ElmoreTimingEngine(pdk), VectorizedElmoreEngine(pdk), tree, "inner root"
        )

    def test_no_sinks_raises(self, pdk):
        tree = ClockTree(ClockTreeNode("root", NodeKind.ROOT, Point(0, 0)))
        with pytest.raises(ValueError, match="no sinks"):
            VectorizedElmoreEngine(pdk).analyze(DesignArrays.from_clock_tree(tree))

    def test_ntsv_without_pdk_cell_raises(self, front_pdk):
        from dataclasses import replace

        no_via_pdk = replace(front_pdk, ntsv=None)
        tree = random_tree(np.random.default_rng(3), backside=False)
        ntsv = ClockTreeNode(
            "via", NodeKind.NTSV, Point(1, 1), capacitance=0.004
        )
        tree.root.add_child(ntsv)
        ntsv.add_child(
            ClockTreeNode("s_extra", NodeKind.SINK, Point(2, 2), capacitance=1.0)
        )
        with pytest.raises(ValueError, match="nTSVs but the PDK has none"):
            VectorizedElmoreEngine(no_via_pdk).analyze(
                DesignArrays.from_clock_tree(tree)
            )
        with pytest.raises(ValueError, match="nTSVs but the PDK has none"):
            ElmoreTimingEngine(no_via_pdk).analyze(tree)

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**32 - 1))
    def test_property_random_trees_match(self, pdk, seed):
        rng = np.random.default_rng(seed)
        tree = random_tree(
            rng,
            sinks=int(rng.integers(5, 80)),
            internals=int(rng.integers(0, 40)),
        )
        ref = ElmoreTimingEngine(pdk)
        vec = VectorizedElmoreEngine(pdk)
        assert_engines_match(ref, vec, tree, context=f"seed {seed}")


# ----------------------------------------------------------- incremental
def random_design(rng: np.random.Generator, **kwargs) -> DesignArrays:
    """A :func:`random_tree` compiled into a design."""
    return DesignArrays.from_clock_tree(random_tree(rng, **kwargs))


def random_design_edit(design: DesignArrays, rng: np.random.Generator, pdk) -> str:
    """Apply one random structural edit through the ``DesignArrays`` mutators."""
    choice = rng.random()
    sinks = design.sink_rows()
    target = int(sinks[int(rng.integers(len(sinks)))])
    parent = int(design.parent_row[target])
    mid_x = float(design.x[target] + design.x[parent]) / 2.0
    mid_y = float(design.y[target] + design.y[parent]) / 2.0
    if choice < 0.35:
        design.add_buffer(target, mid_x, mid_y, pdk.buffer.input_capacitance)
        return "add_buffer"
    if choice < 0.5 and pdk.has_backside:
        upstream_front = bool(design.wire_front[target])
        design.add_ntsv(target, mid_x, mid_y, pdk.ntsv.capacitance, upstream_front)
        return "add_ntsv"
    if choice < 0.75:
        # The skew refiner's end-point edit: a new buffer adopting leaf sinks.
        buffer_row = design.add_child(
            parent,
            design.new_name("sr_buf"),
            KIND_BUFFER,
            float(design.x[parent]),
            float(design.y[parent]),
            capacitance=pdk.buffer.input_capacitance,
        )
        leaf_sinks = [
            c for c in design.children_rows[parent] if design.kind[c] == KIND_SINK
        ]
        for sink in leaf_sinks[:2]:
            design.move_child(sink, buffer_row)
        return "rewire_insert"
    # Undo-style rewire: dissolve the newest row, the only one a design can
    # remove, back into its parent when it is a buffer.
    buffer_row = design.size - 1
    if design.kind[buffer_row] != KIND_BUFFER:
        return "rewire_noop"  # the design is unchanged
    parent = int(design.parent_row[buffer_row])
    for child in list(design.children_rows[buffer_row]):
        design.move_child(child, parent)
    design.remove_leaf(buffer_row)
    return "rewire_remove"


def assert_design_engines_match(reference, vectorized, design, context="") -> None:
    """The vectorized engine's (incremental) state equals a reference walk
    of a fresh realisation of the design: sink arrivals and slews, every
    node's driver load and subtree capacitance, and the max-load violations
    with their loads.  The reference times the realised tree, so the oracle
    never trusts the design's version."""
    tree = design.to_clock_tree()
    a = reference.analyze(tree)
    b = vectorized.analyze(design)
    assert a.arrivals.keys() == b.arrivals.keys(), context
    for name in a.arrivals:
        assert a.arrivals[name] == pytest.approx(b.arrivals[name], abs=TOLERANCE), (
            context,
            name,
        )
        assert a.slews[name] == pytest.approx(b.slews[name], abs=TOLERANCE), (
            context,
            name,
        )
    state = vectorized._state
    assert state.arrays is design, context
    ref_loads = reference.driver_loads(tree)
    ref_caps = reference.subtree_capacitances(tree)
    vec_loads = state.load[vectorized.primary_index]
    vec_caps = state.down_cap[vectorized.primary_index]
    for node in tree.nodes():
        row = design.name_to_row[node.name]
        assert ref_loads[node.name] == pytest.approx(vec_loads[row], abs=TOLERANCE), (
            context,
            "load",
            node.name,
        )
        assert ref_caps[node.name] == pytest.approx(vec_caps[row], abs=TOLERANCE), (
            context,
            "down_cap",
            node.name,
        )
    ref_violations = sorted(reference.max_capacitance_violations(tree))
    vec_violations = sorted(vectorized.max_capacitance_violations(design))
    assert [name for name, _ in ref_violations] == [
        name for name, _ in vec_violations
    ], context
    for (_, ref_load), (_, vec_load) in zip(ref_violations, vec_violations):
        assert ref_load == pytest.approx(vec_load, abs=TOLERANCE), context


class TestIncrementalDifferential:
    def test_edit_sequences_match_fresh_reference(self, pdk):
        rng = np.random.default_rng(41)
        design = random_design(rng, sinks=60, internals=30)
        vec = VectorizedElmoreEngine(pdk)
        ref = ElmoreTimingEngine(pdk)
        assert_design_engines_match(ref, vec, design, context="initial")
        changed = 0
        for step in range(25):
            kind = random_design_edit(design, rng, pdk)
            changed += kind != "rewire_noop"
            assert_design_engines_match(
                ref, vec, design, context=f"step {step} ({kind})"
            )
        # The whole sequence must have been served incrementally: one compile
        # for the initial analysis, then one dirty-cone update per step that
        # changed the design.
        assert vec.full_compiles == 1
        assert vec.incremental_updates >= changed

    def test_interleaved_queries_and_batched_edits(self, pdk):
        rng = np.random.default_rng(99)
        design = random_design(rng, sinks=50, internals=25)
        vec = VectorizedElmoreEngine(pdk)
        for _ in range(5):
            # Batch several edits between queries (SkewRefiner batch mode).
            for _ in range(int(rng.integers(1, 5))):
                random_design_edit(design, rng, pdk)
            ref = ElmoreTimingEngine(pdk)
            assert_design_engines_match(ref, vec, design, context="batched")
            # Version-stable repeated queries hit the cache and stay equal.
            assert vec.skew(design) == pytest.approx(
                ref.skew(design), abs=TOLERANCE
            )

    def test_incremental_back_wire_without_backside_raises(self, front_pdk):
        """Reference parity: a back-side wire must raise on the dirty-cone path too."""
        rng = np.random.default_rng(13)
        design = random_design(rng, backside=False)
        vec = VectorizedElmoreEngine(front_pdk)
        vec.analyze(design)
        sink = int(design.sink_rows()[0])
        design.insert_on_edge(
            sink,
            KIND_STEINER,
            float(design.x[sink]),
            float(design.y[sink]),
            wire_front=False,
        )
        with pytest.raises(ValueError, match="no back-side"):
            ElmoreTimingEngine(front_pdk).analyze(design)
        with pytest.raises(ValueError, match="no back-side"):
            vec.analyze(design)
        assert vec.full_compiles == 1

    def test_unrecorded_touch_forces_recompile(self, pdk):
        rng = np.random.default_rng(7)
        design = random_design(rng)
        vec = VectorizedElmoreEngine(pdk)
        vec.analyze(design)
        # An unscoped edit (wire side flip) is only visible via touch().
        sink = int(design.sink_rows()[0])
        design.wire_front[sink] = not design.wire_front[sink]
        design.touch()
        assert_design_engines_match(ElmoreTimingEngine(pdk), vec, design, "touch")
        assert vec.full_compiles == 2

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**32 - 1))
    def test_property_incremental_matches(self, pdk, seed):
        rng = np.random.default_rng(seed)
        design = random_design(rng, sinks=int(rng.integers(10, 50)), internals=15)
        vec = VectorizedElmoreEngine(pdk)
        ref = ElmoreTimingEngine(pdk)
        vec.analyze(design)
        for step in range(6):
            kind = random_design_edit(design, rng, pdk)
            assert_design_engines_match(
                ref, vec, design, context=f"seed {seed} step {step} {kind}"
            )


class TestSinkArrivalCache:
    """Regression: a stale or ``None`` sink-row cache never serves stale arrivals.

    A long-lived engine (the serve tier) can end up with a partially dropped
    state — the cached sink-row vector gone while the gathered arrival matrix
    survives.  Both cache entry points must treat that as a miss and rebuild.
    """

    def test_none_rows_cache_forces_rebuild_on_query(self, pdk):
        rng = np.random.default_rng(5)
        design = random_design(rng, sinks=30, internals=15)
        vec = VectorizedElmoreEngine(pdk)
        truth = vec.skew(design)
        state = vec._state
        # Drop only the row vector and poison the kept arrival gather: a
        # matching query must rebuild, not serve the poisoned matrix.
        state.sink_rows_cache = None
        state.sink_arrival = state.sink_arrival + 1e6
        assert vec.skew(design) == pytest.approx(truth, abs=TOLERANCE)
        assert vec.latency(design) == pytest.approx(
            ElmoreTimingEngine(pdk).latency(design), abs=TOLERANCE
        )

    def test_none_rows_cache_drops_cleanly_on_incremental_patch(self, pdk):
        rng = np.random.default_rng(6)
        design = random_design(rng, sinks=30, internals=15)
        vec = VectorizedElmoreEngine(pdk)
        vec.analyze(design)
        state = vec._state
        state.sink_rows_cache = None
        state.sink_arrival = state.sink_arrival + 1e6
        # An incremental edit routes through _patch_sink_arrivals, which must
        # detect the missing row vector, drop the cache, and stay correct.
        random_design_edit(design, rng, pdk)
        assert vec.skew(design) == pytest.approx(
            ElmoreTimingEngine(pdk).skew(design), abs=TOLERANCE
        )
        assert_design_engines_match(ElmoreTimingEngine(pdk), vec, design, "patch")
        assert vec.full_compiles == 1  # still served on the dirty-cone path

    def test_stale_rows_vector_is_a_miss(self, pdk):
        rng = np.random.default_rng(7)
        design = random_design(rng, sinks=20, internals=10)
        vec = VectorizedElmoreEngine(pdk)
        truth = vec.skew(design)
        state = vec._state
        # A row vector from some other design must not validate the cache.
        state.sink_rows_cache = state.sink_rows_cache[:-1]
        state.sink_arrival = state.sink_arrival + 1e6
        assert vec.skew(design) == pytest.approx(truth, abs=TOLERANCE)


# ----------------------------------------------------------- tree boundary
class TestClockTreeArguments:
    """The vectorized engine times designs only; the reference engine walks
    design rows and compiles a tree it is given."""

    @pytest.mark.parametrize(
        "method",
        [
            "analyze",
            "analyze_corners",
            "latency",
            "skew",
            "skew_per_corner",
            "latency_per_corner",
            "worst_skew",
            "worst_latency",
            "max_capacitance_violations",
            "subtree_capacitances",
            "driver_loads",
        ],
    )
    def test_vectorized_timing_entries_reject_a_tree(self, pdk, method):
        tree = random_tree(np.random.default_rng(21), sinks=30, internals=10)
        query = getattr(VectorizedElmoreEngine(pdk), method)
        with pytest.raises(TypeError, match="DesignArrays.from_clock_tree"):
            query(tree)

    @pytest.mark.parametrize("engine", ["reference", "vectorized"])
    def test_evaluate_tree_rejects_a_tree(self, pdk, engine):
        from repro.evaluation.metrics import evaluate_tree

        tree = random_tree(np.random.default_rng(21), sinks=30, internals=10)
        with pytest.raises(TypeError, match="DesignArrays.from_clock_tree"):
            evaluate_tree(tree, pdk, engine=engine)

    @pytest.mark.parametrize("corners", [None, "tt,ss,ff"])
    def test_reference_analyzes_a_design_as_its_tree(self, pdk, corners):
        design = random_design(np.random.default_rng(22), sinks=40, internals=15)
        design.add_buffer(int(design.sink_rows()[0]), 1.0, 1.0, 0.8)
        tree = design.to_clock_tree()
        ref = ElmoreTimingEngine(pdk, corners=corners)
        assert ref.analyze(design) == ref.analyze(tree)
        assert ref.analyze_corners(design) == ref.analyze_corners(tree)
        assert ref.skew_per_corner(design) == ref.skew_per_corner(tree)
        assert ref.latency_per_corner(design) == ref.latency_per_corner(tree)
        assert ref.max_capacitance_violations(
            design
        ) == ref.max_capacitance_violations(tree)

    @pytest.mark.parametrize("method", ["subtree_capacitances", "driver_loads"])
    def test_load_queries_take_a_design_and_agree_by_name(self, pdk, method):
        design = random_design(np.random.default_rng(23), sinks=10, internals=5)
        design.add_buffer(int(design.sink_rows()[0]), 1.0, 1.0, 0.8)
        reference = getattr(create_engine(pdk, "reference"), method)(design)
        vectorized = getattr(create_engine(pdk, "vectorized"), method)(design)
        names = [design.names[row] for row in design.rows_preorder()]
        assert list(reference) == names
        assert list(vectorized) == names
        for name in names:
            assert reference[name] == pytest.approx(
                vectorized[name], abs=TOLERANCE
            ), name

    def test_reference_reports_sinks_in_tree_preorder(self, pdk):
        tree = random_tree(np.random.default_rng(26), sinks=30, internals=10)
        sinks = [node.name for node in tree.nodes() if node.is_sink]
        result = ElmoreTimingEngine(pdk).analyze(tree)
        assert list(result.arrivals) == sinks
        assert sorted(result.slews) == sorted(sinks)

    def test_reference_reads_lengths_from_coordinates(self, pdk):
        design = random_design(np.random.default_rng(27), sinks=30, internals=10)
        clean = DesignArrays.from_clock_tree(design.to_clock_tree())
        sink = int(design.sink_rows()[0])
        design.edge_length[sink] += 50.0  # a stale cached length column
        design.touch()
        ref = ElmoreTimingEngine(pdk)
        assert ref.analyze(design) == ref.analyze(clean)

    @pytest.mark.parametrize("corners", [None, "tt,ss,ff"])
    @pytest.mark.parametrize("engine", ["reference", "vectorized"])
    def test_timing_never_mutates_the_design(self, pdk, engine, corners):
        """Neither engine writes to a design it times, not even to put rows
        that a splice left out of breadth-first order back in it."""
        design = random_design(np.random.default_rng(28), sinks=30, internals=10)
        sink = int(design.sink_rows()[0])
        design.add_buffer(sink, float(design.x[sink]), float(design.y[sink]), 0.8)
        breadth_first = [int(row) for level in design.levels() for row in level]
        assert breadth_first != list(range(design.size))

        def state():
            return (
                design.version,
                design.edit_log,
                design.size,
                list(design.names),
                [list(children) for children in design.children_rows],
                [getattr(design, column).tobytes() for column in DESIGN_COLUMNS],
            )

        before = state()
        timer = create_engine(pdk, engine, corners=corners)
        timer.analyze(design)
        timer.analyze_corners(design)
        timer.skew(design)
        assert state() == before

    def test_popped_sink_row_reused_by_a_new_sink(self, pdk):
        """A row number freed by popping a sink and taken by a new sink must
        not reach the warm engine's per-sink cache as the old sink."""
        design = random_design(np.random.default_rng(29), sinks=20, internals=8)
        parent = int(design.parent_row[int(design.sink_rows()[0])])
        old = design.add_child(parent, "old_sink", KIND_SINK, 1.0, 2.0, capacitance=1.0)
        vec = VectorizedElmoreEngine(pdk)
        assert "old_sink" in vec.analyze(design).arrivals
        design.remove_leaf(old)
        new = design.add_child(0, "new_sink", KIND_SINK, 3.0, 4.0, capacitance=1.0)
        assert new == old
        assert "old_sink" not in vec.analyze(design).arrivals
        assert_design_engines_match(ElmoreTimingEngine(pdk), vec, design, "reuse")


class TestEngineFactory:
    def test_names(self, pdk, monkeypatch):
        # The CI matrix pre-sets REPRO_TIMING_ENGINE; this test checks the
        # un-overridden default, so clear it.
        monkeypatch.delenv("REPRO_TIMING_ENGINE", raising=False)
        assert isinstance(create_engine(pdk, "reference"), ElmoreTimingEngine)
        assert isinstance(create_engine(pdk, "vectorized"), VectorizedElmoreEngine)
        assert isinstance(create_engine(pdk), VectorizedElmoreEngine)
        with pytest.raises(ValueError, match="unknown timing engine"):
            create_engine(pdk, "magic")

    def test_environment_override(self, pdk, monkeypatch):
        monkeypatch.setenv("REPRO_TIMING_ENGINE", "reference")
        assert isinstance(create_engine(pdk), ElmoreTimingEngine)
        assert isinstance(create_engine(pdk, "vectorized"), VectorizedElmoreEngine)
