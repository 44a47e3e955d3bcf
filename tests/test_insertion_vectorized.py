"""Differential tests: vectorized DP backend vs. the per-candidate DP (the spec).

The array-based insertion DP (:mod:`repro.insertion.frontier`) must be
*decision-identical* to the per-candidate DP: the same selected tree
(topology, node names, buffer and nTSV counts), 1e-9-equal root candidate
Pareto fronts, and identical pruning decisions — nominal and corner-aware,
under both timing engines, across selection strategies, insertion modes, and
pruning configurations (including the dominator-relative resource-diversity
rule both backends implement from one definition).  Both backends realise
their decisions on the same design rows, so every run also checks the
selected candidate's predicted latency and min-arrival against the reference
timing engine on the realised design.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.flow import BackendSelection, CtsConfig
from repro.insertion import ConcurrentInserter, InsertionMode, prune_per_side
from repro.insertion.candidate import CandidateSolution
from repro.insertion.concurrent import InsertionConfig
from repro.insertion.frontier import (
    DP_BACKEND_NAMES,
    CandidateFrontier,
    VectorizedInsertionDp,
    default_dp_backend,
    resolve_dp_backend,
)
from repro.ir.design import KIND_SINK, KIND_STEINER, DesignArrays
from repro.netlist.clock import ClockNet
from repro.routing.hierarchical import HierarchicalClockRouter
from repro.tech import CornerSet
from repro.tech.layers import Side
from repro.timing import ElmoreTimingEngine
from tests.conftest import make_random_clock_net
from tests.harness import assert_clock_trees_identical

TOLERANCE = 1e-9

SIGNOFF = CornerSet.parse("tt,ss,ff,hot,cold")

BACKENDS = ("reference", "vectorized")
ENGINES = ("reference", "vectorized")


def route(pdk, count=110, extent=150.0, seed=9, clock_net=None):
    """A routed, unbuffered design of a random sink cloud (or ``clock_net``)."""
    if clock_net is None:
        clock_net = make_random_clock_net(count=count, extent=extent, seed=seed)
    config = CtsConfig(high_cluster_size=60, low_cluster_size=8)
    return HierarchicalClockRouter(pdk, config=config).route_design(clock_net).design


def heavy_sink_net(pdk, heavy=(3, 40, 77)):
    """A sink cloud where a few sinks alone exceed the driver-load cap.

    ``split_by_capacitance`` isolates each of them in its own leaf net, and
    no pattern can drive such a leaf within the cap: its DP node only gets
    candidates through the relaxed (unchecked) fallback, while the other
    nodes of its level prune normally.
    """
    net = make_random_clock_net(count=110, extent=150.0, seed=9)
    sinks = [
        replace(sink, capacitance=1.5 * pdk.max_capacitance) if i in heavy else sink
        for i, sink in enumerate(net.sinks)
    ]
    return ClockNet(net.name, net.source, sinks)


def multiway_design() -> DesignArrays:
    """A hand-built design with every DP node shape the level batch merges.

    ``hub`` merges three trunk edges and drives a sink; ``east`` and
    ``aux_a`` have one predecessor plus a direct sink (merged and pruned,
    not chains); ``south`` is a pure pass-through (a chain node); ``west``
    and ``aux`` merge two.  Levels mix these shapes, so folds finish at
    different steps within one level, and the clock root drives two DP
    roots.  Edges longer than the segment length add segmentation chains.
    """
    design = DesignArrays(name="clk")
    root = design.add_root("root", 0.0, 0.0)

    def steiner(parent, name, x, y):
        return design.add_child(parent, name, KIND_STEINER, x, y)

    def sinks(parent, tag, x, y, count, cap=0.8):
        for i in range(count):
            design.add_child(
                parent, f"s_{tag}{i}", KIND_SINK, x + 6 * i, y - 4 * i, capacitance=cap
            )

    hub = steiner(root, "hub", 120.0, 90.0)
    sinks(hub, "hub", 125.0, 92.0, 1, cap=1.1)
    west = steiner(hub, "west", 60.0, 150.0)
    sinks(west, "w", 50.0, 160.0, 3)
    sinks(steiner(west, "nw", 30.0, 200.0), "nw", 25.0, 210.0, 2)
    sinks(steiner(west, "sw", 20.0, 120.0), "sw", 15.0, 118.0, 2)
    east = steiner(hub, "east", 190.0, 160.0)
    sinks(east, "e", 195.0, 150.0, 1, cap=0.9)
    sinks(steiner(east, "far", 260.0, 240.0), "f", 255.0, 250.0, 4, cap=0.7)
    south = steiner(hub, "south", 120.0, 20.0)
    sinks(steiner(south, "low", 150.0, 5.0), "l", 145.0, 3.0, 2, cap=1.0)
    aux = steiner(root, "aux", 10.0, 160.0)
    aux_a = steiner(aux, "aux_a", 15.0, 250.0)
    sinks(aux_a, "a", 18.0, 255.0, 1)
    sinks(steiner(aux_a, "aux_leaf", 40.0, 330.0), "al", 45.0, 340.0, 3)
    sinks(steiner(aux, "aux_b", 70.0, 230.0), "b", 75.0, 235.0, 2)
    return design


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


def run_both(
    pdk,
    config_kwargs=None,
    corners=None,
    engine=None,
    count=110,
    seed=9,
    fanout_threshold=None,
    make_design=None,
):
    """Run the DP with both backends on identical routed designs (or on
    identical ``make_design()`` designs)."""
    results, shapes = {}, {}
    for backend in BACKENDS:
        if make_design is None:
            design = route(pdk, count=count, seed=seed)
        else:
            design = make_design()
        config = InsertionConfig(dp_backend=backend, **(config_kwargs or {}))
        results[backend] = ConcurrentInserter(
            pdk, config, engine=engine, corners=corners
        ).run(design, fanout_threshold=fanout_threshold)
        shapes[backend] = tree_shape(design)
    return results, shapes


def assert_backends_identical(pdk, results, shapes):
    """Identical realised trees plus 1e-9-equal root candidate fronts.

    Each backend's selected candidate must also predict exactly what the
    reference timing engine measures on the design it realised.
    """
    for result in results.values():
        timing = ElmoreTimingEngine(pdk).analyze(result.tree, with_slew=False)
        assert result.selected.max_delay == pytest.approx(
            timing.latency, abs=TOLERANCE
        )
        assert result.selected.min_delay == pytest.approx(
            timing.min_arrival, abs=TOLERANCE
        )
    ref, vec = results["reference"], results["vectorized"]
    assert shapes["reference"] == shapes["vectorized"]
    assert ref.inserted_buffers == vec.inserted_buffers
    assert ref.inserted_ntsvs == vec.inserted_ntsvs
    assert ref.selected.buffer_count == vec.selected.buffer_count
    assert ref.selected.ntsv_count == vec.selected.ntsv_count
    assert ref.selected.max_delay == pytest.approx(
        vec.selected.max_delay, abs=TOLERANCE
    )
    # The root candidate Pareto fronts agree candidate for candidate, in
    # order — pruning and combination ordering are part of the contract.
    assert len(ref.root_candidates) == len(vec.root_candidates)
    for a, b in zip(ref.root_candidates, vec.root_candidates):
        assert a.up_side is b.up_side
        assert a.buffer_count == b.buffer_count
        assert a.ntsv_count == b.ntsv_count
        assert a.capacitance == pytest.approx(b.capacitance, abs=TOLERANCE)
        assert a.max_delay == pytest.approx(b.max_delay, abs=TOLERANCE)
        assert a.min_delay == pytest.approx(b.min_delay, abs=TOLERANCE)
        assert len(a.corner_capacitance) == len(b.corner_capacitance)
        assert a.corner_capacitance == pytest.approx(
            b.corner_capacitance, abs=TOLERANCE
        )
        assert a.corner_max_delay == pytest.approx(b.corner_max_delay, abs=TOLERANCE)
        assert a.corner_min_delay == pytest.approx(b.corner_min_delay, abs=TOLERANCE)
    assert ref.timing.skew == pytest.approx(vec.timing.skew, abs=TOLERANCE)
    assert ref.timing.latency == pytest.approx(vec.timing.latency, abs=TOLERANCE)
    if ref.timing_per_corner is not None:
        assert vec.timing_per_corner is not None
        for name in ref.timing_per_corner:
            assert ref.timing_per_corner[name].skew == pytest.approx(
                vec.timing_per_corner[name].skew, abs=TOLERANCE
            ), name


# ----------------------------------------------------------- end-to-end runs
class TestBackendEquivalence:
    @pytest.mark.parametrize("engine", ENGINES)
    def test_nominal_identical(self, pdk, engine):
        results, shapes = run_both(pdk, engine=engine)
        assert_backends_identical(pdk, results, shapes)

    @pytest.mark.parametrize("engine", ENGINES)
    def test_corner_aware_identical(self, pdk, engine):
        results, shapes = run_both(pdk, corners=SIGNOFF, engine=engine)
        assert_backends_identical(pdk, results, shapes)

    def test_min_latency_selection_identical(self, pdk):
        results, shapes = run_both(pdk, {"selection": "min_latency"})
        assert_backends_identical(pdk, results, shapes)

    def test_intra_side_mode_identical(self, pdk):
        results, shapes = run_both(pdk, {"default_mode": InsertionMode.INTRA_SIDE})
        assert_backends_identical(pdk, results, shapes)

    def test_front_only_pdk_identical(self, front_pdk):
        results, shapes = run_both(front_pdk)
        assert_backends_identical(front_pdk, results, shapes)

    def test_fanout_threshold_identical(self, pdk):
        results, shapes = run_both(pdk, fanout_threshold=20)
        assert_backends_identical(pdk, results, shapes)

    def test_narrow_beam_identical(self, pdk):
        results, shapes = run_both(pdk, {"max_candidates_per_side": 4}, corners=SIGNOFF)
        assert_backends_identical(pdk, results, shapes)

    def test_unsegmented_edges_identical(self, pdk):
        results, shapes = run_both(pdk, {"max_segment_length": None})
        assert_backends_identical(pdk, results, shapes)

    @pytest.mark.parametrize("corners", [None, SIGNOFF])
    def test_resource_diversity_identical(self, pdk, corners):
        """The dominator-relative diversity rule: one rule, two backends."""
        results, shapes = run_both(
            pdk, {"keep_resource_diversity": True}, corners=corners
        )
        assert_backends_identical(pdk, results, shapes)

    @pytest.mark.parametrize("corners", [None, SIGNOFF])
    def test_relaxed_fallback_identical(self, pdk, corners, monkeypatch):
        """Nodes whose every candidate breaks the load cap re-insert
        unchecked: per node in the spec, as one sub-batch of the level in
        the frontier DP, next to the level's normally pruned nodes."""
        spec_calls, batches = [], []
        spec_insert = ConcurrentInserter._insert
        level_insert = VectorizedInsertionDp._insert_level

        def spy_spec(self, dp_node, merged, enforce_driver_load=True):
            if not enforce_driver_load:
                spec_calls.append(dp_node.index)
            return spec_insert(self, dp_node, merged, enforce_driver_load)

        def spy_level(self, merged, seg, nodes, enforce_driver_load=True):
            if not enforce_driver_load:
                batches.append((len(nodes), sorted({nodes[s].index for s in seg})))
            return level_insert(self, merged, seg, nodes, enforce_driver_load)

        monkeypatch.setattr(ConcurrentInserter, "_insert", spy_spec)
        monkeypatch.setattr(VectorizedInsertionDp, "_insert_level", spy_level)
        net = heavy_sink_net(pdk)
        results, shapes = run_both(
            pdk, corners=corners, make_design=lambda: route(pdk, clock_net=net)
        )
        assert len(spec_calls) >= 3
        assert sorted(i for _, relaxed in batches for i in relaxed) == sorted(
            spec_calls
        )
        # The fallback nodes share their level with normally pruned nodes.
        assert any(level > len(relaxed) for level, relaxed in batches)
        assert_backends_identical(pdk, results, shapes)

    @pytest.mark.parametrize("corners", [None, SIGNOFF])
    @pytest.mark.parametrize("max_segment_length", [None, 60.0])
    def test_multiway_and_chain_nodes_identical(
        self, pdk, corners, max_segment_length
    ):
        """Three-way folds, one-predecessor merges and chain nodes."""
        results, shapes = run_both(
            pdk,
            {"max_segment_length": max_segment_length},
            corners=corners,
            make_design=multiway_design,
        )
        dp_tree = results["vectorized"].dp_tree
        shapes_seen = {len(node.predecessors) for node in dp_tree.nodes}
        assert shapes_seen >= {0, 1, 2, 3}
        assert_backends_identical(pdk, results, shapes)

    @pytest.mark.parametrize("keep_resource_diversity", [False, True])
    def test_multiway_design_diversity_identical(self, pdk, keep_resource_diversity):
        results, shapes = run_both(
            pdk,
            {
                "keep_resource_diversity": keep_resource_diversity,
                "max_segment_length": 60.0,
                "max_candidates_per_side": 3,
            },
            make_design=multiway_design,
        )
        assert_backends_identical(pdk, results, shapes)

    @settings(max_examples=6, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**32 - 1))
    def test_property_identical_on_random_nets(self, pdk, seed):
        rng = np.random.default_rng(seed)
        count = int(rng.integers(30, 90))
        corners = SIGNOFF if seed % 2 else None
        results, shapes = run_both(pdk, corners=corners, count=count, seed=seed % 1000)
        assert_backends_identical(pdk, results, shapes)


# ------------------------------------------------------ pruning sweep parity
def frontier_from_candidates(
    candidates: list[CandidateSolution], corner_count: int
) -> CandidateFrontier:
    """Pack object candidates into a frontier (the test-only direction).

    ``corner_count`` 0 packs nominal candidates: their one-corner tuples.
    """
    cap = np.asarray([c.corner_capacitance for c in candidates], float).T
    dmax = np.asarray([c.corner_max_delay for c in candidates], float).T
    dmin = np.asarray([c.corner_min_delay for c in candidates], float).T
    assert cap.shape[0] == max(1, corner_count)
    n = len(candidates)
    return CandidateFrontier(
        side=np.asarray(
            [0 if c.up_side is Side.FRONT else 1 for c in candidates], np.int8
        ),
        cap=cap,
        max_delay=dmax,
        min_delay=dmin,
        buffers=np.asarray([c.buffer_count for c in candidates], np.int64),
        ntsvs=np.asarray([c.ntsv_count for c in candidates], np.int64),
        pattern=np.full(n, -1, np.int16),
        choice=np.arange(n, dtype=np.int64)[:, None],
    )


def random_candidates(rng, n, corner_count=0):
    """Random candidates on a coarse value grid so exact ties are common."""
    candidates = []
    for _ in range(n):
        side = Side.FRONT if rng.random() < 0.7 else Side.BACK
        buffers = int(rng.integers(0, 4))
        ntsvs = int(rng.integers(0, 4))
        if corner_count:
            caps = tuple(float(rng.integers(1, 12)) * 0.5 for _ in range(corner_count))
            dmax = tuple(float(rng.integers(1, 12)) * 2.0 for _ in range(corner_count))
            dmin = tuple(d * 0.5 for d in dmax)
            candidates.append(
                CandidateSolution(
                    up_side=side,
                    capacitance=caps[0],
                    max_delay=dmax[0],
                    min_delay=dmin[0],
                    buffer_count=buffers,
                    ntsv_count=ntsvs,
                    corner_capacitance=caps,
                    corner_max_delay=dmax,
                    corner_min_delay=dmin,
                )
            )
        else:
            candidates.append(
                CandidateSolution(
                    up_side=side,
                    capacitance=float(rng.integers(1, 12)) * 0.5,
                    max_delay=float(rng.integers(1, 12)) * 2.0,
                    min_delay=float(rng.integers(0, 2)),
                    buffer_count=buffers,
                    ntsv_count=ntsvs,
                )
            )
    return candidates


def delayed(candidate: CandidateSolution, delta: float) -> CandidateSolution:
    """``candidate`` with ``delta`` added to its max delay (every corner)."""
    return replace(
        candidate,
        max_delay=candidate.max_delay + delta,
        corner_max_delay=tuple(value + delta for value in candidate.corner_max_delay),
    )


class TestPruneSweepParity:
    """frontier._prune implements exactly prune_per_side's rule and order."""

    @pytest.mark.parametrize("corner_count", [0, 5])
    @pytest.mark.parametrize("keep_resource_diversity", [False, True])
    @pytest.mark.parametrize("max_capacitance", [None, 3.0])
    def test_prune_matches_object_rule(
        self, pdk, corner_count, keep_resource_diversity, max_capacitance
    ):
        rng = np.random.default_rng(1234 + corner_count)
        for trial in range(25):
            n = int(rng.integers(1, 40))
            candidates = random_candidates(rng, n, corner_count)
            expected = prune_per_side(
                candidates,
                max_capacitance=max_capacitance,
                keep_resource_diversity=keep_resource_diversity,
                max_candidates_per_side=6,
            )
            config = InsertionConfig(
                keep_resource_diversity=keep_resource_diversity,
                max_candidates_per_side=6,
            )
            dp = VectorizedInsertionDp(pdk, config, [pdk] * max(1, corner_count))
            pruned = dp._prune(
                frontier_from_candidates(candidates, corner_count),
                max_capacitance=max_capacitance,
            )
            got = [
                (
                    int(pruned.side[i]),
                    tuple(pruned.cap[:, i]),
                    tuple(pruned.max_delay[:, i]),
                    int(pruned.buffers[i]),
                    int(pruned.ntsvs[i]),
                )
                for i in range(pruned.size)
            ]
            want = [
                (
                    0 if c.up_side is Side.FRONT else 1,
                    c.corner_capacitance,
                    c.corner_max_delay,
                    c.buffer_count,
                    c.ntsv_count,
                )
                for c in expected
            ]
            assert got == want, (trial, corner_count, keep_resource_diversity)


    @pytest.mark.parametrize("corner_count", [0, 5])
    @pytest.mark.parametrize("keep_resource_diversity", [False, True])
    @pytest.mark.parametrize("beam", [None, 1, 4])
    def test_segmented_prune_matches_per_node(
        self, pdk, corner_count, keep_resource_diversity, beam
    ):
        """One segmented prune over many nodes == prune_per_side per node.

        Delays carry sub-tolerance jitter, so the staircase meets near-ties
        within 1e-9 (the exact sequential scan) as well as clear gaps.
        """
        rng = np.random.default_rng(77 + corner_count)
        config = InsertionConfig(
            keep_resource_diversity=keep_resource_diversity,
            max_candidates_per_side=beam,
        )
        dp = VectorizedInsertionDp(pdk, config, [pdk] * max(1, corner_count))
        for trial in range(10):
            groups = []
            for _ in range(int(rng.integers(1, 9))):
                count = int(rng.integers(1, 30))
                candidates = random_candidates(rng, count, corner_count)
                jitter = rng.choice([0.0, 4e-10, 8e-10, 1.6e-9], len(candidates))
                groups.append([delayed(c, d) for c, d in zip(candidates, jitter)])
            frontier = CandidateFrontier.concatenate(
                [frontier_from_candidates(g, corner_count) for g in groups]
            )
            seg = np.repeat(np.arange(len(groups)), [len(g) for g in groups])
            pruned, pruned_seg = dp._prune_segments(frontier, seg, max_capacitance=4.0)
            for node, candidates in enumerate(groups):
                expected = prune_per_side(
                    candidates,
                    max_capacitance=4.0,
                    keep_resource_diversity=keep_resource_diversity,
                    max_candidates_per_side=beam,
                )
                rows = np.flatnonzero(pruned_seg == node)
                got = [
                    (
                        int(pruned.side[i]),
                        tuple(pruned.cap[:, i]),
                        tuple(pruned.max_delay[:, i]),
                        int(pruned.buffers[i]),
                        int(pruned.ntsvs[i]),
                    )
                    for i in rows
                ]
                want = [
                    (
                        0 if c.up_side is Side.FRONT else 1,
                        c.corner_capacitance,
                        c.corner_max_delay,
                        c.buffer_count,
                        c.ntsv_count,
                    )
                    for c in expected
                ]
                assert got == want, (trial, node)


# -------------------------------------------------------- backend resolution
class TestBackendSelection:
    def test_default_is_vectorized(self, monkeypatch):
        monkeypatch.delenv("REPRO_DP_BACKEND", raising=False)
        assert default_dp_backend() == "vectorized"
        assert resolve_dp_backend(None) == "vectorized"

    def test_env_override(self, monkeypatch):
        monkeypatch.setenv("REPRO_DP_BACKEND", "reference")
        assert resolve_dp_backend(None) == "reference"
        # An explicit choice beats the environment.
        assert resolve_dp_backend("vectorized") == "vectorized"

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError, match="unknown DP backend"):
            resolve_dp_backend("bogus")
        with pytest.raises(ValueError, match="unknown DP backend"):
            InsertionConfig(dp_backend="bogus")

    def test_inserter_resolves_config_and_argument(self, pdk, monkeypatch):
        monkeypatch.delenv("REPRO_DP_BACKEND", raising=False)
        assert ConcurrentInserter(pdk).dp_backend == "vectorized"
        config = InsertionConfig(dp_backend="reference")
        assert ConcurrentInserter(pdk, config).dp_backend == "reference"
        # The explicit constructor argument wins over the config.
        assert (
            ConcurrentInserter(pdk, config, dp_backend="vectorized").dp_backend
            == "vectorized"
        )
        monkeypatch.setenv("REPRO_DP_BACKEND", "reference")
        assert ConcurrentInserter(pdk).dp_backend == "reference"

    def test_backend_names_exported(self):
        assert DP_BACKEND_NAMES == ("reference", "vectorized")

    def test_cts_config_carries_dp_backend(self):
        config = CtsConfig(backends=BackendSelection(dp="reference"))
        assert config.resolved_backends().dp == "reference"

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_object_tree_input_is_rejected(self, pdk, backend):
        """Both DP backends edit only designs; an object tree is a TypeError."""
        clock_net = make_random_clock_net(count=30, extent=60.0, seed=9)
        tree = HierarchicalClockRouter(pdk).route(clock_net).tree
        inserter = ConcurrentInserter(pdk, dp_backend=backend)
        with pytest.raises(TypeError, match="DesignArrays.from_clock_tree"):
            inserter.run(tree)

    def test_design_input_runs_under_either_timing_engine(self, pdk):
        """The reference engine realises the design itself, so the vectorized
        DP inserts into a design under either engine, identically."""
        clock_net = make_random_clock_net(count=30, extent=60.0, seed=9)
        runs = {}
        for engine in ("reference", "vectorized"):
            design = HierarchicalClockRouter(pdk).route_design(clock_net).design
            inserter = ConcurrentInserter(pdk, engine=engine, dp_backend="vectorized")
            runs[engine] = (inserter.run(design), design.to_clock_tree())
        (ref, ref_tree), (vec, vec_tree) = runs["reference"], runs["vectorized"]
        assert_clock_trees_identical(ref_tree, vec_tree)
        assert ref.skew == pytest.approx(vec.skew, abs=1e-9)
