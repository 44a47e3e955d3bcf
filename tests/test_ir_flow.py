"""The flow's stage pipeline over one persistent design.

:class:`~repro.flow.DoubleSideCTS` threads one
:class:`~repro.ir.DesignArrays` through routing -> insertion -> refinement
-> evaluation, and every stage edits that design in place under every
backend selection.  The backends are decision-identical, so every {dme, dp,
timing} selection must build the all-reference tree bit for bit (the
nominal double-side backend matrix is pinned in
``tests/test_routing_dme_vectorized.py``; the seeded design sizes, the
single-side matrix and the corner-aware case are here).
"""

from __future__ import annotations

import pytest

from repro import load_design
from repro.flow import BackendSelection, CtsConfig, DoubleSideCTS, SingleSideCTS
from repro.guard.policy import StageGuard
from repro.ir.stages import InsertionStage, RoutingStage, StageContext
from tests.harness import (
    SEEDED_DESIGNS,
    assert_clock_trees_identical,
    backend_id,
    backend_matrix,
    run_flow,
)

MEDIUM = SEEDED_DESIGNS[1]
ALL_REFERENCE = {"dme": "reference", "dp": "reference", "timing": "reference"}


def assert_same_run(got, want) -> None:
    """Same tree and resources; timing to the engines' 1e-9 contract."""
    assert_clock_trees_identical(got.tree, want.tree)
    assert (got.metrics.sinks, got.metrics.buffers, got.metrics.ntsvs) == (
        want.metrics.sinks,
        want.metrics.buffers,
        want.metrics.ntsvs,
    )
    assert got.metrics.latency == pytest.approx(want.metrics.latency, abs=1e-9)
    assert got.metrics.skew == pytest.approx(want.metrics.skew, abs=1e-9)


@pytest.mark.parametrize("design", SEEDED_DESIGNS, ids=lambda d: d.id)
def test_default_flow_matches_all_reference_across_designs(pdk, design):
    """Default (all-vectorized) backends on every seeded design size: the
    single-cluster net and the multi-region nets build the spec's tree."""
    net = design.clock_net()
    assert_same_run(run_flow(pdk, net), run_flow(pdk, net, ALL_REFERENCE))


def test_wirelength_is_bit_identical_across_timing_engines(pdk):
    """Neither timing engine renumbers the design, so the flow's wirelength
    sums the same rows in the same order under both: on full-size C5 the
    unrounded sums agree to the last bit."""
    design = load_design("C5", include_combinational=False)
    sums = []
    for timing in ("reference", "vectorized"):
        config = CtsConfig(backends=BackendSelection(timing=timing))
        metrics = DoubleSideCTS(pdk, config).run(design).metrics
        sums.append(
            (
                metrics.wirelength.hex(),
                metrics.front_wirelength.hex(),
                metrics.back_wirelength.hex(),
            )
        )
    assert sums[0] == sums[1]


def run_single_side(front_pdk, combo=None):
    config = CtsConfig(
        high_cluster_size=40,
        low_cluster_size=6,
        seed=7,
        backends=BackendSelection(**(combo or {})),
    )
    return SingleSideCTS(front_pdk, config).run(MEDIUM.clock_net())


@pytest.fixture(scope="module")
def single_side_reference(front_pdk):
    return run_single_side(front_pdk, ALL_REFERENCE)


@pytest.mark.parametrize("combo", backend_matrix(), ids=backend_id)
def test_single_side_flow_matches_all_reference(
    front_pdk, single_side_reference, combo
):
    """The buffer-only flow (no back side, no nTSV patterns) is
    decision-identical across every {dme, dp, timing} selection."""
    result = run_single_side(front_pdk, combo)
    assert_same_run(result, single_side_reference)
    assert result.metrics.ntsvs == 0


def test_corner_aware_flow_matches_all_reference(pdk):
    """Corner-aware construction + multi-corner sign-off: the default
    backends build the all-reference tree; timing agrees to the engines'
    1e-9 contract."""
    kwargs = dict(corners="tt,ss,ff", corner_aware_construction=True)
    fast = run_flow(pdk, MEDIUM.clock_net(), **kwargs)
    spec = run_flow(pdk, MEDIUM.clock_net(), ALL_REFERENCE, **kwargs)
    assert_clock_trees_identical(fast.tree, spec.tree)
    assert (fast.metrics.buffers, fast.metrics.ntsvs) == (
        spec.metrics.buffers,
        spec.metrics.ntsvs,
    )
    assert fast.metrics.corner_skews  # the corner columns actually populated
    for name in ("corner_skews", "corner_latencies"):
        got, want = getattr(fast.metrics, name), getattr(spec.metrics, name)
        assert got == pytest.approx(want, abs=1e-9), name


def test_refinement_off_skips_the_stage(pdk):
    result = run_flow(pdk, MEDIUM.clock_net(), enable_skew_refinement=False)
    assert result.skew_report is None
    assert result.design.counts()[1] == result.metrics.sinks


def test_result_realises_tree_lazily(pdk):
    """Runs carry the design; the object tree materialises on demand."""
    result = run_flow(pdk, SEEDED_DESIGNS[0].clock_net())
    assert result.design is not None
    assert result._tree is None  # nothing realised inside the timed flow
    first = result.tree
    assert result._tree is first  # cached
    assert result.tree is first
    assert_clock_trees_identical(first, result.design.to_clock_tree())


def test_single_side_flow_runs_the_pipeline(front_pdk):
    """The inherited single-side flow rides the same stage pipeline."""
    config = CtsConfig(high_cluster_size=40, low_cluster_size=6, seed=7)
    result = SingleSideCTS(front_pdk, config).run(SEEDED_DESIGNS[0].clock_net())
    assert result.design is not None
    assert result.metrics.ntsvs == 0
    assert result.design.counts()[3] == 0


def test_design_validates_and_counts_match_metrics(pdk):
    result = run_flow(pdk, MEDIUM.clock_net())
    result.design.validate()
    _nodes, sinks, buffers, ntsvs = result.design.counts()
    assert sinks == result.metrics.sinks
    assert buffers == result.metrics.buffers
    assert ntsvs == result.metrics.ntsvs


def test_reference_insertion_edits_the_routed_design_in_place(pdk):
    """Under ``dp="reference"`` the insertion stage inserts into the routed
    design object itself; no stage replaces the design."""
    config = CtsConfig(
        high_cluster_size=40,
        low_cluster_size=6,
        seed=7,
        backends=BackendSelection(dp="reference"),
    )
    backends = config.resolved_backends()
    net = MEDIUM.clock_net()
    ctx = StageContext(
        pdk=pdk,
        config=config,
        backends=backends,
        guard=StageGuard(backends.guard, net),
        clock_net=net,
    )
    design = RoutingStage().run(None, ctx)
    assert InsertionStage().run(design, ctx) is design
    assert ctx.insertion.tree is design
    assert ctx.routing.design is design
    assert design.counts()[2] == ctx.insertion.inserted_buffers > 0
