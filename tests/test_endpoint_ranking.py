"""The shared end-point ranking against the name walk it replaced.

:func:`~repro.refinement.skew_refinement.rank_end_points` orders the
end-points for the skew refiner (earliest-first for ``pad_fast``,
latest-first for ``shield_slow``) and for the criticality oracle of
baselines [6] and [29] (latest-first).  The oracle here is the refiner's
earlier walk by name, kept test-local: the end-point names (taps in
pre-order, else the non-root parents of sinks in the order their first
sink appears), per end-point a stack walk collecting the arrivals of the
sinks below it, then Python's stable ``sort`` with ``reverse=True`` for
latest-first.  Both must give the same rows in the same order, ties
included, on five kinds of design: routed sink clouds, the flat DME
ablation (nested end-points), OpenROAD-like trees with leaf buffers,
refined designs (sinks behind an ``sr_buf`` under a tap) and mirrored
placements whose end-points tie exactly.

The CI ``stateful`` job runs this module under ``--hypothesis-profile=stateful``.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines import OpenRoadCtsConfig, OpenRoadLikeCTS
from repro.designs import random_sink_cloud
from repro.flow import CtsConfig
from repro.ir.design import (
    KIND_BUFFER,
    KIND_ROOT,
    KIND_SINK,
    KIND_STEINER,
    KIND_TAP,
    DesignArrays,
)
from repro.refinement.skew_refinement import arrivals_by_row, rank_end_points
from repro.routing.hierarchical import HierarchicalClockRouter
from repro.tech import asap7_backside
from repro.timing import TimingResult, create_engine

PDK = asap7_backside()
CONFIG = CtsConfig(high_cluster_size=40, low_cluster_size=6, seed=7)


# --------------------------------------------------------------------- oracle
def oracle_end_points(design: DesignArrays) -> list[str]:
    preorder = design.rows_preorder()
    taps = [design.names[row] for row in preorder if design.kind[row] == KIND_TAP]
    if taps:
        return taps
    parent_rows: dict[int, None] = {}
    for row in preorder:
        parent = int(design.parent_row[row])
        if design.kind[row] == KIND_SINK and parent >= 0:
            parent_rows.setdefault(parent, None)
    return [
        design.names[parent] for parent in parent_rows if design.kind[parent] != KIND_ROOT
    ]


def oracle_sink_arrivals(
    design: DesignArrays, row: int, timing: TimingResult
) -> list[float]:
    arrivals: list[float] = []
    stack = [row]
    while stack:
        current = stack.pop()
        stack.extend(design.children_rows[current])
        if design.kind[current] == KIND_SINK:
            name = design.names[current]
            if name in timing.arrivals:
                arrivals.append(timing.arrivals[name])
    return arrivals


def oracle_rank(
    design: DesignArrays, timing: TimingResult, latest_first: bool
) -> list[int]:
    scored: list[tuple[float, str]] = []
    for endpoint in oracle_end_points(design):
        arrivals = oracle_sink_arrivals(design, design.name_to_row[endpoint], timing)
        if not arrivals:
            continue
        key = max(arrivals) if latest_first else min(arrivals)
        scored.append((key, endpoint))
    scored.sort(key=lambda item: item[0], reverse=latest_first)
    return [design.name_to_row[endpoint] for _key, endpoint in scored]


def assert_same_ranking(design: DesignArrays) -> list[int]:
    """Compare both directions; return the earliest-first ranking."""
    timing = create_engine(PDK).analyze(design, with_slew=False)
    arrivals = arrivals_by_row(design, timing)
    ranked = {}
    for latest_first in (False, True):
        ranked[latest_first] = rank_end_points(design, arrivals, latest_first)
        assert ranked[latest_first] == oracle_rank(design, timing, latest_first)
    assert sorted(ranked[False]) == sorted(ranked[True])
    return ranked[False]


# ------------------------------------------------------------------- designs
clouds = st.builds(
    random_sink_cloud,
    count=st.integers(2, 60),
    extent=st.sampled_from([40.0, 120.0, 400.0]),
    seed=st.integers(0, 2**16),
)


def routed(clock_net, config: CtsConfig = CONFIG) -> DesignArrays:
    return HierarchicalClockRouter(PDK, config).route_design(clock_net).design


def mirrored_design(half: list, taps: bool) -> DesignArrays:
    """A root with two mirror-image copies of ``half`` (x -> -x).

    Internal nodes are taps or Steiner points, leaves are sinks; every
    coordinate is an integer, so mirrored wires have bit-equal lengths and
    mirrored sinks bit-equal arrivals.
    """
    design = DesignArrays()
    design.add_root("clk", 0.0, 0.0)
    internal = KIND_TAP if taps else KIND_STEINER

    def build(parent: int, spec, x: float, y: float, mirror: float) -> None:
        if spec == "sink":
            design.add_child(
                parent, design.new_name("ff"), KIND_SINK, mirror * x, y, capacitance=0.5
            )
            return
        row = design.add_child(parent, design.new_name("n"), internal, mirror * x, y)
        for index, child in enumerate(spec):
            build(row, child, x + 3.0 * index, y + 5.0 + index, mirror)

    for mirror in (1.0, -1.0):
        build(0, half, 10.0, 4.0, mirror)
    return design


half_trees = st.lists(
    st.recursive(
        st.just("sink"),
        lambda children: st.lists(children, min_size=1, max_size=4),
        max_leaves=10,
    ),
    min_size=1,
    max_size=4,
)


# --------------------------------------------------------------------- tests
class TestSharedRankingMatchesNameWalk:
    @settings(deadline=None)
    @given(clock_net=clouds)
    def test_routed_sink_clouds(self, clock_net):
        design = routed(clock_net)
        assert design.kind_rows(KIND_TAP).size
        assert_same_ranking(design)

    @settings(deadline=None)
    @given(clock_net=clouds)
    def test_flat_dme_ablation(self, clock_net):
        design = routed(clock_net, CONFIG.with_updates(hierarchical_routing=False))
        assert not design.kind_rows(KIND_TAP).size
        assert_same_ranking(design)

    @settings(deadline=None)
    @given(clock_net=clouds, leaf=st.integers(2, 8))
    def test_openroad_like_trees(self, clock_net, leaf):
        config = OpenRoadCtsConfig(leaf_cluster_size=leaf)
        design = OpenRoadLikeCTS(PDK, config).run(clock_net).design
        assert design.kind_rows(KIND_BUFFER).size
        assert_same_ranking(design)

    @settings(deadline=None)
    @given(clock_net=clouds, data=st.data())
    def test_refined_designs(self, clock_net, data):
        design = routed(clock_net)
        taps = [
            tap
            for tap in design.kind_rows(KIND_TAP).tolist()
            if any(design.kind[c] == KIND_SINK for c in design.children_rows[tap])
        ]
        chosen = data.draw(st.lists(st.sampled_from(taps), min_size=1, unique=True))
        for tap in chosen:
            sinks = [c for c in design.children_rows[tap] if design.kind[c] == KIND_SINK]
            moved = data.draw(st.lists(st.sampled_from(sinks), min_size=1, unique=True))
            buffer = design.add_child(
                tap,
                design.new_name("sr_buf"),
                KIND_BUFFER,
                float(design.x[tap]),
                float(design.y[tap]),
                capacitance=PDK.buffer.input_capacitance,
            )
            for sink in moved:
                design.move_child(sink, buffer)
        assert_same_ranking(design)

    @settings(deadline=None)
    @given(half=half_trees, taps=st.booleans())
    def test_mirrored_placements_tie(self, half, taps):
        design = mirrored_design(half, taps)
        ranked = assert_same_ranking(design)
        timing = create_engine(PDK).analyze(design, with_slew=False)
        assert len(set(timing.arrivals.values())) < len(timing.arrivals)
        assert len(ranked) % 2 == 0  # every end-point has its mirror image
