"""Subtree-parallel construction must be bit-identical to the serial flow.

The scaled tier (``CtsConfig.workers > 1``) ships bottom subtrees of the
vectorized insertion DP to a process pool and finishes the spine serially;
routing stays serial at every worker count.  These tests pin the contract:
at every worker count, under every backend combination, the flow produces
byte-for-byte the same realised clock tree as ``workers=1``, and each
``workers > 1`` flow on the vectorized DP really ships pool tasks.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.flow.config import BackendSelection, CtsConfig
from repro.insertion.concurrent import ConcurrentInserter, InsertionConfig
from repro.insertion.dp_tree import DpNode, DpTree, build_dp_tree
from repro.insertion.frontier import _MIN_FOREST, VectorizedInsertionDp
from repro.ir.design import DesignArrays
from repro.parallel import WORKERS_ENV_VAR, resolve_workers
from repro.routing.hierarchical import HierarchicalClockRouter
from repro.tech.corners import CornerSet
from repro.tech.pdk import asap7_backside
from tests.conftest import make_random_clock_net
from tests.harness import (
    backend_id,
    backend_matrix,
    clock_tree_fingerprint,
    run_flow,
)

pytestmark = pytest.mark.filterwarnings("ignore::DeprecationWarning")

FRONTIER_FIELDS = (
    "side",
    "cap",
    "max_delay",
    "min_delay",
    "buffers",
    "ntsvs",
    "pattern",
    "choice",
)


@pytest.fixture(scope="module")
def pdk():
    return asap7_backside()


def make_pool_net():
    """A net whose DP ships two subtrees under the harness cluster sizes
    (at workers 2, 3, 4 and 8, nominal and with corners ``ss,ff``)."""
    return make_random_clock_net(count=200, extent=450.0, seed=3)


def assert_designs_bit_equal(a: DesignArrays, b: DesignArrays) -> None:
    """Row-for-row identity: names, topology, kinds, and every float."""
    assert a.size == b.size
    assert a.names == b.names
    assert a.children_rows == b.children_rows
    for column in ("kind", "parent_row", "x", "y", "edge_length", "cap"):
        assert np.array_equal(
            getattr(a, column)[: a.size], getattr(b, column)[: b.size]
        ), column


def _route(pdk, clock_net, workers=1, dme="vectorized"):
    config = CtsConfig(
        high_cluster_size=40,
        low_cluster_size=6,
        seed=7,
        workers=workers,
        backends=BackendSelection(dme=dme),
    )
    return HierarchicalClockRouter(pdk, config=config).route_design(clock_net)


# -------------------------------------------------------------- serial routing
@pytest.mark.parametrize("dme", ["reference", "vectorized"])
@pytest.mark.parametrize("workers", [2, 3, 8])
def test_parallel_route_design_bit_equal(pdk, dme, workers):
    """Routing is serial at every worker count: a ``workers > 1`` config
    must route the very design ``workers=1`` routes."""
    clock_net = make_random_clock_net(count=140, extent=320.0, seed=3)
    serial = _route(pdk, clock_net, 1, dme=dme)
    parallel = _route(pdk, clock_net, workers, dme=dme)
    assert_designs_bit_equal(serial.design, parallel.design)
    assert serial.tap_names == parallel.tap_names
    assert serial.trunk_wirelength == parallel.trunk_wirelength
    assert serial.leaf_wirelength == parallel.leaf_wirelength


def test_parallel_route_rebuilds_clustering_on_original_sinks(pdk):
    """At ``workers > 1`` the clustering still references the caller's sink
    objects, never process-boundary copies, in the serial low-cluster order."""
    clock_net = make_random_clock_net(count=140, extent=320.0, seed=3)
    serial = _route(pdk, clock_net, 1)
    parallel = _route(pdk, clock_net, 4)
    original = {id(s) for s in clock_net.sinks}
    for low in parallel.clustering.low_clusters:
        assert all(id(s) in original for s in low.sinks)
    assert [c.index for c in parallel.clustering.low_clusters] == [
        c.index for c in serial.clustering.low_clusters
    ]
    assert [[s.name for s in c.sinks] for c in parallel.clustering.low_clusters] == [
        [s.name for s in c.sinks] for c in serial.clustering.low_clusters
    ]


def test_single_high_cluster_falls_back_to_serial(pdk):
    """A net too small for two DP subtrees has nothing to fan out: the flow
    at ``workers=4`` ships no pool task and stays identical to serial."""
    clock_net = make_random_clock_net(count=30, extent=60.0, seed=1)
    assert_designs_bit_equal(
        _route(pdk, clock_net, 1).design, _route(pdk, clock_net, 4).design
    )
    combo = {"dme": "vectorized", "dp": "vectorized", "timing": "vectorized"}
    serial = run_flow(pdk, clock_net, combo)
    parallel = run_flow(pdk, clock_net, combo, workers=4)
    assert parallel.parallel_tasks == 0
    assert parallel.parallel_diagnostics == []
    assert clock_tree_fingerprint(serial.tree) == clock_tree_fingerprint(
        parallel.tree
    )


# ---------------------------------------------------------------- flow matrix
@pytest.mark.parametrize(
    "combo", backend_matrix(("dme", "dp", "timing")), ids=backend_id
)
def test_flow_matrix_parallel_matches_serial(pdk, combo):
    clock_net = make_pool_net()
    serial = run_flow(pdk, clock_net, combo)
    parallel = run_flow(pdk, clock_net, combo, workers=2)
    if combo["dp"] == "vectorized":
        assert parallel.parallel_tasks >= 2
    else:
        assert parallel.parallel_tasks == 0, "the reference DP has no pool path"
    assert clock_tree_fingerprint(serial.tree) == clock_tree_fingerprint(
        parallel.tree
    )
    assert serial.metrics.latency == parallel.metrics.latency
    assert serial.metrics.skew == parallel.metrics.skew
    assert serial.metrics.buffers == parallel.metrics.buffers
    assert serial.metrics.ntsvs == parallel.metrics.ntsvs


@pytest.mark.parametrize("workers", [2, 3, 8])
def test_flow_worker_counts_identical(pdk, workers):
    combo = {"dme": "vectorized", "dp": "vectorized", "timing": "vectorized"}
    clock_net = make_pool_net()
    serial = run_flow(pdk, clock_net, combo)
    parallel = run_flow(pdk, clock_net, combo, workers=workers)
    assert parallel.parallel_tasks >= 2
    assert clock_tree_fingerprint(serial.tree) == clock_tree_fingerprint(
        parallel.tree
    )
    assert serial.metrics.skew == parallel.metrics.skew


def test_corner_aware_flow_parallel_matches_serial(pdk):
    clock_net = make_pool_net()
    serial = run_flow(pdk, clock_net, {"dp": "vectorized"}, corners="ss,ff")
    parallel = run_flow(
        pdk, clock_net, {"dp": "vectorized"}, corners="ss,ff", workers=4
    )
    assert parallel.parallel_tasks >= 2
    assert clock_tree_fingerprint(serial.tree) == clock_tree_fingerprint(
        parallel.tree
    )
    assert serial.metrics.corner_skews == parallel.metrics.corner_skews
    assert serial.metrics.corner_latencies == parallel.metrics.corner_latencies


def test_flow_parallel_tasks_count_insertion_subtrees(pdk):
    """Routing ships nothing, so the flow's task count is exactly the
    number of bottom subtrees the insertion DP partitions off."""
    clock_net = make_pool_net()
    combo = {"dme": "vectorized", "dp": "vectorized", "timing": "vectorized"}
    dp_tree = build_dp_tree(_route(pdk, clock_net).design, pdk)
    subtrees = VectorizedInsertionDp._partition_dp_subtrees(dp_tree, 2)
    assert len(subtrees) >= 2
    assert run_flow(pdk, clock_net, combo, workers=2).parallel_tasks == len(subtrees)


# ------------------------------------------------------------- DP subtrees
def test_dp_subtree_parallel_bit_equal(pdk):
    """The subtree-parallel DP must ship >= 2 subtrees on a net this size
    (guarding the test against silently running serial) and reproduce every
    frontier array bit-for-bit."""
    clock_net = make_random_clock_net(count=300, extent=600.0, seed=5)
    routed = _route(pdk, clock_net)
    dp_tree = build_dp_tree(routed.design, pdk)
    subtrees = VectorizedInsertionDp._partition_dp_subtrees(dp_tree, 4)
    assert len(subtrees) >= 2
    shipped = [n.index for nodes in subtrees for n in nodes]
    assert len(shipped) == len(set(shipped)), "subtrees overlap"

    config = InsertionConfig()
    serial_dp = VectorizedInsertionDp(pdk, config, [pdk])
    parallel_dp = VectorizedInsertionDp(pdk, config, [pdk])
    serial_frontiers, serial_root = serial_dp.run(dp_tree)
    parallel_frontiers, parallel_root = parallel_dp.run(dp_tree, workers=4)
    assert set(serial_frontiers) == set(parallel_frontiers)
    for index in serial_frontiers:
        for name in FRONTIER_FIELDS:
            assert np.array_equal(
                getattr(serial_frontiers[index], name),
                getattr(parallel_frontiers[index], name),
            ), (index, name)
    for name in FRONTIER_FIELDS:
        assert np.array_equal(
            getattr(serial_root, name), getattr(parallel_root, name)
        ), name


def test_dp_below_two_subtrees_runs_serial(pdk):
    """With fewer than two subtrees of the target size the DP ships nothing
    and evaluates every node inline, frontier for frontier as ``workers=1``."""
    clock_net = make_random_clock_net(count=30, extent=60.0, seed=1)
    dp_tree = build_dp_tree(_route(pdk, clock_net).design, pdk)
    assert len(VectorizedInsertionDp._partition_dp_subtrees(dp_tree, 4)) < 2
    serial_frontiers, serial_root = VectorizedInsertionDp(
        pdk, InsertionConfig(), [pdk]
    ).run(dp_tree)
    dp = VectorizedInsertionDp(pdk, InsertionConfig(), [pdk])
    frontiers, root = dp.run(dp_tree, workers=4)
    assert dp.parallel_tasks == 0
    assert set(frontiers) == set(serial_frontiers)
    for name in FRONTIER_FIELDS:
        assert np.array_equal(getattr(serial_root, name), getattr(root, name)), name


def _chain_forest_tree(spine: int, chains: tuple[int, ...]) -> DpTree:
    """A DP tree of ``chains`` (bottom-up chains of DP nodes) merging into
    the bottom of a ``spine``-node chain; only the shape matters here."""
    nodes: list[DpNode] = []

    def add(predecessors: list[DpNode]) -> DpNode:
        node = DpNode(
            index=len(nodes),
            tree_row=len(nodes),
            length=1.0,
            predecessors=predecessors,
        )
        nodes.append(node)
        return node

    tops = []
    for length in chains:
        below: list[DpNode] = []
        for _ in range(length):
            below = [add(below)]
        tops.append(below[0])
    top = add(tops)
    for _ in range(spine - 1):
        top = add([top])
    return DpTree(nodes=nodes, root_nodes=[top], design=None)


def test_dp_partition_deals_fewer_forests_than_min_size():
    """Every shipped forest holds at least ``_MIN_FOREST`` DP nodes.

    324 nodes at workers=2 give a 40-node subtree target, so the shipped
    subtrees are the 40-, 20- and 4-node chains: dealt into two forests the
    lighter one would carry 24 nodes, so they are dealt into one forest
    fewer, and one forest ships nothing.  Into three workers a 100-, 100-
    and 10-node split keeps two forests of 100 and 110 nodes.
    """
    assert _MIN_FOREST == 32
    tree = _chain_forest_tree(260, (40, 20, 4))
    assert len(tree.nodes) == 324
    assert VectorizedInsertionDp._partition_dp_subtrees(tree, 2) == []

    tree = _chain_forest_tree(1500, (100, 100, 10))
    forests = VectorizedInsertionDp._partition_dp_subtrees(tree, 3)
    assert sorted(len(forest) for forest in forests) == [100, 110]
    for forest in forests:
        assert [n.index for n in forest] == sorted(n.index for n in forest)


def test_dp_subtree_tables_roundtrip(pdk):
    clock_net = make_random_clock_net(count=140, extent=320.0, seed=3)
    routed = _route(pdk, clock_net)
    dp_tree = build_dp_tree(routed.design, pdk)
    tables = VectorizedInsertionDp._subtree_tables(dp_tree.nodes)
    rebuilt = VectorizedInsertionDp._nodes_from_tables(tables)
    assert [n.index for n in rebuilt] == [n.index for n in dp_tree.nodes]
    for original, copy in zip(dp_tree.nodes, rebuilt):
        assert copy.length == original.length
        assert copy.mode is original.mode
        assert copy.fanout == original.fanout
        assert copy.corner_base_capacitance == original.corner_base_capacitance
        assert copy.corner_base_max_delay == original.corner_base_max_delay
        assert copy.corner_base_min_delay == original.corner_base_min_delay
        assert copy.tree_row == original.tree_row
        assert copy.has_direct_sinks == original.has_direct_sinks
        assert [p.index for p in copy.predecessors] == [
            p.index for p in original.predecessors
        ]


def test_dp_subtree_tables_roundtrip_corner_batch(pdk):
    """A multi-corner tree ships its base tuples, one entry per corner."""
    clock_net = make_random_clock_net(count=140, extent=320.0, seed=3)
    routed = _route(pdk, clock_net)
    corner_pdks = [scenario.apply_to(pdk) for scenario in CornerSet.signoff()]
    dp_tree = build_dp_tree(routed.design, pdk, corner_pdks=corner_pdks)
    rebuilt = VectorizedInsertionDp._nodes_from_tables(
        VectorizedInsertionDp._subtree_tables(dp_tree.nodes)
    )
    for original, copy in zip(dp_tree.nodes, rebuilt, strict=True):
        assert len(copy.corner_base_capacitance) == len(corner_pdks)
        assert copy.corner_base_capacitance == original.corner_base_capacitance
        assert copy.corner_base_max_delay == original.corner_base_max_delay
        assert copy.corner_base_min_delay == original.corner_base_min_delay


def test_concurrent_inserter_workers_identical_tree(pdk):
    clock_net = make_random_clock_net(count=300, extent=600.0, seed=5)
    trees = []
    for workers in (1, 4):
        routed = _route(pdk, clock_net)
        inserter = ConcurrentInserter(
            pdk,
            InsertionConfig(),
            engine="vectorized",
            dp_backend="vectorized",
            workers=workers,
        )
        inserter.run(routed.design)
        trees.append(routed.design.to_clock_tree())
    assert clock_tree_fingerprint(trees[0]) == clock_tree_fingerprint(trees[1])


# ------------------------------------------------------------- workers knob
def test_resolve_workers_precedence(monkeypatch):
    monkeypatch.delenv(WORKERS_ENV_VAR, raising=False)
    assert resolve_workers(None) == 1
    assert resolve_workers(3) == 3
    assert resolve_workers(None, 2) == 2
    monkeypatch.setenv(WORKERS_ENV_VAR, "5")
    assert resolve_workers(None) == 5
    assert resolve_workers(2) == 2, "explicit value beats the environment"
    monkeypatch.setenv(WORKERS_ENV_VAR, "")
    assert resolve_workers(None) == 1, "empty string means unset"
    with pytest.raises(ValueError, match="at least 1"):
        resolve_workers(0)


def test_config_resolved_workers(monkeypatch):
    monkeypatch.delenv(WORKERS_ENV_VAR, raising=False)
    assert CtsConfig().resolved_workers() == 1
    assert CtsConfig(workers=4).resolved_workers() == 4
    monkeypatch.setenv(WORKERS_ENV_VAR, "2")
    assert CtsConfig().resolved_workers() == 2
    assert CtsConfig(workers=4).resolved_workers() == 4


def test_cli_workers_flag():
    from repro.cli import _config_for, build_parser

    parser = build_parser()
    args = parser.parse_args(["run", "C1", "--workers", "4"])
    assert _config_for(args).workers == 4
    args = parser.parse_args(["run", "C1"])
    assert _config_for(args).workers is None
