"""Region-parallel construction must be bit-identical to the serial flow.

The scaled tier (``CtsConfig.workers > 1``) fans the per-high-cluster
routing work and the bottom DP subtrees out over a process pool and merges
the results back in the serial flow's exact row and name order.  These
tests pin the contract: at every worker count, under every backend
combination, the parallel construction produces byte-for-byte the same
design (names, rows, coordinates, edge lengths) and the same realised
clock tree as ``workers=1``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.clocktree.tree import ConnectivityError
from repro.flow.config import CtsConfig
from repro.insertion.concurrent import ConcurrentInserter, InsertionConfig
from repro.insertion.dp_tree import build_dp_tree
from repro.insertion.frontier import VectorizedInsertionDp
from repro.ir.design import DesignArrays
from repro.parallel import WORKERS_ENV_VAR, resolve_workers
from repro.routing.hierarchical import (
    HierarchicalClockRouter,
    _probe_region_shard,
    _RegionShard,
)
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


def assert_designs_bit_equal(a: DesignArrays, b: DesignArrays) -> None:
    """Row-for-row identity: names, topology, kinds, and every float."""
    assert a.size == b.size
    assert a.names == b.names
    assert a.children_rows == b.children_rows
    for column in ("kind", "parent_row", "x", "y", "edge_length", "cap", "alive"):
        assert np.array_equal(
            getattr(a, column)[: a.size], getattr(b, column)[: b.size]
        ), column


def _route(pdk, clock_net, workers, dme="vectorized"):
    from repro.flow.config import BackendSelection

    config = CtsConfig(
        high_cluster_size=40,
        low_cluster_size=6,
        seed=7,
        workers=workers,
        backends=BackendSelection(dme=dme),
    )
    return HierarchicalClockRouter(pdk, config=config).route_design(clock_net)


# ------------------------------------------------------------ routing merge
@pytest.mark.parametrize("dme", ["reference", "vectorized"])
@pytest.mark.parametrize("workers", [2, 3, 8])
def test_parallel_route_design_bit_equal(pdk, dme, workers):
    clock_net = make_random_clock_net(count=140, extent=320.0, seed=3)
    serial = _route(pdk, clock_net, 1, dme=dme)
    parallel = _route(pdk, clock_net, workers, dme=dme)
    assert_designs_bit_equal(serial.design, parallel.design)
    assert serial.tap_names == parallel.tap_names
    assert serial.trunk_wirelength == parallel.trunk_wirelength
    assert serial.leaf_wirelength == parallel.leaf_wirelength


def test_parallel_route_rebuilds_clustering_on_original_sinks(pdk):
    """The merged clustering references the caller's sink objects, not the
    worker-process copies, in the serial low-cluster order."""
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
    """One high cluster has nothing to fan out; the result stays identical."""
    clock_net = make_random_clock_net(count=30, extent=60.0, seed=1)
    serial = _route(pdk, clock_net, 1)
    parallel = _route(pdk, clock_net, 4)
    assert_designs_bit_equal(serial.design, parallel.design)


# ---------------------------------------------------------------- flow matrix
@pytest.mark.parametrize(
    "combo", backend_matrix(("dme", "dp", "timing")), ids=backend_id
)
def test_flow_matrix_parallel_matches_serial(pdk, combo):
    clock_net = make_random_clock_net(count=60, extent=150.0, seed=2)
    serial = run_flow(pdk, clock_net, combo)
    parallel = run_flow(pdk, clock_net, combo, workers=2)
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
    clock_net = make_random_clock_net(count=140, extent=320.0, seed=3)
    serial = run_flow(pdk, clock_net, combo)
    parallel = run_flow(pdk, clock_net, combo, workers=workers)
    assert clock_tree_fingerprint(serial.tree) == clock_tree_fingerprint(
        parallel.tree
    )
    assert serial.metrics.skew == parallel.metrics.skew


def test_corner_aware_flow_parallel_matches_serial(pdk):
    clock_net = make_random_clock_net(count=140, extent=320.0, seed=3)
    serial = run_flow(pdk, clock_net, {"dp": "vectorized"}, corners="ss,ff")
    parallel = run_flow(
        pdk, clock_net, {"dp": "vectorized"}, corners="ss,ff", workers=4
    )
    assert clock_tree_fingerprint(serial.tree) == clock_tree_fingerprint(
        parallel.tree
    )
    assert serial.metrics.corner_skews == parallel.metrics.corner_skews
    assert serial.metrics.corner_latencies == parallel.metrics.corner_latencies


# ------------------------------------------------------------- DP subtrees
def test_dp_subtree_parallel_bit_equal(pdk):
    """The subtree-parallel DP must ship >= 2 subtrees on a net this size
    (guarding the test against silently running serial) and reproduce every
    frontier array bit-for-bit."""
    clock_net = make_random_clock_net(count=300, extent=600.0, seed=5)
    routed = _route(pdk, clock_net, 1)
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


def test_dp_subtree_tables_roundtrip(pdk):
    clock_net = make_random_clock_net(count=140, extent=320.0, seed=3)
    routed = _route(pdk, clock_net, 1)
    dp_tree = build_dp_tree(routed.design, pdk)
    tables = VectorizedInsertionDp._subtree_tables(dp_tree.nodes)
    rebuilt = VectorizedInsertionDp._nodes_from_tables(tables)
    assert [n.index for n in rebuilt] == [n.index for n in dp_tree.nodes]
    for original, copy in zip(dp_tree.nodes, rebuilt):
        assert copy.length == original.length
        assert copy.mode is original.mode
        assert copy.fanout == original.fanout
        assert copy.base_capacitance == original.base_capacitance
        assert copy.base_max_delay == original.base_max_delay
        assert copy.base_min_delay == original.base_min_delay
        assert copy.tree_row == original.tree_row
        assert copy.has_direct_sinks == original.has_direct_sinks
        assert [p.index for p in copy.predecessors] == [
            p.index for p in original.predecessors
        ]


def test_concurrent_inserter_workers_identical_tree(pdk):
    clock_net = make_random_clock_net(count=300, extent=600.0, seed=5)
    trees = []
    for workers in (1, 4):
        routed = _route(pdk, clock_net, 1)
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


# --------------------------------------------------------------- graft/probe
def test_graft_rejects_duplicate_and_miscounted_names():
    main = DesignArrays(name="main")
    root = main.add_root("clkroot", 0.0, 0.0)
    shard = DesignArrays(name="region_0")
    shard.add_root("__region__", 1.0, 1.0)
    shard.add_child(0, "st_1", 2, 1.0, 2.0)
    with pytest.raises(ValueError, match="needs 1 names"):
        main.graft(shard, root, [])
    with pytest.raises(ValueError, match="duplicate node name"):
        main.graft(shard, root, ["clkroot"])
    shard.add_child(0, "st_2", 2, 2.0, 2.0)
    with pytest.raises(ValueError, match="duplicate node name"):
        main.graft(shard, root, ["dup", "dup"])


def test_graft_rejects_tombstoned_shard():
    main = DesignArrays(name="main")
    root = main.add_root("clkroot", 0.0, 0.0)
    shard = DesignArrays(name="region_0")
    shard.add_root("__region__", 1.0, 1.0)
    row = shard.add_child(0, "st_1", 2, 1.0, 2.0)
    shard.add_child(row, "st_2", 2, 1.0, 3.0)
    shard.detach_subtree(row)
    with pytest.raises(ValueError, match="tombstoned"):
        main.graft(shard, root, ["a", "b"])


def test_probe_region_shard_flags_sink_mismatch():
    from repro.clocktree.arrays import KIND_SINK, KIND_TAP

    shard = DesignArrays(name="region_0")
    shard.add_root("__region__", 0.0, 0.0)
    tap = shard.add_child(0, "tap_0", KIND_TAP, 0.0, 0.0)
    shard.add_child(tap, "s0", KIND_SINK, 1.0, 0.0, capacitance=1.0)
    region = _RegionShard(
        high_index=0,
        shard=shard,
        low_members=[[0]],
        low_centroids=[(0.0, 0.0)],
        root_x=0.0,
        root_y=0.0,
        root_capacitance=1.0,
        root_delay=0.0,
    )
    _probe_region_shard(region, expected_sinks=1)
    with pytest.raises(ConnectivityError, match="covers 1 sinks, expected 2"):
        _probe_region_shard(region, expected_sinks=2)


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
