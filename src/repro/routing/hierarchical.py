"""Hierarchical clock routing (Section III-B of the paper).

The router combines dual-level clustering with DME:

1. dual-level K-means clustering of the sinks (``Hc`` / ``Lc``),
2. per-high-cluster DME routing with the low-level centroids as leaves,
3. a top-level DME over the high-level sub-roots toward the clock source,
4. star-routed leaf nets from each low-level centroid (a *tap*) to its sinks.

The output is an unbuffered, all-front-side
:class:`~repro.ir.design.DesignArrays` design
(:meth:`HierarchicalClockRouter.route_design`) whose trunk edges are later
processed by the concurrent buffer and nTSV insertion;
:meth:`HierarchicalClockRouter.route` realises the same routing as a
:class:`~repro.clocktree.ClockTree` for object-tree callers.  A
non-hierarchical "flat matching DME" mode is also provided for the ablation
against Fig. 5(c).

**Region-parallel construction (the scaled tier).**  With ``workers > 1``,
the independent per-high-cluster work — low-level clustering, tap-terminal
lumping, DME embedding, and shard materialisation — fans out over a process
pool: each worker routes its region into its own :class:`DesignArrays`
shard, and a deterministic serial merge stitches the shards into one design
in the serial flow's exact row and name order
(:meth:`~repro.ir.design.DesignArrays.graft`).  The result is bit-identical
to the serial route at every worker count.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from typing import TYPE_CHECKING

import numpy as np

from repro.clocktree import ClockTree, ClockTreeNode
from repro.clocktree.arrays import KIND_SINK, KIND_STEINER, KIND_TAP
from repro.clocktree.tree import ConnectivityError
from repro.clustering import (
    Cluster,
    DualLevelClustering,
    dual_level_clustering,
    low_clusters_for_high,
)
from repro.clustering.dual_level import _cluster_sinks
from repro.geometry import Point
from repro.ir.design import DesignArrays
from repro.netlist.clock import ClockNet, ClockSink
from repro.routing.dme import DmeTerminal, EmbeddedNode
from repro.routing.dme_arrays import (
    DmeEmbedding,
    VectorizedDmeRouter,
    create_dme_router,
)
from repro.tech.layers import LayerRC
from repro.tech.pdk import Pdk

if TYPE_CHECKING:  # deferred at runtime: repro.flow.config imports the flow pkg
    from repro.flow.config import CtsConfig


@dataclass
class HierarchicalRoutingResult:
    """:class:`DesignRoutingResult` realised as an object clock tree.

    Returned by :meth:`HierarchicalClockRouter.route`; ``tap_nodes`` are the
    tree nodes named by the design result's ``tap_names``, in that order.
    """

    tree: ClockTree
    clustering: DualLevelClustering | None
    trunk_wirelength: float
    leaf_wirelength: float
    tap_nodes: list[ClockTreeNode] = field(default_factory=list)

    @property
    def total_wirelength(self) -> float:
        return self.trunk_wirelength + self.leaf_wirelength


@dataclass
class DesignRoutingResult:
    """The routed (unbuffered) design plus the clustering used to build it.

    Taps are recorded by *name* (rows are renumbered whenever the design is
    compacted, names are stable for the lifetime of the node).
    """

    design: DesignArrays
    clustering: DualLevelClustering | None
    trunk_wirelength: float
    leaf_wirelength: float
    tap_names: list[str] = field(default_factory=list)
    #: Pool tasks the region-parallel path fanned out (0 when serial) and
    #: the recovery events (retries, degrade-to-serial) recorded for them.
    parallel_tasks: int = 0
    parallel_diagnostics: list = field(default_factory=list)

    @property
    def total_wirelength(self) -> float:
        return self.trunk_wirelength + self.leaf_wirelength


class _DmeCursor:
    """:class:`EmbeddedNode`-shaped read view over a :class:`DmeEmbedding`.

    Lets the design materialisers walk the array-form DME solution with the
    same traversal they use on the reference router's ``EmbeddedNode``
    tree, without realising EmbeddedNode objects.
    """

    __slots__ = ("_emb", "_index")

    def __init__(self, emb: DmeEmbedding, index: int = 0) -> None:
        self._emb = emb
        self._index = index

    @property
    def is_leaf(self) -> bool:
        if self._emb.arrays is None:
            return True
        return int(self._emb.arrays.term[self._index]) >= 0

    @property
    def terminal(self) -> DmeTerminal:
        if self._emb.arrays is None:
            return self._emb.terminals[0]
        return self._emb.terminals[int(self._emb.arrays.term[self._index])]

    @property
    def location(self) -> Point:
        if self.is_leaf:
            return self.terminal.location
        return Point(float(self._emb.x[self._index]), float(self._emb.y[self._index]))

    @property
    def children(self) -> list["_DmeCursor"]:
        arrays = self._emb.arrays
        return [
            _DmeCursor(self._emb, int(arrays.left[self._index])),
            _DmeCursor(self._emb, int(arrays.right[self._index])),
        ]


def _root_cursor(embedding: "DmeEmbedding | EmbeddedNode"):
    """Uniform walkable root for array-form and object-form embeddings."""
    if isinstance(embedding, DmeEmbedding):
        return _DmeCursor(embedding)
    return embedding


def _tap_terminal(low: Cluster, layer: LayerRC) -> DmeTerminal:
    """Lump a low-level cluster (tap + star leaf net) into a DME terminal.

    Vectorized over the cluster's cached member columns, bit-equal to the
    per-sink loop it replaced: each elementwise product is the same single
    float operation ``layer.wire_capacitance`` / ``layer.wire_delay`` would
    perform, the capacitance sums run in member order (Python ``sum`` over
    the element list), and ``max`` is order-independent.
    """
    xs, ys, caps = low.columns()
    dists = np.abs(low.centroid.x - xs) + np.abs(low.centroid.y - ys)
    wire_cap = sum((layer.unit_capacitance * dists).tolist())
    sink_cap = sum(caps.tolist())
    delays = (layer.unit_resistance * dists) * (layer.unit_capacitance * dists + caps)
    max_delay = max(0.0, max(delays.tolist()))
    return DmeTerminal(
        name=f"tap_{low.index}",
        location=low.centroid,
        capacitance=wire_cap + sink_cap,
        delay=max_delay,
    )


def _embed(router, terminals, root_location) -> "DmeEmbedding | EmbeddedNode":
    """Run DME keeping the vectorized solution in array form."""
    if isinstance(router, VectorizedDmeRouter):
        return router.embed(terminals, root_location=root_location)
    return router.route(terminals, root_location=root_location)


def _materialise_sub_design(
    design: DesignArrays,
    parent_row: int,
    embedding: "DmeEmbedding | EmbeddedNode",
    lows: list[Cluster],
    tap_names: list[str],
) -> int:
    low_by_name = {f"tap_{low.index}": low for low in lows}
    return _materialise_design_node(
        design, parent_row, _root_cursor(embedding), low_by_name, tap_names
    )


def _materialise_design_node(
    design: DesignArrays,
    parent_row: int,
    node,
    low_by_name: dict[str, Cluster],
    tap_names: list[str],
) -> int:
    """Materialise one DME (sub)tree below ``parent_row``: steiner rows for
    internal nodes, a tap row plus its star-routed sinks per leaf.
    Module-level so region workers can materialise their shard without a
    router instance."""
    if node.is_leaf:
        low = low_by_name[node.terminal.name]
        tap_row = design.add_child(
            parent_row, node.terminal.name, KIND_TAP, low.centroid.x, low.centroid.y
        )
        tap_names.append(node.terminal.name)
        design.add_children(
            tap_row,
            [sink.name for sink in low.sinks],
            KIND_SINK,
            [sink.location.x for sink in low.sinks],
            [sink.location.y for sink in low.sinks],
            [sink.capacitance for sink in low.sinks],
        )
        return tap_row
    location = node.location
    steiner = design.add_child(
        parent_row, design.new_name("st"), KIND_STEINER, location.x, location.y
    )
    for child in node.children:
        _materialise_design_node(design, steiner, child, low_by_name, tap_names)
    return steiner


# ------------------------------------------------- region-parallel workers
@dataclass
class _RegionShard:
    """One worker's routed region plus everything the serial merge needs.

    ``low_members`` holds, per low cluster, positions into the high
    cluster's member list (the merge rebuilds the clustering around the
    original sink objects, which never cross the process boundary back).
    """

    high_index: int
    shard: DesignArrays
    low_members: list[list[int]]
    low_centroids: list[tuple[float, float]]
    root_x: float
    root_y: float
    root_capacitance: float
    root_delay: float


def _route_region_shard(payload) -> _RegionShard:
    """Route one high cluster into a fresh shard (runs in a worker process).

    Performs exactly the serial per-region sequence — low-level clustering
    (same per-region seed), tap-terminal lumping, DME embedding, shard
    materialisation — so every float and every local name matches what the
    serial loop would produce for this region.
    """
    (
        high_index,
        centroid_xy,
        sinks,
        low_size,
        seed,
        balanced,
        max_leaf_capacitance,
        unit_wire_capacitance,
        layer,
        dme_backend,
    ) = payload
    centroid = Point(centroid_xy[0], centroid_xy[1])
    low_groups = low_clusters_for_high(
        sinks,
        low_size,
        seed,
        high_index,
        balanced=balanced,
        max_leaf_capacitance=max_leaf_capacitance,
        unit_wire_capacitance=unit_wire_capacitance,
    )
    lows = [
        Cluster(index=i, centroid=c, sinks=members, parent_index=high_index)
        for i, (c, members) in enumerate(low_groups)
    ]
    router = create_dme_router(layer, backend=dme_backend)
    terminals = [_tap_terminal(low, layer) for low in lows]
    embedding = _embed(router, terminals, centroid)
    shard = DesignArrays(name=f"region_{high_index}")
    shard.add_root("__region__", centroid.x, centroid.y)
    tap_names: list[str] = []
    _materialise_sub_design(shard, 0, embedding, lows, tap_names)
    root_location = _root_cursor(embedding).location
    if isinstance(embedding, DmeEmbedding):
        root_capacitance = embedding.root_capacitance
        root_delay = embedding.root_delay
    else:
        root_capacitance = embedding.subtree_capacitance
        root_delay = embedding.subtree_delay
    position_of = {id(sink): i for i, sink in enumerate(sinks)}
    return _RegionShard(
        high_index=high_index,
        shard=shard,
        low_members=[[position_of[id(s)] for s in low.sinks] for low in lows],
        low_centroids=[(low.centroid.x, low.centroid.y) for low in lows],
        root_x=root_location.x,
        root_y=root_location.y,
        root_capacitance=float(root_capacitance),
        root_delay=float(root_delay),
    )


def _probe_region_shard(region: _RegionShard, expected_sinks: int) -> None:
    """Shard-level stage probe: reject a malformed worker result pre-merge.

    Cheap structural checks (connectivity, tombstones, sink coverage) that
    catch worker-side corruption before the merge stitches the shard into
    the flow design — the scaled tier's guard surface.
    """
    shard = region.shard
    if shard.dead_count:
        raise ConnectivityError(
            f"region {region.high_index}: shard carries tombstoned rows"
        )
    reached = sum(int(level.size) for level in shard.levels())
    if reached != shard.size:
        raise ConnectivityError(
            f"region {region.high_index}: {shard.size - reached} shard rows "
            "unreachable from the region root"
        )
    sinks = int(shard.sink_rows().size)
    if sinks != expected_sinks:
        raise ConnectivityError(
            f"region {region.high_index}: shard covers {sinks} sinks, "
            f"expected {expected_sinks}"
        )


def _validate_region_shard(region: _RegionShard, payload) -> None:
    """``run_tasks`` validate hook: probe a worker's shard against its payload.

    Runs on the main process before the shard can reach the merge; a
    malformed shard (worker-side corruption) counts as a failed attempt and
    goes through the retry / degrade-to-serial ladder instead of aborting
    the flow.
    """
    expected_high, _, members = payload[0], payload[1], payload[2]
    if region.high_index != expected_high:
        raise ConnectivityError(
            f"worker returned region {region.high_index}, "
            f"expected {expected_high}"
        )
    _probe_region_shard(region, len(members))


class HierarchicalClockRouter:
    """Builds the initial clock tree topology of the paper's flow.

    Everything comes from the :class:`~repro.flow.config.CtsConfig`:
    clustering shape, seed, hierarchy mode, worker count, pool policy, and
    the DME backend (through ``config.resolved_backends()``).
    """

    def __init__(self, pdk: Pdk, config: "CtsConfig | None" = None) -> None:
        # Deferred import: repro.flow imports this module at package init.
        from repro.flow.config import CtsConfig

        if config is None:
            config = CtsConfig()
        self.pdk = pdk
        self.high_cluster_size = config.high_cluster_size
        self.low_cluster_size = config.low_cluster_size
        self.seed = config.seed
        self.hierarchical = config.hierarchical_routing
        self.dme_backend = config.resolved_backends().dme
        self.workers = config.resolved_workers()
        self.parallel_policy = config.resolved_parallel_policy()
        if self.high_cluster_size < self.low_cluster_size:
            raise ValueError("high-level cluster size must be >= low-level size")

    # ---------------------------------------------------------------- public
    def route(self, clock_net: ClockNet) -> HierarchicalRoutingResult:
        """Route ``clock_net`` and realise the result as a :class:`ClockTree`.

        A boundary adapter over :meth:`route_design` for callers that edit
        object trees (baselines, benches, examples); the flow itself stays
        on the design rows.
        """
        routed = self.route_design(clock_net)
        tree = routed.design.to_clock_tree()
        return HierarchicalRoutingResult(
            tree=tree,
            clustering=routed.clustering,
            trunk_wirelength=routed.trunk_wirelength,
            leaf_wirelength=routed.leaf_wirelength,
            tap_nodes=[tree.find(name) for name in routed.tap_names],
        )

    def route_design(self, clock_net: ClockNet) -> DesignRoutingResult:
        """Route ``clock_net`` straight into a :class:`DesignArrays`.

        The vectorized DME backend feeds the design rows directly from its
        array-form solution; the reference backend walks the scalar
        router's embedded tree (its sanctioned object boundary).  Both
        backends build bit-identical designs.
        """
        if clock_net.sink_count == 0:
            raise ValueError("clock net has no sinks")
        if self.hierarchical:
            return self._route_hierarchical_design(clock_net)
        return self._route_flat_design(clock_net)

    # --------------------------------------------------------- hierarchical
    def _route_hierarchical_design(self, clock_net: ClockNet) -> DesignRoutingResult:
        layer = self.pdk.front_layer
        if self.workers > 1:
            high_groups = _cluster_sinks(
                clock_net.sinks, self.high_cluster_size, self.seed, True
            )
            if len(high_groups) > 1:
                return self._route_parallel_design(clock_net, layer, high_groups)
        clustering = dual_level_clustering(
            clock_net.sinks,
            high_size=self.high_cluster_size,
            low_size=self.low_cluster_size,
            seed=self.seed,
            max_leaf_capacitance=0.9 * self.pdk.max_capacitance,
            unit_wire_capacitance=layer.unit_capacitance,
        )
        router = create_dme_router(layer, backend=self.dme_backend)

        design = DesignArrays(name=clock_net.name)
        source = clock_net.source.location
        root_row = design.add_root("clkroot", source.x, source.y)
        tap_names: list[str] = []

        sub_roots: list[tuple[DmeEmbedding | EmbeddedNode, list[Cluster]]] = []
        for high in clustering.high_clusters:
            lows = clustering.low_clusters_of(high.index)
            terminals = [_tap_terminal(low, layer) for low in lows]
            embedding = _embed(router, terminals, high.centroid)
            sub_roots.append((embedding, lows))

        if len(sub_roots) == 1:
            embedding, lows = sub_roots[0]
            _materialise_sub_design(design, root_row, embedding, lows, tap_names)
        else:
            top_terminals = [
                DmeTerminal(
                    name=f"high_{i}",
                    location=_root_cursor(embedding).location,
                    capacitance=(
                        embedding.root_capacitance
                        if isinstance(embedding, DmeEmbedding)
                        else embedding.subtree_capacitance
                    ),
                    delay=(
                        embedding.root_delay
                        if isinstance(embedding, DmeEmbedding)
                        else embedding.subtree_delay
                    ),
                )
                for i, (embedding, _lows) in enumerate(sub_roots)
            ]
            top_embedding = _embed(router, top_terminals, source)
            self._materialise_top_design(
                design, root_row, _root_cursor(top_embedding), sub_roots, tap_names
            )

        leaf_wl = self._leaf_wirelength_design(design, tap_names)
        trunk_wl = design.wirelength() - leaf_wl
        return DesignRoutingResult(
            design=design,
            clustering=clustering,
            trunk_wirelength=trunk_wl,
            leaf_wirelength=leaf_wl,
            tap_names=tap_names,
        )

    def _route_parallel_design(
        self,
        clock_net: ClockNet,
        layer: LayerRC,
        high_groups: list[tuple[Point, list[ClockSink]]],
    ) -> DesignRoutingResult:
        """Region-parallel twin of :meth:`_route_hierarchical_design`.

        Fans the per-high-cluster work out over the shared process pool and
        stitches the returned shards back in the serial flow's exact row and
        name order, so the merged design fingerprints bit-equal to the serial
        route at every worker count.

        Shards travel through the fault-tolerant
        :func:`~repro.parallel.run_tasks` map: a crashed, hung, or
        corrupting worker gets its region retried on the pool and, failing
        that, recomputed inline by the same module-level worker function —
        bit-identical by construction — with a
        :class:`~repro.parallel.ParallelDiagnostic` recorded on the result
        (``strict`` policy raises :class:`~repro.parallel.ParallelError`
        instead, which is never caught here or anywhere downstream).
        """
        from repro.parallel import run_tasks

        payloads = [
            (
                high_index,
                (centroid.x, centroid.y),
                members,
                self.low_cluster_size,
                self.seed,
                True,
                0.9 * self.pdk.max_capacitance,
                layer.unit_capacitance,
                layer,
                self.dme_backend,
            )
            for high_index, (centroid, members) in enumerate(high_groups)
        ]
        diagnostics: list = []
        regions = run_tasks(
            "routing",
            _route_region_shard,
            payloads,
            min(self.workers, len(payloads)),
            policy=self.parallel_policy,
            validate=_validate_region_shard,
            diagnostics=diagnostics,
            label=lambda i, payload: f"region {payload[0]}",
        )
        regions = sorted(regions, key=lambda r: r.high_index)

        # Rebuild the clustering around the ORIGINAL sink objects (the
        # worker copies never travel back; only member positions do).
        # Every shard was already probed by the run_tasks validate hook
        # before it could reach this merge.
        high_clusters: list[Cluster] = []
        low_clusters: list[Cluster] = []
        tap_bases: list[int] = []
        for region, (centroid, members) in zip(regions, high_groups):
            high_clusters.append(
                Cluster(index=region.high_index, centroid=centroid, sinks=members)
            )
            tap_bases.append(len(low_clusters))
            for (cx, cy), positions in zip(region.low_centroids, region.low_members):
                low_clusters.append(
                    Cluster(
                        index=len(low_clusters),
                        centroid=Point(cx, cy),
                        sinks=[members[p] for p in positions],
                        parent_index=region.high_index,
                    )
                )
        clustering = DualLevelClustering(
            high_clusters=high_clusters,
            low_clusters=low_clusters,
            high_size_target=self.high_cluster_size,
            low_size_target=self.low_cluster_size,
        )
        clustering.validate()

        router = create_dme_router(layer, backend=self.dme_backend)
        design = DesignArrays(name=clock_net.name)
        source = clock_net.source.location
        root_row = design.add_root("clkroot", source.x, source.y)
        tap_names: list[str] = []

        top_terminals = [
            DmeTerminal(
                name=f"high_{region.high_index}",
                location=Point(region.root_x, region.root_y),
                capacitance=region.root_capacitance,
                delay=region.root_delay,
            )
            for region in regions
        ]
        top_embedding = _embed(router, top_terminals, source)
        self._stitch_top_design(
            design,
            root_row,
            _root_cursor(top_embedding),
            regions,
            tap_bases,
            tap_names,
        )

        leaf_wl = self._leaf_wirelength_design(design, tap_names)
        trunk_wl = design.wirelength() - leaf_wl
        return DesignRoutingResult(
            design=design,
            clustering=clustering,
            trunk_wirelength=trunk_wl,
            leaf_wirelength=leaf_wl,
            tap_names=tap_names,
            parallel_tasks=len(payloads),
            parallel_diagnostics=diagnostics,
        )

    def _stitch_top_design(
        self,
        design: DesignArrays,
        root_row: int,
        top_node,
        regions: list[_RegionShard],
        tap_bases: list[int],
        tap_names: list[str],
    ) -> int:
        """:meth:`_materialise_top_design` over routed shards: top-level
        steiners are created in DFS order, and each ``high_{i}`` leaf grafts
        region ``i``'s shard instead of expanding a sub-DME."""

        def expand(parent_row: int, node) -> int:
            if node.is_leaf:
                index = int(node.terminal.name.split("_")[1])
                return self._graft_region(
                    design, parent_row, regions[index], tap_bases[index], tap_names
                )
            location = node.location
            steiner = design.add_child(
                parent_row, design.new_name("st"), KIND_STEINER, location.x, location.y
            )
            for child in node.children:
                expand(steiner, child)
            return steiner

        return expand(root_row, top_node)

    def _graft_region(
        self,
        design: DesignArrays,
        parent_row: int,
        region: _RegionShard,
        tap_base: int,
        tap_names: list[str],
    ) -> int:
        """Splice one shard under ``parent_row`` with serial-order names.

        Shard rows were appended in DFS creation order, so walking them
        ascending replays the serial expansion of this region exactly:
        steiner rows draw the next ``st_{n}`` from the design's shared
        counter, tap rows translate their shard-local index to the global
        low-cluster index, and sink rows keep their design names.
        """
        shard = region.shard
        names: list[str] = []
        region_taps: list[str] = []
        for row in range(1, shard.size):
            local = shard.names[row]
            if shard.kind[row] == KIND_STEINER:
                names.append(design.new_name("st"))
            elif shard.kind[row] == KIND_TAP:
                name = f"tap_{tap_base + int(local.split('_')[1])}"
                names.append(name)
                region_taps.append(name)
            else:
                names.append(local)
        rows = design.graft(shard, parent_row, names)
        tap_names.extend(region_taps)
        return int(rows[0])

    def _route_flat_design(self, clock_net: ClockNet) -> DesignRoutingResult:
        layer = self.pdk.front_layer
        router = create_dme_router(layer, backend=self.dme_backend)
        terminals = [
            DmeTerminal(name=s.name, location=s.location, capacitance=s.capacitance)
            for s in clock_net.sinks
        ]
        embedding = _embed(router, terminals, clock_net.source.location)
        design = DesignArrays(name=clock_net.name)
        source = clock_net.source.location
        root_row = design.add_root("clkroot", source.x, source.y)
        self._materialise_flat_design(
            design, root_row, _root_cursor(embedding), clock_net
        )
        return DesignRoutingResult(
            design=design,
            clustering=None,
            trunk_wirelength=design.wirelength(),
            leaf_wirelength=0.0,
            tap_names=[],
        )

    def _materialise_top_design(
        self,
        design: DesignArrays,
        root_row: int,
        top_node,
        sub_roots: "list[tuple[DmeEmbedding | EmbeddedNode, list[Cluster]]]",
        tap_names: list[str],
    ) -> int:
        """Materialise the top-level DME; its leaves expand into sub-DMEs."""

        def expand(parent_row: int, node) -> int:
            if node.is_leaf:
                index = int(node.terminal.name.split("_")[1])
                embedding, lows = sub_roots[index]
                return _materialise_sub_design(
                    design, parent_row, embedding, lows, tap_names
                )
            location = node.location
            steiner = design.add_child(
                parent_row, design.new_name("st"), KIND_STEINER, location.x, location.y
            )
            for child in node.children:
                expand(steiner, child)
            return steiner

        return expand(root_row, top_node)

    def _materialise_flat_design(
        self,
        design: DesignArrays,
        parent_row: int,
        node,
        clock_net: ClockNet,
    ) -> int:
        """Materialise the flat DME: steiner rows above one row per sink."""
        if node.is_leaf:
            sink = clock_net.sink_by_name(node.terminal.name)
            return design.add_child(
                parent_row,
                sink.name,
                KIND_SINK,
                sink.location.x,
                sink.location.y,
                capacitance=sink.capacitance,
            )
        location = node.location
        steiner = design.add_child(
            parent_row, design.new_name("st"), KIND_STEINER, location.x, location.y
        )
        for child in node.children:
            self._materialise_flat_design(design, steiner, child, clock_net)
        return steiner

    @staticmethod
    def _leaf_wirelength_design(design: DesignArrays, tap_names: list[str]) -> float:
        """Star leaf-net wirelength below the named taps (um)."""
        total = 0.0
        for name in tap_names:
            tap = design.name_to_row[name]
            for child in design.children_rows[tap]:
                if design.kind[child] == KIND_SINK:
                    total += float(design.edge_length[child])
        return total
