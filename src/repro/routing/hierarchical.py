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

Routing is serial at every ``CtsConfig.workers`` count: the worker pool
parallelises only the insertion DP (bottom DP subtrees, see
:meth:`~repro.insertion.frontier.VectorizedInsertionDp.run`).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from typing import TYPE_CHECKING

import numpy as np

from repro.clocktree import ClockTree, ClockTreeNode
from repro.clustering import Cluster, DualLevelClustering, dual_level_clustering
from repro.geometry import Point
from repro.ir.design import KIND_SINK, KIND_STEINER, KIND_TAP, DesignArrays
from repro.netlist.clock import ClockNet
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

    Taps are recorded by name.
    """

    design: DesignArrays
    clustering: DualLevelClustering | None
    trunk_wirelength: float
    leaf_wirelength: float
    tap_names: list[str] = field(default_factory=list)

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
    internal nodes, a tap row plus its star-routed sinks per leaf."""
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


class HierarchicalClockRouter:
    """Builds the initial clock tree topology of the paper's flow.

    Everything comes from the :class:`~repro.flow.config.CtsConfig`:
    clustering shape, seed, hierarchy mode, and the DME backend (through
    ``config.resolved_backends()``).
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
        if self.high_cluster_size < self.low_cluster_size:
            raise ValueError("high-level cluster size must be >= low-level size")

    # ---------------------------------------------------------------- public
    def route(self, clock_net: ClockNet) -> HierarchicalRoutingResult:
        """Route ``clock_net`` and realise the result as a :class:`ClockTree`.

        A boundary adapter over :meth:`route_design` for callers that read
        object trees (examples, tests); the flow and the baselines stay on
        the design rows.
        """
        routed = self.route_design(clock_net)
        tree = routed.design.to_clock_tree()
        by_name = {node.name: node for node in tree.nodes()}
        return HierarchicalRoutingResult(
            tree=tree,
            clustering=routed.clustering,
            trunk_wirelength=routed.trunk_wirelength,
            leaf_wirelength=routed.leaf_wirelength,
            tap_nodes=[by_name[name] for name in routed.tap_names],
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
    ) -> None:
        """Materialise the top-level DME; its leaves expand into sub-DMEs.

        An explicit stack with children pushed in reverse creates the rows
        in pre-order, as a recursive walk would.  It holds no reference
        cycle, so the embeddings are freed as soon as routing drops them.
        """
        stack = [(root_row, top_node)]
        while stack:
            parent_row, node = stack.pop()
            if node.is_leaf:
                index = int(node.terminal.name.split("_")[1])
                embedding, lows = sub_roots[index]
                _materialise_sub_design(design, parent_row, embedding, lows, tap_names)
                continue
            location = node.location
            steiner = design.add_child(
                parent_row, design.new_name("st"), KIND_STEINER, location.x, location.y
            )
            stack.extend((steiner, child) for child in reversed(node.children))

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
