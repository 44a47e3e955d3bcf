"""Building the heterogeneous DP tree from a routed clock tree (Step 1).

Every *trunk* edge of the clock tree (an edge whose downstream node is not a
sink) becomes one DP node.  Two adjacent trunk edges are linked in the DP
tree, which is therefore rooted at the edge leaving the clock root.  Each DP
node carries an insertion mode (full / intra-side), which is how the DSE flow
of Section III-E makes the DP tree *heterogeneous*.

Long trunk edges are optionally subdivided into chains of shorter segments
before the DP, so that more than one buffer/nTSV pattern can be placed along
a physically long route (part of the double-side design space formulation).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

from repro.clocktree import ClockTree, ClockTreeNode, NodeKind
from repro.geometry.point import point_toward
from repro.insertion.patterns import InsertionMode
from repro.ir.design import KIND_SINK, KIND_STEINER, DesignArrays
from repro.tech.layers import Side
from repro.tech.pdk import Pdk


@dataclass
class DpNode:
    """A DP node: one trunk edge of the (segmented) clock tree.

    Attributes:
        index: position in the bottom-up evaluation order.
        tree_child: the clock-tree node at the downstream (sink-facing) end
            of the edge; the upstream end is ``tree_child.parent``.
        length: Manhattan length of the edge (um).
        predecessors: DP nodes of the trunk edges directly below this one.
        mode: insertion mode restricting the selectable patterns.
        fanout: number of sinks in the subtree below the edge (used by the
            DSE fanout threshold).
        base_capacitance: static load at the downstream vertex that is not
            covered by predecessor DP nodes: the vertex's own pin capacitance
            plus the leaf-net wire and sink-pin capacitance of direct sink
            children (the leaf net stays on the front side).
        base_max_delay / base_min_delay: worst / best delay (ps) from the
            downstream vertex through the leaf net to its direct sinks.
        corner_base_capacitance / corner_base_max_delay /
        corner_base_min_delay: per-corner tuples of the same three base
            quantities, populated by :func:`attach_corner_bases` for
            corner-aware DP runs; ``None`` on nominal-only trees.
    """

    index: int
    tree_child: ClockTreeNode | None
    length: float
    predecessors: list["DpNode"] = field(default_factory=list)
    mode: InsertionMode = InsertionMode.FULL
    fanout: int = 0
    base_capacitance: float = 0.0
    base_max_delay: float = 0.0
    base_min_delay: float = 0.0
    corner_base_capacitance: tuple[float, ...] | None = None
    corner_base_max_delay: tuple[float, ...] | None = None
    corner_base_min_delay: tuple[float, ...] | None = None
    #: Downstream row when the DP tree was built over a
    #: :class:`~repro.ir.design.DesignArrays` (``tree_child`` is None then).
    tree_row: int = -1
    #: Cached direct-sink flag for IR-built nodes; ``None`` falls back to the
    #: object-tree children scan.
    direct_sinks: bool | None = None

    @property
    def is_leaf(self) -> bool:
        """True when the DP node has no trunk-edge predecessors."""
        return not self.predecessors

    @property
    def has_direct_sinks(self) -> bool:
        """True when the downstream vertex drives a leaf net directly."""
        if self.direct_sinks is not None:
            return self.direct_sinks
        return any(child.is_sink for child in self.tree_child.children)

    @property
    def name(self) -> str:
        if self.tree_child is None:
            return f"dp[@{self.tree_row}]"
        return f"dp[{self.tree_child.name}]"


@dataclass
class DpTree:
    """The full DP tree: all DP nodes in bottom-up order plus the roots."""

    nodes: list[DpNode]
    root_nodes: list[DpNode]
    clock_tree: ClockTree | DesignArrays

    @property
    def node_count(self) -> int:
        return len(self.nodes)

    def leaves(self) -> list[DpNode]:
        return [n for n in self.nodes if n.is_leaf]

    def configure_modes(
        self, mode_of: Callable[[DpNode], InsertionMode]
    ) -> None:
        """Assign an insertion mode to every DP node (the DSE control knob)."""
        for node in self.nodes:
            node.mode = mode_of(node)

    def configure_fanout_threshold(self, threshold: int) -> None:
        """The paper's DSE heuristic: full mode below the fanout threshold.

        Nodes whose downstream sink count is lower than ``threshold`` are set
        to full mode (flexible nTSV); nodes at or above the threshold are set
        to intra-side mode (nTSV forbidden).
        """
        if threshold < 0:
            raise ValueError("fanout threshold must be non-negative")
        self.configure_modes(
            lambda node: InsertionMode.FULL
            if node.fanout < threshold
            else InsertionMode.INTRA_SIDE
        )

    def mode_histogram(self) -> dict[InsertionMode, int]:
        """Count DP nodes per insertion mode (used by DSE reporting)."""
        histogram = {InsertionMode.FULL: 0, InsertionMode.INTRA_SIDE: 0}
        for node in self.nodes:
            histogram[node.mode] += 1
        return histogram


def segment_long_edges(
    tree: ClockTree | DesignArrays, max_segment_length: float
) -> int:
    """Split trunk edges longer than ``max_segment_length`` into segments.

    New Steiner nodes are inserted along an L-shaped Manhattan path between
    the two end-points.  Returns the number of Steiner nodes added.  Accepts
    either representation; the design path inserts the same Steiner names at
    the same points in the same order as the object path.
    """
    if max_segment_length <= 0:
        raise ValueError("max segment length must be positive")
    if isinstance(tree, DesignArrays):
        return _segment_long_edges_design(tree, max_segment_length)
    added = 0
    # Snapshot the edges first: we mutate the tree while iterating.
    trunk_children = [
        node
        for node in tree.nodes()
        if node.parent is not None and not node.is_sink
    ]
    for child in trunk_children:
        parent = child.parent
        length = child.edge_length()
        if length <= max_segment_length:
            continue
        segments = int(length // max_segment_length)
        if length % max_segment_length == 0:
            segments -= 1
        # Pre-compute the split points from the original child location, then
        # insert them nearest-to-child first so repeated insert_on_edge calls
        # stack correctly (each new Steiner point becomes the parent of the
        # previous one, walking toward the original parent).
        locations = [
            point_toward(child.location, parent.location, (length * i) / (segments + 1))
            for i in range(1, segments + 1)
        ]
        current = child
        for location in locations:
            tree.insert_on_edge(
                current,
                NodeKind.STEINER,
                location,
                side=Side.FRONT,
                wire_side=current.wire_side,
            )
            current = current.parent  # the freshly inserted node
            added += 1
    return added


def _segment_long_edges_design(design: DesignArrays, max_segment_length: float) -> int:
    """Row twin of :func:`segment_long_edges` (same splits, same names)."""
    added = 0
    trunk_rows = [
        row
        for row in design.rows_preorder()
        if design.parent_row[row] >= 0 and design.kind[row] != KIND_SINK
    ]
    for child in trunk_rows:
        parent = int(design.parent_row[child])
        length = float(design.edge_length[child])
        if length <= max_segment_length:
            continue
        segments = int(length // max_segment_length)
        if length % max_segment_length == 0:
            segments -= 1
        child_location = design.location_of(child)
        parent_location = design.location_of(parent)
        locations = [
            point_toward(
                child_location, parent_location, (length * i) / (segments + 1)
            )
            for i in range(1, segments + 1)
        ]
        current = child
        for location in locations:
            current = design.insert_on_edge(
                current,
                KIND_STEINER,
                location.x,
                location.y,
                side_front=True,
                wire_front=bool(design.wire_front[current]),
            )
            added += 1
    return added


def _leaf_net_bases(
    tree_node: ClockTreeNode, layers: Sequence
) -> tuple[list[float], list[float], list[float]]:
    """Static (cap, max delay, min delay) of one vertex's direct leaf net,
    evaluated against several front clock layers in a single child pass.

    The leaf net stays on the front side, so the only technology input is the
    front clock layer — which is what varies per corner when the DP runs
    corner-aware (see :func:`attach_corner_bases`).  The per-layer
    accumulation order matches a per-layer loop exactly, so the multi-layer
    pass is bit-identical to repeated single-layer evaluations.
    """
    count = len(layers)
    caps = [tree_node.capacitance] * count
    maxs = [0.0] * count
    mins = [float("inf")] * count
    has_sink_child = False
    for child in tree_node.children:
        if not child.is_sink:
            continue
        has_sink_child = True
        length = child.edge_length()
        child_cap = child.capacitance
        for i, layer in enumerate(layers):
            caps[i] += layer.wire_capacitance(length) + child_cap
            delay = layer.wire_delay(length, child_cap)
            maxs[i] = max(maxs[i], delay)
            mins[i] = min(mins[i], delay)
    if not has_sink_child:
        mins = [0.0] * count
    return caps, maxs, mins


def _leaf_net_base(tree_node: ClockTreeNode, front_layer) -> tuple[float, float, float]:
    """Single-layer view of :func:`_leaf_net_bases` (the nominal base)."""
    caps, maxs, mins = _leaf_net_bases(tree_node, (front_layer,))
    return caps[0], maxs[0], mins[0]


def _leaf_net_bases_design(
    design: DesignArrays, row: int, layers: Sequence
) -> tuple[list[float], list[float], list[float]]:
    """Row twin of :func:`_leaf_net_bases` (same child order, same floats)."""
    count = len(layers)
    caps = [float(design.cap[row])] * count
    maxs = [0.0] * count
    mins = [float("inf")] * count
    has_sink_child = False
    for child in design.children_rows[row]:
        if design.kind[child] != KIND_SINK:
            continue
        has_sink_child = True
        length = float(design.edge_length[child])
        child_cap = float(design.cap[child])
        for i, layer in enumerate(layers):
            caps[i] += layer.wire_capacitance(length) + child_cap
            delay = layer.wire_delay(length, child_cap)
            maxs[i] = max(maxs[i], delay)
            mins[i] = min(mins[i], delay)
    if not has_sink_child:
        mins = [0.0] * count
    return caps, maxs, mins


def attach_corner_bases(dp_tree: DpTree, corner_pdks: Sequence[Pdk]) -> None:
    """Populate per-corner leaf-net bases on every DP node.

    ``corner_pdks`` is the corner-scaled PDK list (one
    ``scenario.apply_to(pdk)`` per scenario, corner order) of a resolved
    :class:`~repro.tech.corners.CornerSet`.  Idempotent: re-attaching with a
    different corner set simply overwrites the tuples, so a DP tree built
    nominal-only (or for another corner set) can be reused.
    """
    layers = [corner_pdk.front_layer for corner_pdk in corner_pdks]
    for dp_node in dp_tree.nodes:
        if dp_node.tree_child is not None:
            caps, maxs, mins = _leaf_net_bases(dp_node.tree_child, layers)
        else:
            caps, maxs, mins = _leaf_net_bases_design(
                dp_tree.clock_tree, dp_node.tree_row, layers
            )
        dp_node.corner_base_capacitance = tuple(caps)
        dp_node.corner_base_max_delay = tuple(maxs)
        dp_node.corner_base_min_delay = tuple(mins)


def build_dp_tree(
    tree: ClockTree | DesignArrays,
    pdk: Pdk,
    max_segment_length: float | None = 200.0,
    default_mode: InsertionMode = InsertionMode.FULL,
    corner_pdks: Sequence[Pdk] | None = None,
) -> DpTree:
    """Build the DP tree over the trunk edges of ``tree``.

    Args:
        tree: the routed clock tree — :class:`ClockTree` or its array IR,
            :class:`~repro.ir.design.DesignArrays` (modified in place when
            segmentation splits long edges).  The design path produces DP
            nodes with identical indices, lengths, bases, and modes, so the
            downstream DP is decision-identical.
        pdk: technology used to evaluate leaf-net loads and delays.
        max_segment_length: maximum trunk edge length (um) before the edge is
            subdivided; ``None`` disables segmentation.
        default_mode: initial insertion mode of every DP node.
        corner_pdks: when given, per-corner leaf-net bases are attached for a
            corner-aware DP run (see :func:`attach_corner_bases`).

    Returns:
        The :class:`DpTree` with nodes listed in bottom-up (children before
        parents) order.
    """
    if isinstance(tree, DesignArrays):
        return _build_dp_tree_design(
            tree, pdk, max_segment_length, default_mode, corner_pdks
        )
    if max_segment_length is not None:
        segment_long_edges(tree, max_segment_length)

    front_layer = pdk.front_layer
    dp_by_tree_node: dict[int, DpNode] = {}
    nodes: list[DpNode] = []
    sink_counts: dict[int, int] = {}

    for tree_node in tree.nodes_bottom_up():
        # One accumulating pass over the bottom-up order replaces the
        # per-node subtree walks of ``ClockTreeNode.sink_count``.
        fanout = 1 if tree_node.is_sink else 0
        for child in tree_node.children:
            fanout += sink_counts[id(child)]
        sink_counts[id(tree_node)] = fanout
        if tree_node.parent is None or tree_node.is_sink:
            continue
        predecessors = [
            dp_by_tree_node[id(child)]
            for child in tree_node.children
            if not child.is_sink and id(child) in dp_by_tree_node
        ]
        base_cap, base_max, base_min = _leaf_net_base(tree_node, front_layer)
        dp_node = DpNode(
            index=len(nodes),
            tree_child=tree_node,
            length=tree_node.edge_length(),
            predecessors=predecessors,
            mode=default_mode,
            fanout=fanout,
            base_capacitance=base_cap,
            base_max_delay=base_max,
            base_min_delay=base_min,
        )
        dp_by_tree_node[id(tree_node)] = dp_node
        nodes.append(dp_node)

    root_nodes = [
        dp_by_tree_node[id(child)]
        for child in tree.root.children
        if id(child) in dp_by_tree_node
    ]
    if not root_nodes:
        raise ValueError("the clock tree has no trunk edges to optimise")
    dp_tree = DpTree(nodes=nodes, root_nodes=root_nodes, clock_tree=tree)
    if corner_pdks is not None:
        attach_corner_bases(dp_tree, corner_pdks)
    return dp_tree


def _build_dp_tree_design(
    design: DesignArrays,
    pdk: Pdk,
    max_segment_length: float | None,
    default_mode: InsertionMode,
    corner_pdks: Sequence[Pdk] | None,
) -> DpTree:
    """Row twin of :func:`build_dp_tree` over a :class:`DesignArrays`.

    The bottom-up order is the reversed BFS row order, which matches
    ``ClockTree.nodes_bottom_up`` exactly, so DP node indices line up with
    the object build node for node.
    """
    if max_segment_length is not None:
        _segment_long_edges_design(design, max_segment_length)

    front_layer = pdk.front_layer
    dp_by_row: dict[int, DpNode] = {}
    nodes: list[DpNode] = []
    sink_counts: dict[int, int] = {}

    bfs_rows = [int(row) for level in design.levels() for row in level]
    # Column views as Python lists: ``tolist`` yields the identical floats
    # ``float(arr[row])`` would, so the per-row arithmetic below is bit-equal
    # to the array-indexing version while skipping numpy scalar overhead.
    n = design.size
    kinds = design.kind[:n].tolist()
    edges = design.edge_length[:n].tolist()
    caps_col = design.cap[:n].tolist()
    parents = design.parent_row[:n].tolist()
    children = design.children_rows
    wire_capacitance = front_layer.wire_capacitance
    wire_delay = front_layer.wire_delay
    for row in reversed(bfs_rows):
        is_sink = kinds[row] == KIND_SINK
        fanout = 1 if is_sink else 0
        child_rows = children[row]
        for child in child_rows:
            fanout += sink_counts[child]
        sink_counts[row] = fanout
        if parents[row] < 0 or is_sink:
            continue
        # Inlined row twin of ``_leaf_net_bases_design`` (single layer),
        # fused with the predecessor scan — same child order, same floats.
        predecessors = []
        base_cap = caps_col[row]
        base_max = 0.0
        base_min = float("inf")
        has_sink_child = False
        for child in child_rows:
            if kinds[child] == KIND_SINK:
                has_sink_child = True
                length = edges[child]
                child_cap = caps_col[child]
                base_cap += wire_capacitance(length) + child_cap
                delay = wire_delay(length, child_cap)
                if delay > base_max:
                    base_max = delay
                if delay < base_min:
                    base_min = delay
            elif child in dp_by_row:
                predecessors.append(dp_by_row[child])
        if not has_sink_child:
            base_min = 0.0
        dp_node = DpNode(
            index=len(nodes),
            tree_child=None,
            length=edges[row],
            predecessors=predecessors,
            mode=default_mode,
            fanout=fanout,
            base_capacitance=base_cap,
            base_max_delay=base_max,
            base_min_delay=base_min,
            tree_row=row,
            direct_sinks=has_sink_child,
        )
        dp_by_row[row] = dp_node
        nodes.append(dp_node)

    root_nodes = [
        dp_by_row[child] for child in design.children_rows[0] if child in dp_by_row
    ]
    if not root_nodes:
        raise ValueError("the clock tree has no trunk edges to optimise")
    dp_tree = DpTree(nodes=nodes, root_nodes=root_nodes, clock_tree=design)
    if corner_pdks is not None:
        attach_corner_bases(dp_tree, corner_pdks)
    return dp_tree
