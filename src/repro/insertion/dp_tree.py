"""Building the heterogeneous DP tree from a routed design (Step 1).

Every *trunk* edge of the routed :class:`~repro.ir.design.DesignArrays` (an
edge whose downstream row is not a sink) becomes one DP node.  Two adjacent
trunk edges are linked in the DP tree, which is therefore rooted at the edge
leaving the clock root.  Each DP node carries an insertion mode (full /
intra-side), which is how the DSE flow of Section III-E makes the DP tree
*heterogeneous*.

Long trunk edges are optionally subdivided into chains of shorter segments
before the DP, so that more than one buffer/nTSV pattern can be placed along
a physically long route (part of the double-side design space formulation).

Both DP backends read only the :class:`DpNode` fields built here and realise
their decisions on the same design rows, so the DP has one input and one
output representation.  Every node's static leaf-net base is a per-corner
tuple over the DP's corner batch (one entry for the nominal DP), filled in
the same single walk that builds the tree.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

from repro.geometry.point import point_toward
from repro.insertion.patterns import InsertionMode
from repro.ir.design import KIND_SINK, KIND_STEINER, DesignArrays
from repro.tech.pdk import Pdk


@dataclass
class DpNode:
    """A DP node: one trunk edge of the (segmented) clock tree.

    Attributes:
        index: position in the bottom-up evaluation order.
        tree_row: the design row at the downstream (sink-facing) end of the
            edge; the upstream end is ``design.parent_row[tree_row]``.
        length: Manhattan length of the edge (um).
        predecessors: DP nodes of the trunk edges directly below this one.
        mode: insertion mode restricting the selectable patterns.
        fanout: number of sinks in the subtree below the edge (used by the
            DSE fanout threshold).
        corner_base_capacitance: per corner, the static load at the
            downstream vertex that is not covered by predecessor DP nodes:
            the vertex's own pin capacitance plus the leaf-net wire and
            sink-pin capacitance of direct sink children (the leaf net stays
            on the front side).
        corner_base_max_delay / corner_base_min_delay: per corner, the worst
            / best delay (ps) from the downstream vertex through the leaf net
            to its direct sinks.
        has_direct_sinks: True when the downstream vertex drives a leaf net
            directly.

    The three base tuples hold one entry per corner of the DP's batch, in
    corner order.
    """

    index: int
    tree_row: int
    length: float
    predecessors: list["DpNode"] = field(default_factory=list)
    mode: InsertionMode = InsertionMode.FULL
    fanout: int = 0
    corner_base_capacitance: tuple[float, ...] = (0.0,)
    corner_base_max_delay: tuple[float, ...] = (0.0,)
    corner_base_min_delay: tuple[float, ...] = (0.0,)
    has_direct_sinks: bool = False

    @property
    def is_leaf(self) -> bool:
        """True when the DP node has no trunk-edge predecessors."""
        return not self.predecessors

    @property
    def has_static_load(self) -> bool:
        """True when merging at the downstream vertex adds a base: a pin
        capacitance or a direct leaf net (without direct sinks the base is
        the pin capacitance at every corner)."""
        return self.has_direct_sinks or any(self.corner_base_capacitance)

    @property
    def name(self) -> str:
        return f"dp[@{self.tree_row}]"


@dataclass
class DpTree:
    """The full DP tree: all DP nodes in bottom-up order plus the roots."""

    nodes: list[DpNode]
    root_nodes: list[DpNode]
    #: The routed design the DP reads and realises its decisions on.
    design: DesignArrays

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


def segment_long_edges(design: DesignArrays, max_segment_length: float) -> int:
    """Split trunk edges longer than ``max_segment_length`` into segments.

    New Steiner rows are inserted along an L-shaped Manhattan path between
    the two end-points.  Returns the number of Steiner rows added.
    """
    if max_segment_length <= 0:
        raise ValueError("max segment length must be positive")
    added = 0
    # Snapshot the edges first: we mutate the design while iterating.
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
        # Pre-compute the split points from the original child location, then
        # insert them nearest-to-child first so repeated insert_on_edge calls
        # stack correctly (each new Steiner row becomes the parent of the
        # previous one, walking toward the original parent).
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
    row: int,
    kinds: list[int],
    edges: list[float],
    caps: list[float],
    child_rows: Sequence[int],
    layers: Sequence,
) -> tuple[tuple[float, ...], tuple[float, ...], tuple[float, ...]]:
    """Static (cap, max delay, min delay) tuples of one vertex's direct leaf
    net, evaluated against several front clock layers in a single child pass.

    The leaf net stays on the front side, so the only technology input is the
    front clock layer — which is what varies per corner.  The per-layer
    accumulation order matches :func:`build_dp_tree`'s fused one-layer loop
    exactly, so every entry is bit-identical to a one-layer evaluation.
    """
    count = len(layers)
    base_caps = [caps[row]] * count
    maxs = [0.0] * count
    mins = [float("inf")] * count
    has_sink_child = False
    for child in child_rows:
        if kinds[child] != KIND_SINK:
            continue
        has_sink_child = True
        length = edges[child]
        child_cap = caps[child]
        for i, layer in enumerate(layers):
            base_caps[i] += layer.wire_capacitance(length) + child_cap
            delay = layer.wire_delay(length, child_cap)
            maxs[i] = max(maxs[i], delay)
            mins[i] = min(mins[i], delay)
    if not has_sink_child:
        mins = [0.0] * count
    return tuple(base_caps), tuple(maxs), tuple(mins)


def build_dp_tree(
    design: DesignArrays,
    pdk: Pdk,
    max_segment_length: float | None = 200.0,
    default_mode: InsertionMode = InsertionMode.FULL,
    corner_pdks: Sequence[Pdk] | None = None,
) -> DpTree:
    """Build the DP tree over the trunk edges of ``design``.

    Args:
        design: the routed design (modified in place when segmentation
            splits long edges).
        pdk: technology used to evaluate leaf-net loads and delays.
        max_segment_length: maximum trunk edge length (um) before the edge is
            subdivided; ``None`` disables segmentation.
        default_mode: initial insertion mode of every DP node.
        corner_pdks: the corner-scaled PDKs of the DP's corner batch (one
            ``scenario.apply_to(pdk)`` per scenario, corner order); every
            node's base tuples hold one entry per PDK.  ``None`` is the
            one-corner batch ``[pdk]``.

    Returns:
        The :class:`DpTree` with nodes listed in bottom-up (children before
        parents) order: the reversed BFS row order.
    """
    if max_segment_length is not None:
        segment_long_edges(design, max_segment_length)

    layers = [corner_pdk.front_layer for corner_pdk in (corner_pdks or [pdk])]
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
    one_layer = len(layers) == 1
    wire_capacitance = layers[0].wire_capacitance
    wire_delay = layers[0].wire_delay
    for row in reversed(bfs_rows):
        is_sink = kinds[row] == KIND_SINK
        fanout = 1 if is_sink else 0
        child_rows = children[row]
        for child in child_rows:
            fanout += sink_counts[child]
        sink_counts[row] = fanout
        if parents[row] < 0 or is_sink:
            continue
        if one_layer:
            # Inlined one-layer ``_leaf_net_bases``, fused with the
            # predecessor scan — same child order, same floats.
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
            bases = (base_cap,), (base_max,), (base_min,)
        else:
            # Sinks are never DP nodes, so this is the same predecessor list.
            predecessors = [dp_by_row[c] for c in child_rows if c in dp_by_row]
            has_sink_child = any(kinds[c] == KIND_SINK for c in child_rows)
            bases = _leaf_net_bases(row, kinds, edges, caps_col, child_rows, layers)
        dp_node = DpNode(
            index=len(nodes),
            tree_row=row,
            length=edges[row],
            predecessors=predecessors,
            mode=default_mode,
            fanout=fanout,
            corner_base_capacitance=bases[0],
            corner_base_max_delay=bases[1],
            corner_base_min_delay=bases[2],
            has_direct_sinks=has_sink_child,
        )
        dp_by_row[row] = dp_node
        nodes.append(dp_node)

    root_nodes = [
        dp_by_row[child] for child in design.children_rows[0] if child in dp_by_row
    ]
    if not root_nodes:
        raise ValueError("the clock tree has no trunk edges to optimise")
    return DpTree(nodes=nodes, root_nodes=root_nodes, design=design)
