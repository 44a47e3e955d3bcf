"""The :class:`ClockTree` container: traversal, counts and validation."""

from __future__ import annotations

from collections import deque
from typing import Iterator

from repro.tech.layers import Side
from repro.clocktree.node import ClockTreeNode, NodeKind


class ConnectivityError(RuntimeError):
    """Raised when a tree violates the double-side connectivity constraint."""


class ClockTree:
    """A rooted clock tree with helpers for traversal, metrics and validation.

    The tree is a read-only realised view of a
    :class:`~repro.ir.design.DesignArrays` design
    (:meth:`~repro.ir.design.DesignArrays.to_clock_tree`): the reference
    timing engine, DEF/JSON export and SVG read it.  Every edit goes
    through the design.  The tree carries the design's name counter, so
    ``DesignArrays.from_clock_tree(tree)`` continues the design's
    fresh-name sequence.
    """

    def __init__(self, root: ClockTreeNode, name: str = "clk") -> None:
        if root.parent is not None:
            raise ValueError("the root of a clock tree must not have a parent")
        if root.kind is not NodeKind.ROOT:
            raise ValueError("the tree root must be a ROOT node")
        self.name = name
        self.root = root
        self._counter = 0

    # ------------------------------------------------------------- traversal
    def nodes(self) -> Iterator[ClockTreeNode]:
        """Yield every node in pre-order (root first)."""
        return self.root.iter_subtree()

    def nodes_bottom_up(self) -> list[ClockTreeNode]:
        """Return every node ordered so children precede their parents."""
        order: list[ClockTreeNode] = []
        queue: deque[ClockTreeNode] = deque([self.root])
        while queue:
            node = queue.popleft()
            order.append(node)
            queue.extend(node.children)
        order.reverse()
        return order

    def sinks(self) -> list[ClockTreeNode]:
        """All sink nodes."""
        return [n for n in self.nodes() if n.is_sink]

    def buffers(self) -> list[ClockTreeNode]:
        """All inserted buffer nodes."""
        return [n for n in self.nodes() if n.is_buffer]

    def ntsvs(self) -> list[ClockTreeNode]:
        """All inserted nTSV nodes."""
        return [n for n in self.nodes() if n.is_ntsv]

    def find(self, name: str) -> ClockTreeNode:
        """The first node in pre-order named ``name`` (``KeyError`` when absent)."""
        for node in self.nodes():
            if node.name == name:
                return node
        raise KeyError(f"clock tree {self.name}: no node named {name!r}")

    # -------------------------------------------------------------- metrics
    def counts(self) -> tuple[int, int, int, int]:
        """(nodes, sinks, buffers, ntsvs) in one pass over the raw links.

        This is the ``nodes()``-free fast path shared by the individual
        ``*_count`` helpers: a tight loop over ``children`` lists without the
        generator and property overhead of :meth:`nodes`.
        """
        nodes = sinks = buffers = ntsvs = 0
        sink_kind, buffer_kind, ntsv_kind = NodeKind.SINK, NodeKind.BUFFER, NodeKind.NTSV
        stack = [self.root]
        pop = stack.pop
        extend = stack.extend
        while stack:
            node = pop()
            nodes += 1
            kind = node.kind
            if kind is sink_kind:
                sinks += 1
            elif kind is buffer_kind:
                buffers += 1
            elif kind is ntsv_kind:
                ntsvs += 1
            extend(node.children)
        return nodes, sinks, buffers, ntsvs

    def node_count(self) -> int:
        return self.counts()[0]

    def buffer_count(self) -> int:
        return self.counts()[2]

    def ntsv_count(self) -> int:
        return self.counts()[3]

    def sink_count(self) -> int:
        return self.counts()[1]

    def wirelength(self, side: Side | None = None) -> float:
        """Total Manhattan wirelength (um), optionally restricted to one side."""
        total = 0.0
        for node in self.nodes():
            if node.parent is None:
                continue
            if side is not None and node.wire_side is not side:
                continue
            total += node.edge_length()
        return total

    # ----------------------------------------------------------- validation
    def validate(self) -> None:
        """Check structural and double-side connectivity invariants.

        Raises :class:`ConnectivityError` when:

        * a non-nTSV node touches a wire on the opposite side (the paper's
          "shared vertex of any two edges must have the same side type"),
        * a buffer sits on the back side,
        * a sink is not on the front side,
        * the parent/child links are inconsistent or contain a cycle,
        * two nodes share a name.
        """
        seen: set[int] = set()
        names: set[str] = set()
        for node in self.nodes():
            if id(node) in seen:
                raise ConnectivityError(f"cycle detected at node {node.name!r}")
            seen.add(id(node))
            if node.name in names:
                raise ConnectivityError(f"duplicate node name {node.name!r}")
            names.add(node.name)
            for child in node.children:
                if child.parent is not node:
                    raise ConnectivityError(
                        f"broken parent link: {child.name!r} does not point to {node.name!r}"
                    )
            if node.is_buffer and node.side is not Side.FRONT:
                raise ConnectivityError(f"buffer {node.name!r} is on the back side")
            if node.is_sink and node.side is not Side.FRONT:
                raise ConnectivityError(f"sink {node.name!r} is on the back side")
            self._check_side_consistency(node)

    def _check_side_consistency(self, node: ClockTreeNode) -> None:
        """Verify every wire touching ``node`` is compatible with its side."""
        incident_sides: list[Side] = []
        if node.parent is not None:
            incident_sides.append(node.wire_side)
        incident_sides.extend(child.wire_side for child in node.children)
        if node.is_ntsv:
            # An nTSV spans both sides: the upstream wire must match the
            # stored (upstream) side and downstream wires the opposite side.
            if node.parent is not None and node.wire_side is not node.side:
                raise ConnectivityError(
                    f"nTSV {node.name!r}: upstream wire on {node.wire_side.value}, "
                    f"expected {node.side.value}"
                )
            for child in node.children:
                if child.wire_side is not node.side.opposite:
                    raise ConnectivityError(
                        f"nTSV {node.name!r}: downstream wire on "
                        f"{child.wire_side.value}, expected {node.side.opposite.value}"
                    )
            return
        for side in incident_sides:
            if side is not node.side:
                raise ConnectivityError(
                    f"node {node.name!r} ({node.kind.value}) on side {node.side.value} "
                    f"touches a wire on side {side.value}"
                )

    def __reduce__(self):
        """Pickle as a flat node table instead of the linked node graph.

        Default pickling recurses through the parent/child links and blows
        the recursion limit on deep (chained) trees; the flat form keeps
        process-pool transport depth-safe.
        """
        index: dict[int, int] = {}
        rows = []
        for position, node in enumerate(self.nodes()):
            index[id(node)] = position
            rows.append(
                (
                    node.name,
                    node.kind,
                    node.location,
                    node.side,
                    node.capacitance,
                    node.wire_side,
                    -1 if node.parent is None else index[id(node.parent)],
                )
            )
        return (_rebuild_tree, (self.name, self._counter, rows))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ClockTree(name={self.name!r}, nodes={self.node_count()}, "
            f"sinks={self.sink_count()}, buffers={self.buffer_count()}, "
            f"ntsvs={self.ntsv_count()})"
        )


def _rebuild_tree(name, counter, rows) -> ClockTree:
    """Inverse of :meth:`ClockTree.__reduce__` (parents precede children)."""
    nodes: list[ClockTreeNode] = []
    root: ClockTreeNode | None = None
    for node_name, kind, location, side, capacitance, wire_side, parent_index in rows:
        node = ClockTreeNode(
            name=node_name,
            kind=kind,
            location=location,
            side=side,
            capacitance=capacitance,
            wire_side=wire_side,
        )
        if parent_index < 0:
            root = node
        else:
            nodes[parent_index].add_child(node)
        nodes.append(node)
    assert root is not None
    tree = ClockTree(root, name=name)
    tree._counter = counter
    return tree
