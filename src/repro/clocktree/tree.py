"""The :class:`ClockTree` container: traversal, counts and validation."""

from __future__ import annotations

from typing import Iterator

from repro.tech.layers import Side
from repro.clocktree.node import ClockTreeNode, NodeKind


class ConnectivityError(RuntimeError):
    """Raised when a tree violates the double-side connectivity constraint."""


class ClockTree:
    """A rooted clock tree with helpers for traversal, metrics and validation.

    The tree is a read-only export view of a
    :class:`~repro.ir.design.DesignArrays` design
    (:meth:`~repro.ir.design.DesignArrays.to_clock_tree`): run results,
    DEF/JSON export and SVG read it, and the reference timing engine
    compiles it back to a design.  Every edit goes through the design.
    The tree carries the design's name counter, so
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

        The tree is compiled (:meth:`DesignArrays.from_clock_tree`) and
        checked by :meth:`DesignArrays.validate`, the one place the rules
        are written.  Raises :class:`ConnectivityError` when:

        * a non-nTSV node touches a wire on the opposite side (the paper's
          "shared vertex of any two edges must have the same side type"),
          or an nTSV's downstream wires are not on the opposite side,
        * a buffer sits on the back side,
        * a sink is not on the front side,
        * the parent/child links are inconsistent or contain a cycle,
        * two nodes share a name.
        """
        # Deferred import: repro.ir.design imports this module.
        from repro.ir.design import DesignArrays

        DesignArrays.from_clock_tree(self).validate()

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
