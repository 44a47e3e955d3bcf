"""Nodes of the clock tree."""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Optional

from repro.geometry import Point
from repro.tech.layers import Side


class NodeKind(enum.Enum):
    """What a clock tree node physically is."""

    ROOT = "root"  # the clock source
    STEINER = "steiner"  # a routing merge/branch point
    SINK = "sink"  # a flip-flop clock pin
    BUFFER = "buffer"  # an inserted clock buffer
    NTSV = "ntsv"  # an inserted nano-TSV (side change point)
    TAP = "tap"  # a cluster tap point (low-level centroid)


@dataclass(eq=False)
class ClockTreeNode:
    """A node of the clock tree.

    Attributes:
        name: unique node name within its tree.
        kind: physical node kind.
        location: placement location in micrometres.
        side: which die face the node's pins are on.  Buffers are always on
            the front side; an nTSV spans both sides and stores the side of
            its *upstream* (root-facing) terminal, with the downstream
            terminal implicitly on the opposite side.
        capacitance: pin input capacitance (fF) for sinks and buffers; the
            via capacitance for nTSVs; 0 for Steiner points.
        wire_side: side of the wire connecting this node to its parent
            (meaningless for the root).
        parent / children: tree structure links.
    """

    name: str
    kind: NodeKind
    location: Point
    side: Side = Side.FRONT
    capacitance: float = 0.0
    wire_side: Side = Side.FRONT
    parent: Optional["ClockTreeNode"] = field(default=None, repr=False)
    children: list["ClockTreeNode"] = field(default_factory=list, repr=False)

    def __post_init__(self) -> None:
        if self.capacitance < 0:
            raise ValueError(f"node {self.name}: negative capacitance")
        if self.kind is NodeKind.BUFFER and self.side is not Side.FRONT:
            raise ValueError(f"buffer {self.name} must sit on the front side")

    # ------------------------------------------------------------- structure
    @property
    def is_leaf(self) -> bool:
        return not self.children

    @property
    def is_sink(self) -> bool:
        return self.kind is NodeKind.SINK

    @property
    def is_buffer(self) -> bool:
        return self.kind is NodeKind.BUFFER

    @property
    def is_ntsv(self) -> bool:
        return self.kind is NodeKind.NTSV

    def add_child(self, child: "ClockTreeNode") -> "ClockTreeNode":
        """Attach ``child`` below this node and return it."""
        if child.parent is not None:
            raise ValueError(f"node {child.name} already has a parent")
        if child is self:
            raise ValueError(f"node {self.name} cannot be its own child")
        child.parent = self
        self.children.append(child)
        return child

    # --------------------------------------------------------------- queries
    def edge_length(self) -> float:
        """Manhattan length (um) of the wire from the parent to this node."""
        if self.parent is None:
            return 0.0
        return self.location.manhattan(self.parent.location)

    def iter_subtree(self):
        """Yield this node and every descendant (pre-order)."""
        stack = [self]
        while stack:
            node = stack.pop()
            yield node
            stack.extend(reversed(node.children))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ClockTreeNode({self.name!r}, {self.kind.value}, {self.location}, "
            f"side={self.side.value})"
        )
