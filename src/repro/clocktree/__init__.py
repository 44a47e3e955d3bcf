"""Clock tree data structures shared by every flow in the library.

A :class:`ClockTree` is a rooted tree of :class:`ClockTreeNode` objects.
Sinks are leaves; Steiner (merge) points, buffers, and nTSVs are internal
nodes.  Every node carries a *side* (front or back) and every edge carries
the side of the wire implementing it, which is how the double-side structure
of the paper (Fig. 2) is represented.
"""

from repro.clocktree.node import ClockTreeNode, NodeKind
from repro.clocktree.tree import ClockTree, ConnectivityError

__all__ = ["ClockTreeNode", "NodeKind", "ClockTree", "ConnectivityError"]
