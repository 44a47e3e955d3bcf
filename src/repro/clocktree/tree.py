"""The :class:`ClockTree` container and its structural operations."""

from __future__ import annotations

from collections import deque
from typing import Callable, Iterator

from repro.geometry import Point
from repro.tech.layers import Side
from repro.clocktree.node import ClockTreeNode, NodeKind


class ConnectivityError(RuntimeError):
    """Raised when a tree violates the double-side connectivity constraint."""


#: Edit-log length beyond which the log is collapsed into a single full
#: invalidation (shared by ``DesignArrays``, whose log the incremental timer
#: replays; past this point a fresh compile is cheaper than hundreds of
#: patches).
_MAX_EDIT_LOG = 256


class ClockTree:
    """A rooted clock tree with helpers for traversal, metrics, and editing.

    The tree owns a name counter so that flows can create uniquely named
    buffers, nTSVs, and Steiner points without coordinating with each other.

    Structural edits performed through the tree API (:meth:`insert_on_edge`,
    :meth:`add_buffer`, :meth:`add_ntsv`) are recorded in a bounded edit log.
    Its :attr:`version` keys :class:`~repro.timing.VectorizedElmoreEngine`'s
    cached compile of the tree (any recorded edit recompiles), and the log
    feeds the guard's edit-log coherence probes (:mod:`repro.guard`).
    Incremental re-timing runs on :class:`~repro.ir.design.DesignArrays`,
    whose log has the same shape.  Code that mutates nodes directly
    (``node.add_child`` / ``node.detach`` / attribute writes) must tell the
    tree about it with :meth:`mark_rewire` (when the changes are confined to
    one node's subtree) or :meth:`touch` (arbitrary changes).
    """

    def __init__(self, root: ClockTreeNode, name: str = "clk") -> None:
        if root.parent is not None:
            raise ValueError("the root of a clock tree must not have a parent")
        if root.kind is not NodeKind.ROOT:
            raise ValueError("the tree root must be a ROOT node")
        self.name = name
        self.root = root
        self._counter = 0
        self._version = 0
        self._edits: list[tuple[int, str, ClockTreeNode | None]] = []
        self._find_cache: dict[str, ClockTreeNode] | None = None

    # ------------------------------------------------------- edit tracking
    @property
    def version(self) -> int:
        """Monotonic structural version; bumped by every recorded edit."""
        return self._version

    def _record(self, kind: str, node: ClockTreeNode | None) -> None:
        self._version += 1
        self._edits.append((self._version, kind, node))
        if len(self._edits) > _MAX_EDIT_LOG:
            # Collapse: consumers past the first entry see "unknown edits".
            self._edits = [(self._version, "touch", None)]

    def mark_splice(self, node: ClockTreeNode) -> None:
        """Record that ``node`` was spliced onto the edge above its only child.

        ``node`` must be freshly inserted between its parent and exactly one
        pre-existing child (the :meth:`insert_on_edge` shape).
        """
        self._record("splice", node)

    def mark_rewire(self, node: ClockTreeNode) -> None:
        """Record that the subtree rooted at ``node`` changed arbitrarily.

        Covers re-parenting, node insertion/removal, and attribute changes
        (locations, capacitances, wire sides) as long as every affected node
        lies inside ``node``'s subtree and ``node`` itself stays attached.
        """
        self._record("rewire", node)

    def touch(self) -> None:
        """Record an unscoped structural change (forces full re-analysis)."""
        self._record("touch", None)

    @property
    def edit_log(self) -> tuple[tuple[int, str, ClockTreeNode | None], ...]:
        """The recorded ``(version, kind, node)`` edits, oldest first.

        Read-only view for coherence checks (:mod:`repro.guard`); incremental
        consumers should use :meth:`edits_since` instead.
        """
        return tuple(self._edits)

    def edits_since(
        self, version: int
    ) -> list[tuple[int, str, ClockTreeNode | None]] | None:
        """Edits recorded after ``version``, or None when the log was pruned.

        ``None`` means an incremental consumer compiled at ``version`` cannot
        catch up by replaying patches and must recompile from scratch.
        """
        if version == self._version:
            return []
        if not self._edits or self._edits[0][0] > version + 1:
            return None
        return [edit for edit in self._edits if edit[0] > version]

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

    def edges(self) -> list[tuple[ClockTreeNode, ClockTreeNode]]:
        """All (parent, child) edges."""
        return [(n.parent, n) for n in self.nodes() if n.parent is not None]

    def find(self, name: str) -> ClockTreeNode:
        """Find a node by name in O(1) amortised (raises ``KeyError`` when absent).

        A lazily built name index replaces the original O(n) scan.  Because
        trees can also be edited through node-level operations the tree never
        sees, every cache hit is verified (name unchanged and node still
        attached below this root); a stale hit or a miss falls back to one
        full scan that rebuilds the index.
        """
        cache = self._find_cache
        if cache is not None:
            node = cache.get(name)
            if node is not None and node.name == name and self._is_attached(node):
                return node
        # Miss or stale entry: rescan once, keeping first-in-preorder
        # semantics for (pathological) duplicate names.
        cache = {}
        for node in self.nodes():
            cache.setdefault(node.name, node)
        self._find_cache = cache
        if name in cache:
            return cache[name]
        raise KeyError(f"clock tree {self.name}: no node named {name!r}")

    def _is_attached(self, node: ClockTreeNode) -> bool:
        """True when walking parent links from ``node`` reaches this root."""
        while node.parent is not None:
            node = node.parent
        return node is self.root

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

    def max_depth(self) -> int:
        """Longest root-to-leaf path length in edges."""
        best = 0
        for node in self.nodes():
            if node.is_leaf:
                best = max(best, node.depth())
        return best

    # -------------------------------------------------------------- editing
    def new_name(self, prefix: str) -> str:
        """Return a fresh unique node name with the given prefix."""
        self._counter += 1
        return f"{prefix}_{self._counter}"

    def insert_on_edge(
        self,
        child: ClockTreeNode,
        kind: NodeKind,
        location: Point,
        side: Side = Side.FRONT,
        capacitance: float = 0.0,
        wire_side: Side | None = None,
        name: str | None = None,
    ) -> ClockTreeNode:
        """Insert a new node on the edge between ``child`` and its parent.

        The new node becomes the parent of ``child``.  ``wire_side`` sets the
        side of the *upper* wire (new node to old parent); the lower wire
        keeps ``child.wire_side`` unless the caller changes it afterwards.
        """
        parent = child.parent
        if parent is None:
            raise ValueError(f"cannot insert above the root node {child.name!r}")
        node = ClockTreeNode(
            name=name or self.new_name(kind.value),
            kind=kind,
            location=location,
            side=side,
            capacitance=capacitance,
            wire_side=wire_side if wire_side is not None else child.wire_side,
        )
        parent.children.remove(child)
        child.parent = None
        parent.add_child(node)
        node.add_child(child)
        self.mark_splice(node)
        return node

    def add_buffer(
        self,
        child: ClockTreeNode,
        location: Point,
        input_capacitance: float,
        name: str | None = None,
    ) -> ClockTreeNode:
        """Insert a clock buffer on the edge above ``child`` (front side)."""
        return self.insert_on_edge(
            child,
            NodeKind.BUFFER,
            location,
            side=Side.FRONT,
            capacitance=input_capacitance,
            wire_side=Side.FRONT,
            name=name,
        )

    def add_ntsv(
        self,
        child: ClockTreeNode,
        location: Point,
        capacitance: float,
        upstream_side: Side,
        name: str | None = None,
    ) -> ClockTreeNode:
        """Insert an nTSV on the edge above ``child``.

        ``upstream_side`` is the side of the wire toward the root; the wire
        toward ``child`` keeps its existing side.
        """
        return self.insert_on_edge(
            child,
            NodeKind.NTSV,
            location,
            side=upstream_side,
            capacitance=capacitance,
            wire_side=upstream_side,
            name=name,
        )

    # ----------------------------------------------------------- validation
    def validate(self) -> None:
        """Check structural and double-side connectivity invariants.

        Raises :class:`ConnectivityError` when:

        * a non-nTSV node touches a wire on the opposite side (the paper's
          "shared vertex of any two edges must have the same side type"),
        * a buffer sits on the back side,
        * a sink is not on the front side,
        * the parent/child links are inconsistent or contain a cycle,
        * two nodes share a name,
        * the :meth:`find` name index disagrees with the traversal.
        """
        seen: set[int] = set()
        names: dict[str, ClockTreeNode] = {}
        for node in self.nodes():
            if id(node) in seen:
                raise ConnectivityError(f"cycle detected at node {node.name!r}")
            seen.add(id(node))
            if node.name in names:
                raise ConnectivityError(f"duplicate node name {node.name!r}")
            names[node.name] = node
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
        self._check_find_index(names)

    def _check_find_index(self, names: dict[str, ClockTreeNode]) -> None:
        """Verify the lazy :meth:`find` cache is coherent with the traversal.

        Entries for renamed or detached nodes are fine — :meth:`find`
        detects those itself and rescans.  What it cannot detect is an entry
        whose node still carries the looked-up name and still reaches this
        root through parent links but is *not* part of the traversal (its
        parent does not list it as a child): :meth:`find` would keep serving
        a node the tree does not contain.
        """
        cache = self._find_cache
        if cache is None:
            return
        for key, cached in cache.items():
            if cached.name != key or names.get(key) is cached:
                continue
            if self._is_attached(cached):
                raise ConnectivityError(
                    f"find() index incoherent: entry {key!r} resolves to a "
                    "node the traversal does not reach"
                )

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

    # ------------------------------------------------------------------ misc
    def apply(self, visitor: Callable[[ClockTreeNode], None]) -> None:
        """Apply ``visitor`` to every node (pre-order)."""
        for node in self.nodes():
            visitor(node)

    def copy(self) -> "ClockTree":
        """Deep-copy the tree (nodes are duplicated, locations shared)."""
        mapping: dict[int, ClockTreeNode] = {}
        new_root: ClockTreeNode | None = None
        for node in self.nodes():
            clone = ClockTreeNode(
                name=node.name,
                kind=node.kind,
                location=node.location,
                side=node.side,
                capacitance=node.capacitance,
                wire_side=node.wire_side,
            )
            mapping[id(node)] = clone
            if node.parent is None:
                new_root = clone
            else:
                mapping[id(node.parent)].add_child(clone)
        assert new_root is not None
        tree = ClockTree(new_root, name=self.name)
        tree._counter = self._counter
        return tree

    def __reduce__(self):
        """Pickle as a flat node table instead of the linked node graph.

        Default pickling recurses through the parent/child links and blows
        the recursion limit on deep (chained) trees; the flat form keeps
        process-pool transport (e.g. the parallel DSE grid) depth-safe.  The
        edit log and caches are deliberately dropped: the unpickled tree is
        a fresh structural copy, exactly like :meth:`copy`.
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
