"""The persistent struct-of-arrays design representation.

:class:`DesignArrays` is the one design object the flow threads through
clustering → topology → DME → insertion → refinement → evaluation, and the
only representation both timing engines read:
its ``parent_row`` / ``kind`` / ``edge_length`` / ``wire_front`` / ``cap``
columns, ``children_rows``, ``levels()`` and ``sink_rows()`` are what
:class:`~repro.timing.VectorizedElmoreEngine`'s level-batched passes read
directly, and :class:`~repro.timing.ElmoreTimingEngine` walks the same rows
one at a time (wire lengths from the coordinates).  Neither engine writes
to the design.  Beyond that timing view it carries what a *design* needs:
names, coordinates, node sides, and the name counter behind every fresh
node name.  It is the only editing API for clock trees (flow stages and
baselines alike).  This module owns the row format, including the integer
``kind`` codes (:data:`KIND_CODE`).

Rows are append-only: every new node takes the next row, and the only row
that can be removed is the newest one (:meth:`remove_leaf`, which undoes a
trial insertion).  A row number therefore names the same node for the
design's whole life; only :meth:`restore` rewinds the rows.

Every structural mutator records the edit that covers it in a bounded
edit log of ``(version, kind, row)`` entries, and the structure is updated
eagerly at edit time: a ``splice`` names a row spliced onto an edge, a
``rewire`` names a row whose subtree changed, and a ``touch`` covers the
whole design.  The vectorized engine replays the log to re-time only the
dirty cone.  Callers record nothing themselves, except a :meth:`touch`
after writing a column in place.

Object trees are read-only export views: :meth:`to_clock_tree` /
:meth:`from_clock_tree` are lossless (names, children order, sides, caps,
coordinates, and the name counter are bit-preserved both ways), and
:meth:`ClockTree.validate` is :meth:`validate` on the compiled tree.
"""

from __future__ import annotations

from collections import deque

import numpy as np

from repro.clocktree.node import ClockTreeNode, NodeKind
from repro.clocktree.tree import ClockTree, ConnectivityError
from repro.geometry import Point
from repro.tech.layers import Side

#: Edits the log keeps; the oldest entry drops out past this window, and an
#: observer older than the window recompiles.
_MAX_EDIT_LOG = 256

#: Integer codes of :class:`NodeKind` stored in the ``kind`` column.
KIND_ROOT, KIND_STEINER, KIND_SINK, KIND_BUFFER, KIND_NTSV, KIND_TAP = range(6)

KIND_CODE: dict[NodeKind, int] = {
    NodeKind.ROOT: KIND_ROOT,
    NodeKind.STEINER: KIND_STEINER,
    NodeKind.SINK: KIND_SINK,
    NodeKind.BUFFER: KIND_BUFFER,
    NodeKind.NTSV: KIND_NTSV,
    NodeKind.TAP: KIND_TAP,
}

#: Integer kind code -> :class:`NodeKind` (inverse of ``KIND_CODE``).
KIND_OF_CODE: tuple[NodeKind, ...] = tuple(
    sorted(KIND_CODE, key=KIND_CODE.__getitem__)
)


class DesignArrays:
    """A persistent, editable struct-of-arrays clock-tree design.

    Row 0 is always the clock root and rows ``0..size-1`` are the nodes,
    in creation order (not breadth-first once a node is spliced in).
    Children order is part of the design: it fixes the order the timing
    passes sum each node's children in, and :meth:`to_clock_tree` realises
    it node for node.
    """

    __slots__ = (
        "name",
        "size",
        "names",
        "parent_row",
        "kind",
        "edge_length",
        "wire_front",
        "cap",
        "x",
        "y",
        "side_front",
        "children_rows",
        "name_to_row",
        "_counter",
        "_version",
        "_edits",
        "_levels",
        "_sink_rows",
    )

    def __init__(self, name: str = "clk", capacity: int = 64) -> None:
        capacity = max(1, int(capacity))
        self.name = name
        self.size = 0
        self.names: list[str] = []
        self.parent_row = np.full(capacity, -1, dtype=np.int64)
        self.kind = np.zeros(capacity, dtype=np.int8)
        self.edge_length = np.zeros(capacity, dtype=np.float64)
        self.wire_front = np.ones(capacity, dtype=bool)
        self.cap = np.zeros(capacity, dtype=np.float64)
        self.x = np.zeros(capacity, dtype=np.float64)
        self.y = np.zeros(capacity, dtype=np.float64)
        self.side_front = np.ones(capacity, dtype=bool)
        self.children_rows: list[list[int]] = []
        self.name_to_row: dict[str, int] = {}
        self._counter = 0
        self._version = 0
        self._edits: deque[tuple[int, str, int | None]] = deque(
            maxlen=_MAX_EDIT_LOG
        )
        self._levels: list[np.ndarray] | None = None
        self._sink_rows: np.ndarray | None = None

    # ------------------------------------------------------- edit tracking
    @property
    def version(self) -> int:
        """Monotonic structural version; bumped by every recorded edit."""
        return self._version

    def _record(self, kind: str, row: int | None) -> None:
        self._version += 1
        self._edits.append((self._version, kind, row))

    def touch(self) -> None:
        """Record an unscoped change (forces full re-analysis).

        The mutators record their own edits; call this only after writing
        a column in place.
        """
        self._record("touch", None)

    @property
    def edit_log(self) -> tuple[tuple[int, str, int | None], ...]:
        """The recorded ``(version, kind, row)`` edits, oldest first."""
        return tuple(self._edits)

    def edits_since(self, version: int) -> list[tuple[int, str, int | None]] | None:
        """Edits recorded after ``version``, or None when ``version`` is
        older than the log's window (the caller recompiles)."""
        if version == self._version:
            return []
        if not self._edits or self._edits[0][0] > version + 1:
            return None
        return [edit for edit in self._edits if edit[0] > version]

    def new_name(self, prefix: str) -> str:
        """Return a fresh node name (the counter survives copies and bridges)."""
        self._counter += 1
        return f"{prefix}_{self._counter}"

    # ------------------------------------------------------------- queries
    @property
    def capacity(self) -> int:
        return int(self.parent_row.shape[0])

    def levels(self) -> list[np.ndarray]:
        """Rows grouped by depth, root first (rebuilt after edits)."""
        if self._levels is None:
            levels: list[np.ndarray] = []
            frontier = [0]
            while frontier:
                levels.append(np.asarray(frontier, dtype=np.int64))
                frontier = [c for row in frontier for c in self.children_rows[row]]
            self._levels = levels
        return self._levels

    def sink_rows(self) -> np.ndarray:
        """Rows of every sink node, ascending."""
        if self._sink_rows is None:
            self._sink_rows = np.flatnonzero(self.kind[: self.size] == KIND_SINK)
        return self._sink_rows

    def kind_rows(self, code: int) -> np.ndarray:
        return np.flatnonzero(self.kind[: self.size] == code)

    def rows_preorder(self) -> list[int]:
        """Every reachable row in pre-order (matches ``ClockTree.nodes()``)."""
        order: list[int] = []
        stack = [0]
        pop = stack.pop
        extend = stack.extend
        while stack:
            row = pop()
            order.append(row)
            extend(reversed(self.children_rows[row]))
        return order

    def counts(self) -> tuple[int, int, int, int]:
        """(nodes, sinks, buffers, ntsvs) over the rows."""
        kinds = self.kind[: self.size]
        return (
            self.size,
            int(np.count_nonzero(kinds == KIND_SINK)),
            int(np.count_nonzero(kinds == KIND_BUFFER)),
            int(np.count_nonzero(kinds == KIND_NTSV)),
        )

    def wirelength(self, side: Side | None = None) -> float:
        """Total Manhattan wirelength (um), optionally on one side.

        Sums the edges in row (creation) order, so the result does not
        depend on which engine, if any, timed the design.
        """
        n = self.size
        mask = self.parent_row[:n] >= 0
        if side is not None:
            mask &= self.wire_front[:n] == (side is Side.FRONT)
        return float(np.sum(self.edge_length[:n][mask]))

    def location_of(self, row: int) -> Point:
        return Point(float(self.x[row]), float(self.y[row]))

    def _edge(self, row: int, parent: int) -> float:
        # Scalar Manhattan distance, bit-identical to Point.manhattan().
        return abs(float(self.x[row]) - float(self.x[parent])) + abs(
            float(self.y[row]) - float(self.y[parent])
        )

    # ------------------------------------------------------------- editing
    def _invalidate(self) -> None:
        self._levels = None
        self._sink_rows = None

    def _grow(self) -> None:
        grow = max(16, self.capacity)
        self.parent_row = np.concatenate(
            [self.parent_row, np.full(grow, -1, dtype=np.int64)]
        )
        self.kind = np.concatenate([self.kind, np.zeros(grow, dtype=np.int8)])
        self.edge_length = np.concatenate([self.edge_length, np.zeros(grow)])
        self.wire_front = np.concatenate([self.wire_front, np.ones(grow, bool)])
        self.cap = np.concatenate([self.cap, np.zeros(grow)])
        self.x = np.concatenate([self.x, np.zeros(grow)])
        self.y = np.concatenate([self.y, np.zeros(grow)])
        self.side_front = np.concatenate([self.side_front, np.ones(grow, bool)])

    def _append_row(
        self,
        name: str,
        kind_code: int,
        x: float,
        y: float,
        side_front: bool,
        capacitance: float,
        wire_front: bool,
    ) -> int:
        if capacitance < 0:
            raise ValueError(f"node {name}: negative capacitance")
        if name in self.name_to_row:
            raise ValueError(f"design {self.name}: duplicate node name {name!r}")
        if self.size == self.capacity:
            self._grow()
        row = self.size
        self.size += 1
        self.names.append(name)
        self.children_rows.append([])
        self.parent_row[row] = -1
        self.kind[row] = kind_code
        self.edge_length[row] = 0.0
        self.wire_front[row] = wire_front
        self.cap[row] = capacitance
        self.x[row] = x
        self.y[row] = y
        self.side_front[row] = side_front
        self.name_to_row[name] = row
        return row

    def add_root(self, name: str, x: float, y: float) -> int:
        """Create the clock-root row (must be the first row)."""
        if self.size:
            raise ValueError("design already has a root row")
        row = self._append_row(name, KIND_ROOT, x, y, True, 0.0, True)
        self._invalidate()
        self._record("touch", None)
        return row

    def add_child(
        self,
        parent: int,
        name: str,
        kind_code: int,
        x: float,
        y: float,
        side_front: bool = True,
        capacitance: float = 0.0,
        wire_front: bool = True,
    ) -> int:
        """Append a new leaf row at the end of ``parent``'s children."""
        row = self._append_row(
            name, kind_code, x, y, side_front, capacitance, wire_front
        )
        self.parent_row[row] = parent
        self.edge_length[row] = self._edge(row, parent)
        self.children_rows[parent].append(row)
        self._invalidate()
        self._record("rewire", parent)
        return row

    def add_children(
        self,
        parent: int,
        names: list[str],
        kind_code: int,
        xs: "list[float] | np.ndarray",
        ys: "list[float] | np.ndarray",
        capacitances: "list[float] | np.ndarray | None" = None,
    ) -> np.ndarray:
        """Append ``len(names)`` sibling rows under ``parent`` in one shot.

        Decision-identical to calling :meth:`add_child` once per name in
        order — same row numbers, same children order, and bit-equal edge
        lengths (the vectorized ``|dx| + |dy|`` is the elementwise twin of
        the scalar :meth:`_edge`).  Exists because per-row appends dominate
        routing materialisation for sink-heavy designs.
        """
        n = len(names)
        if n == 0:
            return np.empty(0, dtype=np.int64)
        xs = np.asarray(xs, dtype=np.float64)
        ys = np.asarray(ys, dtype=np.float64)
        caps = (
            np.zeros(n)
            if capacitances is None
            else np.asarray(capacitances, dtype=np.float64)
        )
        if caps.min() < 0:
            bad = names[int(np.argmax(caps < 0))]
            raise ValueError(f"node {bad}: negative capacitance")
        fresh: set[str] = set()
        for name in names:
            if name in self.name_to_row or name in fresh:
                raise ValueError(
                    f"design {self.name}: duplicate node name {name!r}"
                )
            fresh.add(name)
        while self.capacity < self.size + n:
            self._grow()
        start = self.size
        stop = start + n
        self.size = stop
        self.parent_row[start:stop] = parent
        self.kind[start:stop] = kind_code
        self.edge_length[start:stop] = np.abs(xs - self.x[parent]) + np.abs(
            ys - self.y[parent]
        )
        self.wire_front[start:stop] = True
        self.cap[start:stop] = caps
        self.x[start:stop] = xs
        self.y[start:stop] = ys
        self.side_front[start:stop] = True
        self.names.extend(names)
        self.children_rows.extend([] for _ in range(n))
        self.children_rows[parent].extend(range(start, stop))
        for offset, name in enumerate(names):
            self.name_to_row[name] = start + offset
        self._invalidate()
        self._record("rewire", parent)
        return np.arange(start, stop, dtype=np.int64)

    def insert_on_edge(
        self,
        child: int,
        kind_code: int,
        x: float,
        y: float,
        side_front: bool = True,
        capacitance: float = 0.0,
        wire_front: bool | None = None,
        name: str | None = None,
    ) -> int:
        """Insert a new row on the edge between ``child`` and its parent.

        The fresh name uses the kind's value as prefix, the new row replaces
        ``child`` at the *end* of the parent's children list (remove +
        append), and a splice edit is recorded.  ``wire_front`` sets the
        upper wire (new row to parent); the lower wire keeps ``child``'s.
        """
        parent = int(self.parent_row[child])
        if parent < 0:
            raise ValueError(
                f"cannot insert above the root row {self.names[child]!r}"
            )
        if wire_front is None:
            wire_front = bool(self.wire_front[child])
        row = self._append_row(
            name or self.new_name(KIND_OF_CODE[kind_code].value),
            kind_code,
            x,
            y,
            side_front,
            capacitance,
            wire_front,
        )
        siblings = self.children_rows[parent]
        siblings.remove(child)
        siblings.append(row)
        self.children_rows[row] = [child]
        self.parent_row[row] = parent
        self.parent_row[child] = row
        self.edge_length[row] = self._edge(row, parent)
        self.edge_length[child] = self._edge(child, row)
        self._invalidate()
        self._record("splice", row)
        return row

    def add_buffer(
        self, child: int, x: float, y: float, input_capacitance: float
    ) -> int:
        """Insert a clock buffer on the edge above ``child`` (front side)."""
        return self.insert_on_edge(
            child,
            KIND_BUFFER,
            x,
            y,
            side_front=True,
            capacitance=input_capacitance,
            wire_front=True,
        )

    def add_ntsv(
        self, child: int, x: float, y: float, capacitance: float, upstream_front: bool
    ) -> int:
        """Insert an nTSV on the edge above ``child``."""
        return self.insert_on_edge(
            child,
            KIND_NTSV,
            x,
            y,
            side_front=upstream_front,
            capacitance=capacitance,
            wire_front=upstream_front,
        )

    def move_child(
        self, row: int, new_parent: int, index: int | None = None
    ) -> None:
        """Detach ``row`` from its parent and re-attach it under ``new_parent``.

        The row goes to position ``index`` among ``new_parent``'s children
        (an undo passes the slot it recorded), or at the end by default.
        Records a rewire of both parents, or of only the upper one when one
        parent sits directly under the other: a rewire re-sums its whole
        subtree, so it covers the lower parent too.
        """
        old_parent = int(self.parent_row[row])
        if old_parent < 0:
            raise ValueError(f"row {self.names[row]!r} has no parent to detach")
        self.children_rows[old_parent].remove(row)
        if index is None:
            self.children_rows[new_parent].append(row)
        else:
            self.children_rows[new_parent].insert(index, row)
        self.parent_row[row] = new_parent
        self.edge_length[row] = self._edge(row, new_parent)
        self._invalidate()
        if new_parent == old_parent or self.parent_row[old_parent] == new_parent:
            self._record("rewire", new_parent)
        elif self.parent_row[new_parent] == old_parent:
            self._record("rewire", old_parent)
        else:
            self._record("rewire", old_parent)
            self._record("rewire", new_parent)

    def remove_leaf(self, row: int) -> None:
        """Pop the newest row, a leaf, and record a rewire of its parent.

        Only the newest row can go, so every other row keeps its number:
        this undoes a trial :meth:`add_child` or :meth:`insert_on_edge`
        once its children have moved back.  A rejected call changes
        nothing.  Popping a sink also records a touch: a later append
        reuses the row number, and per-sink caches keyed by row (the
        vectorized engine's sink-arrival matrix) must not mistake the new
        sink for the old one.
        """
        if row != self.size - 1:
            raise ValueError(
                f"row {row} is not the newest row {self.size - 1}; only the "
                f"newest row can be removed"
            )
        if self.children_rows[row]:
            raise ValueError(f"row {self.names[row]!r} still has children")
        parent = int(self.parent_row[row])
        if parent >= 0:
            self.children_rows[parent].remove(row)
        self.children_rows.pop()
        name = self.names.pop()
        self.parent_row[row] = -1
        self.size -= 1
        if self.name_to_row.get(name) == row:
            del self.name_to_row[name]
        self._invalidate()
        if parent >= 0:
            self._record("rewire", parent)
        if parent < 0 or self.kind[row] == KIND_SINK:
            self._record("touch", None)

    # --------------------------------------------------------- maintenance
    def snapshot(self) -> dict:
        """A cheap full copy of the design state (guard degrade recovery)."""
        n = self.size
        return {
            "size": n,
            "counter": self._counter,
            "version": self._version,
            "edits": list(self._edits),
            "names": list(self.names),
            "children_rows": [list(rows) for rows in self.children_rows],
            "columns": {
                column: getattr(self, column)[:n].copy()
                for column in (
                    "parent_row",
                    "kind",
                    "edge_length",
                    "wire_front",
                    "cap",
                    "x",
                    "y",
                    "side_front",
                )
            },
        }

    def restore(self, snapshot: dict) -> None:
        """Restore the state captured by :meth:`snapshot` in place.

        Structure, columns, and the name counter return to the snapshot;
        the *version* does not.  A restore is itself a structural edit, so
        the version stays monotonic (never rewinds to the snapshot's
        counter) and a covering touch is recorded: any observer holding a
        pre-restore version sees a non-empty ``edits_since`` (or ``None``,
        forcing a recompile) — never a stale ``[]``.  The snapshot's edit
        entries are dropped rather than replayed; their versions belong to
        the abandoned timeline.
        """
        n = snapshot["size"]
        self.size = n
        self._counter = snapshot["counter"]
        self._version = max(self._version, snapshot["version"])
        self._edits.clear()
        self.names = list(snapshot["names"])
        self.children_rows = [list(rows) for rows in snapshot["children_rows"]]
        for column, values in snapshot["columns"].items():
            getattr(self, column)[:n] = values
        self.parent_row[n:] = -1
        self.name_to_row = {name: row for row, name in enumerate(self.names)}
        self._invalidate()
        self._record("touch", None)

    # ---------------------------------------------------------- validation
    def validate(self) -> None:
        """Vectorized structural + double-side connectivity invariants.

        The one connectivity validator (:meth:`ClockTree.validate` compiles
        the tree and calls it): raises
        :class:`ConnectivityError` on a missing root, cycles, unreachable
        rows (a row its parent no longer lists), broken parent links (a row
        whose ``parent_row`` disagrees with the ``children_rows`` entry
        listing it), duplicate names, back-side sinks or buffers, and the
        paper's shared-vertex side constraint.  The walk is bounded by the
        row count, so a corrupted ``children_rows`` cycle raises instead of
        spinning.
        """
        rows = np.arange(self.size)
        if not rows.size or self.kind[0] != KIND_ROOT:
            raise ConnectivityError("design has no root row")
        children = self.children_rows
        order = [0]
        frontier = [0]
        while frontier:
            frontier = [c for row in frontier for c in children[row]]
            order.extend(frontier)
            if len(order) > rows.size:
                raise ConnectivityError("cycle detected in the design rows")
        if len(order) != rows.size:
            raise ConnectivityError(
                f"{rows.size - len(order)} rows unreachable from the root"
            )
        # Breadth-first, the i-th listed child belongs to the i-th parent
        # slot, so each row's listing parent is one repeat away.
        walked = np.asarray(order, dtype=np.int64)
        fanout = np.fromiter(
            map(len, map(children.__getitem__, order)), np.int64, len(order)
        )
        listed_by = np.concatenate(([-1], np.repeat(walked, fanout)))
        broken = np.flatnonzero(self.parent_row[walked] != listed_by)
        if broken.size:
            row, owner = order[broken[0]], int(listed_by[broken[0]])
            expected = repr(self.names[owner]) if owner >= 0 else "no parent"
            raise ConnectivityError(
                f"broken parent link: {self.names[row]!r} does not point to "
                f"{expected}"
            )
        names = [self.names[row] for row in order]
        if len(set(names)) != len(names):
            seen: set[str] = set()
            for name in names:
                if name in seen:
                    raise ConnectivityError(f"duplicate node name {name!r}")
                seen.add(name)
        kinds = self.kind[rows]
        front = self.side_front[rows]
        for code, label in ((KIND_SINK, "sink"), (KIND_BUFFER, "buffer")):
            bad = rows[(kinds == code) & ~front]
            if bad.size:
                raise ConnectivityError(
                    f"{label} {self.names[int(bad[0])]!r} is on the back side"
                )
        parents = self.parent_row[rows]
        has_parent = parents >= 0
        # Upstream wire must match the node side (nTSV and non-nTSV alike).
        bad = rows[has_parent & (self.wire_front[rows] != front)]
        if bad.size:
            row = int(bad[0])
            raise ConnectivityError(
                f"node {self.names[row]!r} side/wire mismatch "
                f"(upstream wire on the opposite side)"
            )
        # Downstream wires: node side for non-nTSVs, opposite for nTSVs.
        child_rows = rows[has_parent]
        child_parents = parents[has_parent]
        parent_front = self.side_front[child_parents]
        parent_ntsv = self.kind[child_parents] == KIND_NTSV
        expected_front = np.where(parent_ntsv, ~parent_front, parent_front)
        bad = child_rows[self.wire_front[child_rows] != expected_front]
        if bad.size:
            row = int(bad[0])
            parent = int(self.parent_row[row])
            raise ConnectivityError(
                f"node {self.names[parent]!r} touches a downstream wire on "
                f"the wrong side (child {self.names[row]!r})"
            )

    # ----------------------------------------------------------- boundary
    def to_clock_tree(self) -> ClockTree:
        """Realise the design as an object :class:`ClockTree` (lossless)."""
        order: list[int] = []
        frontier = [0]
        while frontier:
            order.extend(frontier)
            frontier = [c for row in frontier for c in self.children_rows[row]]
        nodes: dict[int, ClockTreeNode] = {}
        tree: ClockTree | None = None
        for row in order:
            node = ClockTreeNode(
                name=self.names[row],
                kind=KIND_OF_CODE[int(self.kind[row])],
                location=Point(float(self.x[row]), float(self.y[row])),
                side=Side.FRONT if self.side_front[row] else Side.BACK,
                capacitance=float(self.cap[row]),
                wire_side=Side.FRONT if self.wire_front[row] else Side.BACK,
            )
            nodes[row] = node
            parent = int(self.parent_row[row])
            if parent < 0:
                tree = ClockTree(node, name=self.name)
            else:
                nodes[parent].add_child(node)
        assert tree is not None
        tree._counter = self._counter
        return tree

    @classmethod
    def from_clock_tree(cls, tree: ClockTree) -> "DesignArrays":
        """Compile an object tree into a fresh design (BFS row order).

        Raises :class:`ConnectivityError` when the walk reaches a node twice
        (a cycle) or two nodes share a name (the message :meth:`validate`
        gives).  A parent outside the tree compiles to "no parent", which
        :meth:`validate` reports as a broken link.
        """
        order: list[ClockTreeNode] = []
        row_of: dict[int, int] = {}
        frontier = [tree.root]
        while frontier:
            for node in frontier:
                if id(node) in row_of:
                    raise ConnectivityError(f"cycle detected at node {node.name!r}")
                row_of[id(node)] = len(order)
                order.append(node)
            frontier = [c for node in frontier for c in node.children]
        design = cls(name=tree.name, capacity=len(order))
        for row, node in enumerate(order):
            design.names.append(node.name)
            design.children_rows.append([row_of[id(c)] for c in node.children])
            if design.name_to_row.setdefault(node.name, row) != row:
                raise ConnectivityError(f"duplicate node name {node.name!r}")
            design.parent_row[row] = row_of.get(id(node.parent), -1)
            design.kind[row] = KIND_CODE[node.kind]
            design.edge_length[row] = node.edge_length()
            design.wire_front[row] = node.wire_side is Side.FRONT
            design.cap[row] = node.capacitance
            design.x[row] = node.location.x
            design.y[row] = node.location.y
            design.side_front[row] = node.side is Side.FRONT
        design.size = len(order)
        design._counter = tree._counter
        return design

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        nodes, sinks, buffers, ntsvs = self.counts()
        return (
            f"DesignArrays(name={self.name!r}, nodes={nodes}, sinks={sinks}, "
            f"buffers={buffers}, ntsvs={ntsvs})"
        )


def subtree_totals(
    design: DesignArrays, values: np.ndarray, ufunc: np.ufunc = np.add
) -> np.ndarray:
    """Reduce per-row ``values`` over every row's subtree (the row included)."""
    totals = np.array(values)
    for rows in reversed(design.levels()[1:]):
        ufunc.at(totals, design.parent_row[rows], totals[rows])
    return totals


__all__ = [
    "DesignArrays",
    "subtree_totals",
    "KIND_CODE",
    "KIND_OF_CODE",
    "KIND_ROOT",
    "KIND_STEINER",
    "KIND_SINK",
    "KIND_BUFFER",
    "KIND_NTSV",
    "KIND_TAP",
]
