"""Post-CTS back-side assignment: the incremental flow of Fig. 1 (left).

All the baselines [2], [6], [7], [29] share the same mechanics: starting from
a *buffered, single-side* clock-tree design they choose a subset of trunk
edges to move onto the back-side metal layers and insert nTSVs wherever a
back-side wire meets something that has to stay on the front side (buffer
pins, the clock root, leaf nets).  Only the *selection* of edges differs
between the methods, so this module exposes one :func:`assign_backside` over
an explicit edge list.

An edge is named by the row of its downstream (child) node in a
:class:`~repro.ir.design.DesignArrays`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from repro.ir.design import (
    KIND_BUFFER,
    KIND_ROOT,
    KIND_SINK,
    KIND_STEINER,
    KIND_TAP,
    DesignArrays,
    subtree_totals,
)
from repro.tech.pdk import Pdk

#: Node kinds pinned to the front side by a back-side assignment.
_FRONT_PINNED = (KIND_ROOT, KIND_BUFFER, KIND_SINK, KIND_TAP)


@dataclass
class BacksideAssignment:
    """Summary of one back-side assignment pass."""

    flipped_edges: int
    inserted_ntsvs: int
    back_wirelength: float

    def summary(self) -> dict[str, float | int]:
        return {
            "flipped_edges": self.flipped_edges,
            "inserted_ntsvs": self.inserted_ntsvs,
            "back_wirelength_um": round(self.back_wirelength, 1),
        }


def trunk_edges(design: DesignArrays) -> list[int]:
    """Child rows of all *trunk* edges (pre-order): everything above the leaf nets.

    An edge is a trunk edge when its downstream node is a tap (low-level
    cluster centroid), a Steiner point, or any node whose subtree still
    contains a tap or Steiner point (i.e. the edge is above the leaf level).
    Leaf nets (tap/buffer to sinks) and end-point buffers are excluded.
    """
    kind = design.kind[: design.size]
    structure = subtree_totals(
        design, ((kind == KIND_TAP) | (kind == KIND_STEINER)).astype(np.int64)
    )
    return [
        row
        for row in design.rows_preorder()
        if design.parent_row[row] >= 0 and kind[row] != KIND_SINK and structure[row]
    ]


def assign_backside(
    design: DesignArrays, pdk: Pdk, edges: Iterable[int]
) -> BacksideAssignment:
    """Move the given edges of ``design`` to the back side (in place).

    Args:
        design: a buffered, front-side clock-tree design (modified in place).
        pdk: technology providing the nTSV cell.
        edges: child rows whose parent edges are flipped, in flip order.  The
            order matters for bit-identity: every inserted nTSV moves to the
            end of its parent's children list.

    Returns:
        A :class:`BacksideAssignment` with flip and nTSV statistics.
    """
    if not pdk.has_backside or pdk.ntsv is None:
        raise ValueError("back-side assignment needs a back-side enabled PDK")
    selected = [int(row) for row in edges if design.parent_row[row] >= 0]
    if not selected:
        return BacksideAssignment(
            flipped_edges=0, inserted_ntsvs=0, back_wirelength=0.0
        )

    front = _solve_node_sides(design, set(selected))
    ntsv_cap = pdk.ntsv.capacitance
    inserted = 0
    back_wl = 0.0
    for child in selected:
        parent = int(design.parent_row[child])
        back_wl += float(design.edge_length[child])
        inserted += _flip_edge(design, child, front[parent], front[child], ntsv_cap)

    # Commit the computed sides of the Steiner points that ended up entirely
    # on the back side.
    for row, is_front in front.items():
        if design.kind[row] == KIND_STEINER:
            design.side_front[row] = is_front
    design.touch()

    return BacksideAssignment(
        flipped_edges=len(selected),
        inserted_ntsvs=inserted,
        back_wirelength=back_wl,
    )


def _solve_node_sides(design: DesignArrays, selected: set[int]) -> dict[int, bool]:
    """Decide which side every existing row ends up on (True = front).

    Buffers, sinks, taps (which keep front-side leaf nets) and the clock root
    are pinned to the front side; a Steiner point moves to the back side only
    when *all* of its incident edges are flipped, otherwise it stays on the
    front side and nTSVs are inserted on its flipped edges.
    """
    front: dict[int, bool] = {}
    for row in design.rows_preorder():
        if design.kind[row] in _FRONT_PINNED:
            front[row] = True
            continue
        incident_flipped = [c in selected for c in design.children_rows[row]]
        if design.parent_row[row] >= 0:
            incident_flipped.append(row in selected)
        front[row] = not (incident_flipped and all(incident_flipped))
    return front


def _flip_edge(
    design: DesignArrays,
    child: int,
    parent_front: bool,
    child_front: bool,
    ntsv_capacitance: float,
) -> int:
    """Move one edge to the back side, inserting nTSVs at front-side ends.

    Returns the number of nTSVs inserted for this edge.
    """
    parent = int(design.parent_row[child])
    if not parent_front and not child_front:
        design.wire_front[child] = False
        return 0
    x, y = float(design.x[child]), float(design.y[child])
    px, py = float(design.x[parent]), float(design.y[parent])
    if not parent_front:
        # nTSV at the child (downstream) end only.
        design.wire_front[child] = True
        design.add_ntsv(child, x, y, ntsv_capacitance, upstream_front=False)
        return 1
    if not child_front:
        # nTSV at the parent (upstream) end only.
        design.wire_front[child] = False
        design.add_ntsv(child, px, py, ntsv_capacitance, upstream_front=True)
        return 1
    # Both ends stay on the front: via down at the parent end, via up at the
    # child end, back-side wire in between (the paper's Fig. 2(b) situation
    # around buffers).
    design.wire_front[child] = True
    low = design.add_ntsv(child, x, y, ntsv_capacitance, upstream_front=False)
    design.add_ntsv(low, px, py, ntsv_capacitance, upstream_front=True)
    return 2
