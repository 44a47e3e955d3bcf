"""Dual-level (high/low) sink clustering of Section III-B.

High-level clustering groups the sinks into a handful of large clusters of
target size ``Hc`` (3000 in the paper); low-level clustering subdivides each
high cluster into clusters of target size ``Lc`` (30).  The centroids of both
levels are recorded because they later become, respectively, the roots and
the leaves of the hierarchical DME routing, and the low-level centroids are
also the end-points used by skew refinement.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from repro.geometry import Point
from repro.netlist.clock import ClockSink
from repro.clustering.kmeans import KMeans


@dataclass
class Cluster:
    """A group of sinks with its centroid.

    Attributes:
        index: cluster index within its level.
        centroid: arithmetic centroid of the member sink locations.
        sinks: the member sinks.
        parent_index: index of the enclosing high-level cluster (for
            low-level clusters), or None for high-level clusters.
    """

    index: int
    centroid: Point
    sinks: list[ClockSink] = field(default_factory=list)
    parent_index: int | None = None
    _columns: "tuple[np.ndarray, np.ndarray, np.ndarray] | None" = field(
        default=None, repr=False, compare=False
    )

    @property
    def size(self) -> int:
        return len(self.sinks)

    def columns(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Cached (x, y, pin-cap) member columns, in member order.

        Shared by every per-cluster vectorized pass (tap-terminal lumping,
        leaf-net estimates) so the sink objects are walked at most once per
        cluster; ``dual_level_clustering`` seeds it with the rows it already
        gathered.  Treat the arrays as read-only.
        """
        if self._columns is None:
            self._columns = (
                np.asarray([s.location.x for s in self.sinks]),
                np.asarray([s.location.y for s in self.sinks]),
                np.asarray([s.capacitance for s in self.sinks]),
            )
        return self._columns

    @property
    def total_capacitance(self) -> float:
        """Sum of the member sink pin capacitances (fF)."""
        return sum(s.capacitance for s in self.sinks)

    def intra_cluster_wirelength(self) -> float:
        """Star wirelength from the centroid to every member sink (um)."""
        return sum(self.centroid.manhattan(s.location) for s in self.sinks)


@dataclass
class DualLevelClustering:
    """The result of dual-level clustering."""

    high_clusters: list[Cluster]
    low_clusters: list[Cluster]
    high_size_target: int
    low_size_target: int

    def low_clusters_of(self, high_index: int) -> list[Cluster]:
        """Low-level clusters belonging to the given high-level cluster."""
        return [c for c in self.low_clusters if c.parent_index == high_index]

    @property
    def sink_count(self) -> int:
        return sum(c.size for c in self.low_clusters)

    def total_leaf_wirelength(self) -> float:
        """Total star wirelength of all low-level (leaf) nets (um)."""
        return sum(c.intra_cluster_wirelength() for c in self.low_clusters)

    def validate(self) -> None:
        """Check the partition covers every sink exactly once per level."""
        high_total = sum(c.size for c in self.high_clusters)
        low_total = sum(c.size for c in self.low_clusters)
        if high_total != low_total:
            raise ValueError(
                f"inconsistent clustering: {high_total} sinks in high clusters "
                f"vs {low_total} in low clusters"
            )
        for low in self.low_clusters:
            if low.parent_index is None:
                raise ValueError(f"low cluster {low.index} has no parent high cluster")
            if low.size == 0:
                raise ValueError(f"low cluster {low.index} is empty")


def estimate_leaf_load(
    centroid: Point, sinks: list[ClockSink], unit_wire_capacitance: float
) -> float:
    """Estimate the load (fF) of a star leaf net driven from ``centroid``."""
    wire = sum(centroid.manhattan(s.location) for s in sinks) * unit_wire_capacitance
    return wire + sum(s.capacitance for s in sinks)


def split_by_capacitance(
    groups: list[tuple[Point, list[ClockSink]]],
    max_capacitance: float,
    unit_wire_capacitance: float,
    seed: int = 2025,
) -> list[tuple[Point, list[ClockSink]]]:
    """Recursively split clusters whose estimated leaf-net load is too large.

    The driver of a leaf net (an end-point buffer or the trunk wire above the
    tap) must respect the maximum driven-capacitance constraint, so clusters
    whose star-net load exceeds ``max_capacitance`` are bisected with K-means
    until every piece fits (or is a single sink).
    """
    members: list[ClockSink] = []
    blocks = []
    for centroid, group in groups:
        blocks.append((centroid, np.arange(len(members), len(members) + len(group))))
        members.extend(group)
    pieces = _split_rows(
        _sink_columns(members), blocks, max_capacitance, unit_wire_capacitance, seed
    )
    return [
        (centroid, [members[i] for i in rows.tolist()]) for centroid, rows in pieces
    ]


def _sink_columns(sinks: list[ClockSink]) -> np.ndarray:
    """The (n, 3) float block of every sink's x, y and pin cap, in order."""
    block = [(s.location.x, s.location.y, s.capacitance) for s in sinks]
    return np.array(block, dtype=float).reshape(len(sinks), 3)


def _split_rows(
    columns: np.ndarray,
    groups: list[tuple[Point, np.ndarray]],
    max_capacitance: float,
    unit_wire_capacitance: float,
    seed: int,
) -> list[tuple[Point, np.ndarray]]:
    """``split_by_capacitance`` over member rows of the ``_sink_columns`` block.

    Groups are popped last first (a LIFO queue), and each split pushes its
    two halves in label order.
    """
    if max_capacitance <= 0:
        raise ValueError("max capacitance must be positive")
    result: list[tuple[Point, np.ndarray]] = []
    queue = list(groups)
    while queue:
        centroid, rows = queue.pop()
        block = columns[rows]
        xs, ys = block[:, 0], block[:, 1]
        # Bit-equal twin of ``estimate_leaf_load``: per-element |dx| + |dy|
        # matches ``Point.manhattan`` and the Python sums run in member
        # order, so the load compare sees the identical float.
        dists = np.abs(centroid.x - xs) + np.abs(centroid.y - ys)
        load = sum(dists.tolist()) * unit_wire_capacitance + sum(block[:, 2].tolist())
        if load <= max_capacitance or rows.size <= 1:
            result.append((centroid, rows))
            continue
        labels = KMeans(n_clusters=2, seed=seed).fit(block[:, :2]).labels
        halves = [np.flatnonzero(labels == part) for part in (0, 1)]
        if any(half.size == 0 for half in halves):
            # K-means failed to separate identical points: split arbitrarily.
            halves = [np.arange(0, rows.size, 2), np.arange(1, rows.size, 2)]
        for half in halves:
            if half.size == 0:
                continue
            half_centroid = Point(float(np.mean(xs[half])), float(np.mean(ys[half])))
            queue.append((half_centroid, rows[half]))
    return result


def _cluster_rows(
    columns: np.ndarray,
    rows: np.ndarray,
    target_size: int,
    seed: int,
    balanced: bool,
) -> list[tuple[Point, np.ndarray]]:
    """Cluster the sinks at ``rows`` of the ``_sink_columns`` block into
    groups of roughly ``target_size`` members: (centroid, member rows) each."""
    count = max(1, math.ceil(rows.size / target_size))
    if count == 1:
        # Python sums in member order, like a sum over the sink objects.
        centroid = Point(
            sum(columns[rows, 0].tolist()) / rows.size,
            sum(columns[rows, 1].tolist()) / rows.size,
        )
        return [(centroid, rows)]
    points = columns[rows, :2]
    max_size = None
    if balanced:
        # Allow some slack above the target so balancing stays feasible.
        max_size = max(target_size, math.ceil(rows.size / count) + 1)
    result = KMeans(
        n_clusters=count, seed=seed, max_cluster_size=max_size
    ).fit(points)
    groups: list[tuple[Point, np.ndarray]] = []
    for member_idx in result.groups():
        if len(member_idx) == 0:
            continue
        centroid = Point(
            float(np.mean(points[member_idx, 0])),
            float(np.mean(points[member_idx, 1])),
        )
        groups.append((centroid, rows[member_idx]))
    return groups


def dual_level_clustering(
    sinks: list[ClockSink],
    high_size: int = 3000,
    low_size: int = 30,
    seed: int = 2025,
    balanced: bool = True,
    max_leaf_capacitance: float | None = None,
    unit_wire_capacitance: float = 0.0,
) -> DualLevelClustering:
    """Run the paper's dual-level clustering.

    Args:
        sinks: all clock sinks of the design.
        high_size: target high-level cluster size (``Hc``, default 3000).
        low_size: target low-level cluster size (``Lc``, default 30).
        seed: RNG seed for K-means determinism.
        balanced: cap cluster sizes near the target (keeps leaf-net loads and
            therefore buffer fanouts predictable).
        max_leaf_capacitance: when given, low-level clusters whose estimated
            star-net load (sink pins + leaf wire at ``unit_wire_capacitance``)
            exceeds this budget are split further, so that leaf nets never
            violate the maximum driven-capacitance constraint.
        unit_wire_capacitance: fF/um of the leaf-net routing layer, used by
            the capacity check.

    Returns:
        A :class:`DualLevelClustering` with high- and low-level clusters.
    """
    if not sinks:
        raise ValueError("dual-level clustering needs at least one sink")
    if low_size < 1 or high_size < 1:
        raise ValueError("cluster size targets must be positive")
    if low_size > high_size:
        raise ValueError("low-level cluster size cannot exceed the high-level size")

    # Every sink object is read once; each group gathers its block by row.
    columns = _sink_columns(sinks)
    high_groups = _cluster_rows(
        columns, np.arange(len(sinks)), high_size, seed, balanced
    )
    high_clusters: list[Cluster] = []
    low_clusters: list[Cluster] = []
    for high_index, (high_centroid, high_rows) in enumerate(high_groups):
        high_clusters.append(
            Cluster(
                index=high_index,
                centroid=high_centroid,
                sinks=[sinks[i] for i in high_rows.tolist()],
            )
        )
        low_seed = seed + high_index + 1
        low_groups = _cluster_rows(columns, high_rows, low_size, low_seed, balanced)
        if max_leaf_capacitance is not None:
            low_groups = _split_rows(
                columns,
                low_groups,
                max_leaf_capacitance,
                unit_wire_capacitance,
                low_seed,
            )
        for low_centroid, low_rows in low_groups:
            xs, ys, caps = columns[low_rows].T
            low_clusters.append(
                Cluster(
                    index=len(low_clusters),
                    centroid=low_centroid,
                    sinks=[sinks[i] for i in low_rows.tolist()],
                    parent_index=high_index,
                    _columns=(xs, ys, caps),
                )
            )

    clustering = DualLevelClustering(
        high_clusters=high_clusters,
        low_clusters=low_clusters,
        high_size_target=high_size,
        low_size_target=low_size,
    )
    clustering.validate()
    return clustering
