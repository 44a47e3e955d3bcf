"""An OpenROAD/TritonCTS-style single-side buffered CTS baseline.

OpenROAD's TritonCTS builds clock trees by (i) grouping sinks into leaf
clusters, (ii) constructing a balanced geometric topology over the cluster
centres, and (iii) inserting buffers level by level so that no driver exceeds
its load limit.  This module reimplements that recipe from scratch (no DME
balancing, no back-side awareness), which is the comparison point used by the
"OpenROAD Buffered Clock Tree" columns of Table III.

The tree is built straight into a :class:`~repro.ir.design.DesignArrays`,
the substrate the post-CTS baselines copy and edit.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from repro.clustering.kmeans import KMeans
from repro.evaluation.metrics import ClockTreeMetrics, evaluate_tree
from repro.geometry import Point
from repro.ir.design import KIND_BUFFER, KIND_SINK, KIND_STEINER, KIND_TAP, DesignArrays
from repro.netlist.clock import ClockNet
from repro.netlist.design import Design
from repro.routing.topology import TopologyNode, balanced_bipartition_topology
from repro.tech.pdk import Pdk


@dataclass(frozen=True)
class OpenRoadCtsConfig:
    """Tunables of the OpenROAD-like baseline.

    Attributes:
        leaf_cluster_size: sinks per leaf cluster (TritonCTS sink grouping).
        buffer_distance: a buffer is inserted on any trunk edge longer than
            this (um), emulating TritonCTS's fixed buffer distance.
        buffer_every_level: insert a buffer at every branching level of the
            topology (TritonCTS drives every level of its H-tree).
        seed: clustering seed.
    """

    leaf_cluster_size: int = 30
    buffer_distance: float = 110.0
    buffer_every_level: int = 2
    seed: int = 7


@dataclass
class OpenRoadCtsResult:
    """Result of the OpenROAD-like baseline run."""

    design_name: str
    design: DesignArrays
    metrics: ClockTreeMetrics
    runtime: float


class OpenRoadLikeCTS:
    """Cluster + geometric-bisection + per-level buffering CTS."""

    flow_name = "openroad_buffered_tree"

    def __init__(self, pdk: Pdk, config: OpenRoadCtsConfig | None = None) -> None:
        # The baseline is single-side by construction.
        self.pdk = pdk.front_side_only() if pdk.has_backside else pdk
        self.config = config if config is not None else OpenRoadCtsConfig()

    # ----------------------------------------------------------------- public
    def run(
        self, design: Design | ClockNet, design_name: str | None = None
    ) -> OpenRoadCtsResult:
        """Build the buffered single-side clock-tree design for ``design``."""
        clock_net = design.require_clock_net() if isinstance(design, Design) else design
        name = design_name or design.name
        start = time.perf_counter()
        arrays = self._build_design(clock_net)
        runtime = time.perf_counter() - start
        arrays.validate()
        metrics = evaluate_tree(
            arrays, self.pdk, design=name, flow=self.flow_name, runtime=runtime
        )
        return OpenRoadCtsResult(
            design_name=name, design=arrays, metrics=metrics, runtime=runtime
        )

    # --------------------------------------------------------------- internals
    def _build_design(self, clock_net: ClockNet) -> DesignArrays:
        clusters = self._cluster_sinks(clock_net)
        design = DesignArrays(name=clock_net.name)
        source = clock_net.source.location
        root = design.add_root("clkroot", source.x, source.y)
        centroids = [c[0] for c in clusters]
        topology = balanced_bipartition_topology(centroids)
        self._materialise(design, root, topology, clusters, level=0)
        self._buffer_long_edges(design)
        self._buffer_taps(design)
        return design

    def _cluster_sinks(self, clock_net: ClockNet):
        from repro.clustering.dual_level import split_by_capacitance

        sinks = clock_net.sinks
        count = max(1, int(np.ceil(len(sinks) / self.config.leaf_cluster_size)))
        if count == 1:
            centroid = Point(
                float(np.mean([s.location.x for s in sinks])),
                float(np.mean([s.location.y for s in sinks])),
            )
            clusters = [(centroid, list(sinks))]
        else:
            points = np.array([[s.location.x, s.location.y] for s in sinks])
            result = KMeans(
                n_clusters=count,
                seed=self.config.seed,
                max_cluster_size=self.config.leaf_cluster_size + 2,
            ).fit(points)
            clusters = []
            for members_idx in result.groups():
                if len(members_idx) == 0:
                    continue
                members = [sinks[i] for i in members_idx]
                centroid = Point(
                    float(np.mean([m.location.x for m in members])),
                    float(np.mean([m.location.y for m in members])),
                )
                clusters.append((centroid, members))
        # TritonCTS splits sink groups that would overload their driver.
        return split_by_capacitance(
            clusters,
            max_capacitance=0.9 * self.pdk.max_capacitance,
            unit_wire_capacitance=self.pdk.front_layer.unit_capacitance,
            seed=self.config.seed,
        )

    def _materialise(
        self,
        design: DesignArrays,
        parent: int,
        topology: TopologyNode,
        clusters,
        level: int,
    ) -> None:
        if topology.is_leaf:
            centroid, members = clusters[topology.terminal_index]
            tap = design.add_child(
                parent, design.new_name("tap"), KIND_TAP, centroid.x, centroid.y
            )
            design.add_children(
                tap,
                [sink.name for sink in members],
                KIND_SINK,
                [sink.location.x for sink in members],
                [sink.location.y for sink in members],
                [sink.capacitance for sink in members],
            )
            return
        location = topology.location_hint
        steiner = design.add_child(
            parent, design.new_name("st"), KIND_STEINER, location.x, location.y
        )
        for child in topology.children:
            self._materialise(design, steiner, child, clusters, level + 1)
        # Buffer every N levels of the topology (drives the branch below).
        every = self.config.buffer_every_level
        if every > 0 and level % every == 0:
            design.add_buffer(
                steiner, location.x, location.y, self.pdk.buffer.input_capacitance
            )

    def _buffer_long_edges(self, design: DesignArrays) -> None:
        """Chain buffers along trunk edges longer than the buffer distance."""
        from repro.geometry.point import point_toward

        distance = self.config.buffer_distance
        trunk_children = [
            row
            for row in design.rows_preorder()
            if design.parent_row[row] >= 0 and design.kind[row] != KIND_SINK
        ]
        for child in trunk_children:
            length = float(design.edge_length[child])
            count = int(length // distance)
            if count < 1:
                continue
            origin = design.location_of(child)
            target = design.location_of(int(design.parent_row[child]))
            for i in range(count, 0, -1):
                location = point_toward(origin, target, length * i / (count + 1))
                design.add_buffer(
                    child, location.x, location.y, self.pdk.buffer.input_capacitance
                )

    def _buffer_taps(self, design: DesignArrays) -> None:
        """Give every leaf cluster its own driving buffer (TritonCTS leaf level)."""
        taps = [row for row in design.rows_preorder() if design.kind[row] == KIND_TAP]
        for tap in taps:
            sinks = [
                c for c in design.children_rows[tap] if design.kind[c] == KIND_SINK
            ]
            if not sinks:
                continue
            buffer = design.add_child(
                tap,
                design.new_name("leafbuf"),
                KIND_BUFFER,
                float(design.x[tap]),
                float(design.y[tap]),
                capacitance=self.pdk.buffer.input_capacitance,
            )
            for sink in sinks:
                design.move_child(sink, buffer)
