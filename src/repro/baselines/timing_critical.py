"""Baseline [6] (Bethur et al., DAC 2024): criticality-driven flipping.

The original work trains a graph neural network to identify the flip-flops
with the worst timing and flips the nets feeding their leaf buffers to the
back side.  The GNN only acts as a selector, so this reproduction replaces it
with a delay-criticality oracle: the end-points are ranked latest-first by
their worst sink arrival with the skew refiner's own ranking
(:func:`~repro.refinement.skew_refinement.rank_end_points`: taps, or the
parents of sinks on a tree without taps, keyed by the latest arrival over
each one's whole subtree, ties in end-point order), and the top
``critical_fraction`` of them is selected (0.5 in Table III, swept 0.2..0.9
in Fig. 12).  Every trunk edge on the root-to-end-point path of a selected
end-point is flipped, in the order the walks up from the end-points first
reach them.
"""

from __future__ import annotations

from typing import Iterator

from repro.baselines.backside import trunk_edges
from repro.baselines.veloso import BacksideOptimizerBase
from repro.ir.design import DesignArrays
from repro.refinement.skew_refinement import arrivals_by_row, rank_end_points
from repro.timing import create_engine


class TimingCriticalBacksideOptimizer(BacksideOptimizerBase):
    """[6]: flip the trunk paths feeding the most critical end-points."""

    flow_name = "bethur_gnn_2024"

    def __init__(self, pdk, critical_fraction: float = 0.5) -> None:
        super().__init__(pdk)
        if not 0 < critical_fraction <= 1:
            raise ValueError("the critical fraction must be in (0, 1]")
        self.critical_fraction = critical_fraction

    # ------------------------------------------------------------------ logic
    def select_edges(self, design: DesignArrays) -> list[int]:
        critical = self._critical_endpoints(design)
        allowed = set(trunk_edges(design))
        selected: dict[int, None] = {}
        for endpoint in critical:
            for row in self._path_to_root(design, endpoint):
                if row in allowed:
                    selected[row] = None
        return list(selected)

    def _critical_endpoints(self, design: DesignArrays) -> list[int]:
        """The ``critical_fraction`` most critical end-point rows, worst first."""
        timing = create_engine(self.pdk).analyze(design, with_slew=False)
        endpoints = rank_end_points(
            design, arrivals_by_row(design, timing), latest_first=True
        )
        if not endpoints:
            return []
        count = max(1, int(round(len(endpoints) * self.critical_fraction)))
        return endpoints[:count]

    @staticmethod
    def _path_to_root(design: DesignArrays, row: int) -> Iterator[int]:
        """``row`` and its ancestors, up to but excluding the root."""
        while design.parent_row[row] >= 0:
            yield row
            row = int(design.parent_row[row])
