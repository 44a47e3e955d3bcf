"""Baseline [6] (Bethur et al., DAC 2024): criticality-driven flipping.

The original work trains a graph neural network to identify the flip-flops
with the worst timing and flips the nets feeding their leaf buffers to the
back side.  The GNN only acts as a selector, so this reproduction replaces it
with a delay-criticality oracle: end-points (taps / leaf buffers) are ranked
by their worst sink arrival time and the top ``critical_fraction`` of them is
selected (0.5 in Table III, swept 0.2..0.9 in Fig. 12).  Every trunk edge on
the root-to-end-point path of a selected end-point is flipped, in the order
the walks up from the end-points first reach them.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from repro.baselines.backside import subtree_totals, trunk_edges
from repro.baselines.veloso import BacksideOptimizerBase
from repro.ir.design import KIND_ROOT, KIND_SINK, KIND_TAP, DesignArrays
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
        endpoints = self._rank_endpoints(design)
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

    def _rank_endpoints(self, design: DesignArrays) -> list[int]:
        """End-point rows ordered from most to least timing critical."""
        engine = create_engine(self.pdk)
        timing = engine.analyze(design, with_slew=False)
        order = design.rows_preorder()
        kind = design.kind
        endpoints = [row for row in order if kind[row] == KIND_TAP]
        if not endpoints:
            parents = dict.fromkeys(
                int(design.parent_row[row]) for row in order if kind[row] == KIND_SINK
            )
            endpoints = [row for row in parents if row >= 0 and kind[row] != KIND_ROOT]
        arrival = np.full(design.size, -np.inf)
        for name, value in timing.arrivals.items():
            arrival[design.name_to_row[name]] = value
        worst = subtree_totals(design, arrival, np.maximum)
        scored = [(worst[row], row) for row in endpoints if worst[row] > -np.inf]
        scored.sort(key=lambda item: item[0], reverse=True)
        return [row for _score, row in scored]
